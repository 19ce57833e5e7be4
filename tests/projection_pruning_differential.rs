//! Needed-variable pruning against full execution and the rowwise oracle.
//!
//! A plan step binds only the variables something later reads, and a column
//! whose zone map already decides a page is not even pinned when nothing
//! reads it. None of that may change *which rows* a star produces:
//!
//! * **stars** — generated stars over RDF-H and the dirty-data generator
//!   (base exceptions, multi-valued and uncovered properties come with the
//!   data) × subsets of the star's variables as the needed set ×
//!   {no delta, pending inserts, tombstones, both} × {RDFscan, RDFjoin,
//!   IdxScan+MergeJoin} × workers {1, 3} on dense and sparse segments:
//!   the pruned evaluation is the full one with the other columns dropped —
//!   same rows, same order, same multiplicity — the full one is the rowwise
//!   oracle's table byte for byte, and the two access paths bind the same
//!   bag of rows;
//! * **plans** — two- and three-star RDF-H queries under every join strategy
//!   the executor has, each forced in a hand-built plan: whatever subset of
//!   the variables is selected (none at all for `COUNT(*)`), the answer is
//!   the all-variables answer projected, so every link variable lived
//!   exactly as long as a later step needed it;
//! * **one plan, two constants** — the plan cache abstracts constants, and
//!   whether a filter is pushed exactly or stays residual depends on them:
//!   a date bound and a numeric bound of one query shape answer correctly
//!   from one cached plan.

use proptest::prelude::*;
use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::parallel::{eval_star, eval_star_reading, ParallelConfig};
use sordf_engine::plan::{PhysicalPlan, PhysicalStep};
use sordf_engine::query::SelectItem;
use sordf_engine::star::{Star, StarProp};
use sordf_engine::{
    execute_physical, optimize, prepare, AggFunc, CmpOp, ExecConfig, ExecContext, Expr,
    JoinStrategy, Query, StarAccess, StorageRef, Table, TriplePattern, VarId, VarOrOid,
};
use sordf_model::{Dictionary, Oid, TermTriple, Triple};
use sordf_schema::{EmergentSchema, SchemaConfig};
use sordf_storage::{
    build_clustered, reorganize, ClusterSpec, ClusteredStore, DeltaStore, DeltaView, TripleSet,
};
use std::sync::{Arc, OnceLock};

/// One data set in one layout, with the delta views the cases draw from.
struct Rig {
    name: &'static str,
    _dm: Arc<DiskManager>,
    pool: BufferPool,
    dict: Dictionary,
    store: ClusteredStore,
    schema: EmergentSchema,
    /// Base triples in SPO order, and the distinct predicates among them.
    base: Vec<Triple>,
    preds: Vec<Oid>,
    /// No delta (twice: half the cases), pending inserts, tombstones, both.
    deltas: Vec<Option<Arc<DeltaView>>>,
}

fn build(name: &'static str, triples: &[TermTriple], dense: bool) -> Rig {
    let mut ts = TripleSet::new();
    ts.extend_terms(triples).unwrap();
    let dm = Arc::new(DiskManager::temp().unwrap());
    let spo = ts.sorted_spo();
    let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
    let spec = ClusterSpec::auto(&schema);
    let (store, base) = if dense {
        reorganize(&mut ts, &mut schema, &spec);
        let spo = ts.sorted_spo();
        (build_clustered(&dm, &spo, &mut schema, &spec, true), spo)
    } else {
        (build_clustered(&dm, &spo, &mut schema, &spec, false), spo)
    };
    let mut preds: Vec<Oid> = base.iter().map(|t| t.p).collect();
    preds.sort_unstable();
    preds.dedup();

    // Pending inserts: a second value beside a base one (an exception on a
    // row of the segment, or one more value of a multi-valued property) and
    // the same property on a subject far away (usually of another class).
    // Both touch the first two fifths of the subjects only, so that a
    // multi-page segment keeps pages without a dirty row.
    let touched = &base[..base.len() * 2 / 5];
    let value = Oid::from_int(777).unwrap();
    let inserts: Vec<Triple> = touched
        .iter()
        .step_by(211)
        .enumerate()
        .flat_map(|(k, t)| {
            let other = base[(k * 7919) % base.len()].s;
            [Triple::new(t.s, t.p, value), Triple::new(other, t.p, t.o)]
        })
        .collect();
    let tombstones: Vec<Triple> = touched.iter().step_by(167).copied().collect();
    let view = |ins: bool, del: bool| {
        let mut ds = DeltaStore::new();
        if ins {
            let _ = ds.insert_run(inserts.clone());
        }
        if del {
            let _ = ds.delete(&tombstones);
        }
        ds.current_view_arc()
    };
    let deltas = vec![
        None,
        None,
        None,
        view(true, false),
        view(false, true),
        view(true, true),
    ];
    Rig {
        name,
        pool: BufferPool::new(Arc::clone(&dm), 1024),
        _dm: dm,
        dict: ts.dict,
        store,
        schema,
        base,
        preds,
        deltas,
    }
}

fn rigs() -> &'static [Rig] {
    static RIGS: OnceLock<Vec<Rig>> = OnceLock::new();
    RIGS.get_or_init(|| {
        // Two pages of lineitems; a few hundred subjects per dirty class.
        let rdfh = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.002)).triples;
        let dirty = sordf_datagen::dirty(&sordf_datagen::DirtyConfig::with_irregularity(0.35, 300));
        vec![
            build("rdfh dense", &rdfh, true),
            build("rdfh sparse", &rdfh, false),
            build("dirty dense", &dirty, true),
            build("dirty sparse", &dirty, false),
        ]
    })
}

fn context<'a>(rig: &'a Rig, delta: usize, zonemaps: bool) -> ExecContext<'a> {
    ExecContext::new(
        &rig.pool,
        &rig.dict,
        StorageRef::Clustered {
            store: &rig.store,
            schema: &rig.schema,
        },
        ExecConfig {
            zonemaps,
            ..Default::default()
        },
    )
    .with_delta(rig.deltas[delta % rig.deltas.len()].clone())
}

fn three_workers() -> ParallelConfig {
    ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 16,
    }
}

/// A base object of `pred` — an actual value to compare with or to ask for.
fn some_object(rig: &Rig, pred: Oid, pick: usize) -> Oid {
    let of_pred: Vec<Oid> = rig
        .base
        .iter()
        .filter(|t| t.p == pred)
        .step_by(17)
        .map(|t| t.o)
        .collect();
    of_pred[pick % of_pred.len()]
}

/// A star over the properties of one class (`picks` choose them; one in four
/// also asks for a property from anywhere in the data: uncovered, or of
/// another class), the last object optionally a constant, plus a filter on
/// the first object variable in one of the pushdown statuses.
fn make_star(
    rig: &Rig,
    class_pick: usize,
    picks: &[usize],
    const_object: bool,
    filter_kind: u8,
) -> (Star, Vec<Expr>) {
    let class = &rig.schema.classes[class_pick % rig.schema.classes.len()];
    let mut class_preds: Vec<Oid> = class.columns.iter().map(|c| c.pred).collect();
    class_preds.extend(class.multi_props.iter().map(|m| m.pred));
    let mut preds: Vec<Oid> = Vec::new();
    for (k, &pick) in picks.iter().enumerate() {
        let from = if k > 0 && pick % 4 == 3 {
            &rig.preds
        } else {
            &class_preds
        };
        let p = from[pick % from.len()];
        if !preds.contains(&p) {
            preds.push(p);
        }
    }
    let n = preds.len();
    let props: Vec<StarProp> = preds
        .iter()
        .enumerate()
        .map(|(i, &pred)| StarProp {
            pred,
            o: if const_object && n > 1 && i == n - 1 {
                VarOrOid::Const(some_object(rig, pred, picks[0]))
            } else {
                VarOrOid::Var(VarId(i as u16 + 1))
            },
        })
        .collect();
    let v = Expr::Var(VarId(1));
    let c = some_object(rig, preds[0], picks[0] / 3);
    let filters = match filter_kind % 5 {
        // Pushed: exactly for a date or a string, confirmed by value for a
        // number (the raw range lets other numeric types through).
        1 => vec![Expr::cmp(v, CmpOp::Ge, Expr::Const(c))],
        // Never pushed.
        2 => vec![Expr::cmp(v, CmpOp::Ne, Expr::Const(c))],
        // Not `var CMP const`: always residual.
        3 => vec![Expr::cmp(v, CmpOp::Lt, Expr::Num(5000.0))],
        // On the subject and an object at once.
        4 => vec![Expr::cmp(v, CmpOp::Ne, Expr::Var(VarId(0)))],
        _ => Vec::new(),
    };
    (
        Star {
            subject_var: VarId(0),
            subject_const: None,
            props,
        },
        filters,
    )
}

/// `pruned` is `full` with the columns outside `pruned.vars` dropped: the
/// same rows in the same order, so also the same multiplicities.
fn assert_projection(what: &str, pruned: &Table, full: &Table, needed: &[VarId]) {
    for v in needed {
        assert!(pruned.vars.contains(v), "{what}: needed {v:?} not bound");
    }
    assert_eq!(pruned.len(), full.len(), "{what}: row count");
    for (v, col) in pruned.vars.iter().zip(&pruned.cols) {
        let fc = full.col_of(*v).unwrap_or_else(|| panic!("{what}: {v:?}"));
        assert!(col == &full.cols[fc], "{what}: column {v:?} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pruned_stars_are_full_stars_projected(
        rig_pick in 0usize..6,
        class_pick in 0usize..64,
        picks in proptest::collection::vec(0usize..1000, 1..5),
        const_object in any::<bool>(),
        filter_kind in 0u8..5,
        needed_mask in 0u32..64,
        delta in 0usize..6,
        zonemaps in any::<bool>(),
    ) {
        // RDF-H twice as often: its columns are complete, which is where a
        // zone map decides a page without a pin.
        let rig = &rigs()[[0, 0, 1, 1, 2, 3][rig_pick]];
        let (star, filters) = make_star(rig, class_pick, &picks, const_object, filter_kind);
        let filters: Vec<&Expr> = filters.iter().collect();
        let needed: Vec<VarId> = star
            .bound_vars()
            .into_iter()
            .filter(|v| needed_mask & (1 << v.0) != 0)
            .collect();
        let mut cx = context(rig, delta, zonemaps);
        // Every other subject of the first property drives the RDFjoin.
        let mut candidates: Vec<Oid> = rig
            .base
            .iter()
            .filter(|t| t.p == star.props[0].pred)
            .map(|t| t.s)
            .collect();
        candidates.dedup();
        let candidates: Vec<Oid> = candidates.into_iter().step_by(2).collect();

        let mut answers = Vec::new();
        for (access, cands) in [
            (StarAccess::RdfScan, None),
            (StarAccess::RdfScan, Some(&candidates[..])),
            (StarAccess::PropMerge, None),
            (StarAccess::PropMerge, Some(&candidates[..])),
        ] {
            let what = format!(
                "{} {access:?} cands={} delta={delta} zm={zonemaps} needed={needed:?} {star:?} {filters:?}",
                rig.name,
                cands.is_some()
            );
            let full = eval_star(&cx, &star, access, &filters, cands, None);
            cx.config.rowwise = true;
            let oracle = eval_star(&cx, &star, access, &filters, cands, None);
            cx.config.rowwise = false;
            prop_assert!(
                full.vars == oracle.vars && full.cols == oracle.cols,
                "{what}: kernels differ from the rowwise oracle"
            );
            let pruned = eval_star_reading(&cx, &star, access, &filters, cands, None, Some(&needed));
            assert_projection(&what, &pruned, &full, &needed);
            // Nothing but the needed variables and those of the star's own
            // filters is bound.
            let mut allowed = needed.clone();
            filters.iter().for_each(|f| f.vars(&mut allowed));
            prop_assert!(pruned.vars.iter().all(|v| allowed.contains(v)), "{what}: {:?}", pruned.vars);

            cx.parallel = three_workers();
            let pruned3 = eval_star_reading(&cx, &star, access, &filters, cands, None, Some(&needed));
            cx.parallel = ParallelConfig::with_workers(1);
            prop_assert!(
                pruned3.vars == pruned.vars && pruned3.cols == pruned.cols && pruned3.len() == pruned.len(),
                "{what}: three workers differ from one"
            );
            let mut rows: Vec<Vec<Oid>> = (0..full.len()).map(|i| full.row(i)).collect();
            rows.sort_unstable();
            answers.push(rows);
        }
        // The access path is a plan choice, never an answer: RDFscan and
        // IdxScan+MergeJoin bind the same bag of rows, on dirty data too.
        prop_assert!(answers[0] == answers[2], "{}: RDFscan and PropMerge differ", rig.name);
        prop_assert!(answers[1] == answers[3], "{}: RDFjoin and PropMerge differ", rig.name);
    }
}

// ---- plans ------------------------------------------------------------------

const RDFH: &str = sordf_rdfh::gen::NS;

/// lineitem → orders → customer, with a cross-star filter (`tail`) or not.
fn chain_query(dict: &Dictionary, stars: usize, tail: bool) -> Query {
    let mut q = Query::default();
    let pred = |name: &str| dict.iri_oid(&format!("{RDFH}{name}")).unwrap();
    let pat = |q: &mut Query, s: &str, p: &str, o: &str| {
        let (s, o) = (q.var(s), q.var(o));
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(s),
            p: pred(p),
            o: VarOrOid::Var(o),
        });
    };
    pat(&mut q, "li", "lineitem_orderkey", "o");
    pat(&mut q, "li", "lineitem_quantity", "qty");
    pat(&mut q, "li", "lineitem_shipdate", "ship");
    pat(&mut q, "o", "order_orderdate", "odate");
    pat(&mut q, "o", "order_custkey", "c");
    if stars > 2 {
        pat(&mut q, "c", "customer_nationkey", "n");
        pat(&mut q, "c", "customer_acctbal", "bal");
    }
    let qty = q.var("qty");
    q.filters.push(Expr::cmp(
        Expr::Var(qty),
        CmpOp::Le,
        Expr::Const(Oid::from_int(3).unwrap()),
    ));
    if tail {
        let (ship, odate) = (q.var("ship"), q.var("odate"));
        q.filters
            .push(Expr::cmp(Expr::Var(odate), CmpOp::Lt, Expr::Var(ship)));
    }
    q
}

/// Every way to join the chain's stars in `order`: per edge, each strategy
/// whose link variable the prefix binds (all of them join on every shared
/// variable, as the optimizer's plans do).
fn forced_plans(
    cx: &ExecContext,
    lp: &sordf_engine::LogicalPlan,
    order: &[usize],
    accesses: &[StarAccess],
) -> Vec<PhysicalPlan> {
    let template = optimize(cx, lp);
    let mut plans: Vec<Vec<PhysicalStep>> = vec![Vec::new()];
    let mut bound: Vec<VarId> = Vec::new();
    for (pos, &si) in order.iter().enumerate() {
        let star = &lp.stars[si];
        let vars = star.bound_vars();
        let join_vars: Vec<VarId> = vars.iter().copied().filter(|v| bound.contains(v)).collect();
        let mut joins = Vec::new();
        if pos == 0 {
            joins.push(JoinStrategy::Seed);
        } else if join_vars.is_empty() {
            joins.push(JoinStrategy::Cross);
        } else {
            for &var in &join_vars {
                joins.push(JoinStrategy::Hash { var });
                if var == star.subject_var {
                    joins.push(JoinStrategy::Candidates { var });
                    joins.push(JoinStrategy::SubjectRange { var });
                } else {
                    joins.push(JoinStrategy::ObjectRange { var });
                }
            }
        }
        let mut next = Vec::new();
        for prefix in &plans {
            for join in &joins {
                for &access in accesses {
                    let mut steps = prefix.clone();
                    steps.push(PhysicalStep {
                        star: si,
                        access,
                        join: join.clone(),
                        join_vars: join_vars.clone(),
                        est_star_rows: 1.0,
                        est_rows: 1.0,
                        cost: 1.0,
                    });
                    next.push(steps);
                }
            }
        }
        plans = next;
        bound.extend(vars);
    }
    plans
        .into_iter()
        .map(|steps| PhysicalPlan {
            steps,
            ..template.clone()
        })
        .collect()
}

#[test]
fn link_variables_live_as_long_as_needed() {
    let rig = &rigs()[0];
    let mut strategies_seen: Vec<&'static str> = Vec::new();
    for (stars, tail) in [(2, false), (2, true), (3, false), (3, true)] {
        for delta in [0, 5] {
            let cx = context(rig, delta, true);
            let all = chain_query(&rig.dict, stars, tail);
            let (q_all, lp) = prepare(&all);
            let all_vars = q_all.pattern_vars();
            // Both access paths under every strategy for two stars; the
            // strategies alone (over RDFscan) for three.
            let (orders, accesses): (Vec<Vec<usize>>, &[StarAccess]) = match stars {
                2 => (
                    vec![vec![0, 1], vec![1, 0]],
                    &[StarAccess::RdfScan, StarAccess::PropMerge],
                ),
                _ => (
                    vec![vec![0, 1, 2], vec![2, 1, 0], vec![1, 0, 2]],
                    &[StarAccess::RdfScan],
                ),
            };
            // Select lists: each star's subject and one of its objects
            // alone, two variables of different stars, all of them.
            let var = |name: &str| VarId(q_all.vars.iter().position(|v| v == name).unwrap() as u16);
            let mut selects: Vec<Vec<VarId>> = ["li", "o", "c", "qty", "odate"]
                .iter()
                .map(|n| vec![var(n)])
                .collect();
            selects.push(vec![var("ship"), *all_vars.last().unwrap()]);
            selects.push(all_vars.clone());
            for order in &orders {
                for plan in forced_plans(&cx, &lp, order, accesses) {
                    for st in &plan.steps {
                        if !strategies_seen.contains(&st.join.label()) {
                            strategies_seen.push(st.join.label());
                        }
                    }
                    let what = format!(
                        "{stars} stars tail={tail} delta={delta} {}",
                        plan.signature(&q_all.vars)
                    );
                    let full = execute_physical(&cx, &q_all, &lp, &plan, None);
                    for select in &selects {
                        let mut q = q_all.clone();
                        q.select = select.iter().map(|&v| SelectItem::Var(v)).collect();
                        let got = execute_physical(&cx, &q, &lp, &plan, None);
                        // The all-variables answer, projected.
                        let cols: Vec<usize> = select
                            .iter()
                            .map(|v| all_vars.iter().position(|a| a == v).unwrap())
                            .collect();
                        let mut want = sordf_engine::agg::ResultSet::new(got.columns.clone());
                        for row in full.rows() {
                            want.push_row(cols.iter().map(|&c| row[c].clone()));
                        }
                        assert_eq!(
                            got.canonical(&rig.dict),
                            want.canonical(&rig.dict),
                            "{what} select {select:?}"
                        );
                    }
                    // Nothing selected at all: the rows are still counted.
                    let mut q = q_all.clone();
                    q.select = vec![SelectItem::Agg {
                        func: AggFunc::Count,
                        expr: Expr::Num(1.0),
                        name: "n".into(),
                    }];
                    let counted = execute_physical(&cx, &q, &lp, &plan, None);
                    let n = counted
                        .rows()
                        .next()
                        .map_or(0.0, |r| r[0].as_f64().unwrap());
                    assert_eq!(n as usize, full.len(), "{what} COUNT(*)");
                }
            }
        }
    }
    for label in [
        "seed",
        "hash",
        "RDFjoin",
        "zm-subject-range",
        "zm-object-range",
    ] {
        assert!(strategies_seen.contains(&label), "{label} never forced");
    }

    // Disconnected stars: a cross join keeps what is read of either side.
    let cx = context(rig, 0, true);
    let mut q = Query::default();
    let pred = |name: &str| rig.dict.iri_oid(&format!("{RDFH}{name}")).unwrap();
    let (r, rn, n, nn) = (q.var("r"), q.var("rn"), q.var("n"), q.var("nn"));
    for (s, p, o) in [(r, "region_name", rn), (n, "nation_name", nn)] {
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(s),
            p: pred(p),
            o: VarOrOid::Var(o),
        });
    }
    let (q_all, lp) = prepare(&q);
    let plan = optimize(&cx, &lp);
    assert_eq!(plan.steps[1].join, JoinStrategy::Cross);
    let full = execute_physical(&cx, &q_all, &lp, &plan, None);
    assert_eq!(full.len(), 5 * 25);
    let mut only_nn = q_all.clone();
    only_nn.select = vec![SelectItem::Var(nn)];
    let got = execute_physical(&cx, &only_nn, &lp, &plan, None);
    let mut want = sordf_engine::agg::ResultSet::new(got.columns.clone());
    for row in full.rows() {
        want.push_row([row[3].clone()]);
    }
    assert_eq!(
        got.canonical(&rig.dict),
        want.canonical(&rig.dict),
        "cross join select ?nn"
    );
}

/// One query shape, two constant types: `?ship >= <date>` is pushed exactly
/// (no residual, `?ship` is not even read), `?ship >= <number>` stays
/// residual and makes the star bind `?ship`. The plan cache serves both from
/// one plan, so which variables a step binds cannot be part of the plan.
#[test]
fn one_cached_plan_serves_both_constant_types() {
    use sordf::{Database, QueryRequest};
    let data = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.002));
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data.triples).unwrap();
    db.self_organize().unwrap();
    let text = |bound: &str| {
        format!(
            "PREFIX rdfh: <{RDFH}>\nSELECT (COUNT(*) AS ?n) (SUM(?q) AS ?s) WHERE {{ \
             ?li rdfh:lineitem_shipdate ?ship . ?li rdfh:lineitem_quantity ?q . \
             FILTER(?ship >= {bound}) }}"
        )
    };
    let by_date = text("\"1996-01-01\"^^xsd:date");
    // An integer against the date column: pushed as a raw range and
    // confirmed by value.
    let by_number = text("\"17\"^^xsd:integer");
    let expected = |t: &str| {
        db.execute(&QueryRequest::sparql(t).config(ExecConfig {
            rowwise: true,
            ..Default::default()
        }))
        .unwrap()
        .results
        .render(&db.dict())
    };
    let (want_date, want_number) = (expected(&by_date), expected(&by_number));
    assert_ne!(want_date, want_number);
    assert_ne!(want_date[0][0], "0");

    for order in [[&by_date, &by_number], [&by_number, &by_date]] {
        let before = db.plan_cache_stats();
        let got: Vec<_> = order
            .iter()
            .map(|t| {
                db.execute(&QueryRequest::sparql(t.as_str()))
                    .unwrap()
                    .results
                    .render(&db.dict())
            })
            .collect();
        let after = db.plan_cache_stats();
        assert!(
            after.hits > before.hits && after.misses <= before.misses + 1,
            "the second constant is answered from the first one's plan"
        );
        let want: Vec<_> = order
            .iter()
            .map(|t| {
                if *t == &by_date {
                    &want_date
                } else {
                    &want_number
                }
            })
            .collect();
        assert_eq!(got[0], *want[0]);
        assert_eq!(got[1], *want[1]);
    }
    // The types decide the residual: the date bound leaves none.
    let dict = db.dict();
    for (t, residual) in [(&by_date, 0), (&by_number, 1)] {
        let q = sordf_sparql::parse_sparql(t, &dict).unwrap();
        let (_, lp) = prepare(&q);
        let (store, schema) = (db.clustered_store().unwrap(), db.schema().unwrap());
        let cx = ExecContext::new(
            db.buffer_pool(),
            &dict,
            StorageRef::Clustered {
                store: &store,
                schema: &schema,
            },
            ExecConfig::default(),
        );
        let refs: Vec<&Expr> = lp.filters.iter().collect();
        let left = sordf_engine::star::residual_filters(&cx, &lp.stars[0], &refs);
        assert_eq!(left.len(), residual, "{t}");
    }
}
