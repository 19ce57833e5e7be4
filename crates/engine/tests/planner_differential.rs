//! Optimizer differential: the cost-based plan picked by
//! [`sordf_engine::optimize`] must return results **canonically identical**
//! to every forced star-order permutation ([`optimize_with_order`]), across
//! one-worker, multi-worker, and value-at-a-time execution, both plan
//! schemes, every storage generation, and with or without pending delta
//! writes. Cost-based planning is a pure choice among equivalent plans —
//! never a semantic change. Over a family of chained RDF-H stars the pick
//! must also stay within 1.5× the cheapest order's cost.

use proptest::prelude::*;
use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::parallel::ParallelConfig;
use sordf_engine::star::apply_filters;
use sordf_engine::{
    eval_star, execute_physical, optimize, optimize_with_order, prepare, CmpOp, ExecConfig,
    ExecContext, Expr, PlanScheme, Query, StorageRef, TriplePattern, VarOrOid,
};
use sordf_model::{Oid, Term, TermTriple, Triple};
use sordf_schema::SchemaConfig;
use sordf_storage::{
    build_clustered, reorganize, BaselineStore, ClusterSpec, DeltaStore, TripleSet,
};
use std::sync::Arc;

/// A random mostly-regular graph with two entity kinds (subjects and tags)
/// so multi-star queries have real foreign-key links, plus irregular noise.
fn arb_graph() -> impl Strategy<Value = Vec<TermTriple>> {
    (
        2usize..30,
        proptest::collection::vec((0u32..5, 0u8..3), 0..40),
    )
        .prop_map(|(n, noise)| {
            let mut triples = Vec::new();
            for t in 0..3u64 {
                triples.push(TermTriple::new(
                    Term::iri(format!("http://t/tag{t}")),
                    Term::iri("http://t/label"),
                    Term::int(t as i64 * 11),
                ));
            }
            for i in 0..n as u64 {
                let s = Term::iri(format!("http://t/s{i}"));
                triples.push(TermTriple::new(
                    s.clone(),
                    Term::iri("http://t/qty"),
                    Term::int((i % 13) as i64),
                ));
                if i % 4 != 0 {
                    triples.push(TermTriple::new(
                        s.clone(),
                        Term::iri("http://t/price"),
                        Term::int((i % 7) as i64 * 10),
                    ));
                }
                triples.push(TermTriple::new(
                    s,
                    Term::iri("http://t/tag"),
                    Term::iri(format!("http://t/tag{}", i % 3)),
                ));
            }
            for (si, quirk) in noise {
                let s = Term::iri(format!("http://t/s{}", si as u64 % n as u64));
                match quirk {
                    0 => triples.push(TermTriple::new(
                        s,
                        Term::iri("http://t/qty"),
                        Term::str("exception"),
                    )),
                    1 => triples.push(TermTriple::new(
                        s,
                        Term::iri("http://t/tag"),
                        Term::iri(format!("http://t/tag{}", si % 3)),
                    )),
                    _ => triples.push(TermTriple::new(
                        s,
                        Term::iri("http://t/rare"),
                        Term::int(si as i64),
                    )),
                }
            }
            triples
        })
}

struct Gen {
    _dm: Arc<DiskManager>,
    pool: BufferPool,
    dict: sordf_model::Dictionary,
    baseline: BaselineStore,
    sparse: sordf_storage::ClusteredStore,
    sparse_schema: sordf_schema::EmergentSchema,
    dense: sordf_storage::ClusteredStore,
    dense_schema: sordf_schema::EmergentSchema,
    dense_dict: sordf_model::Dictionary,
}

fn build(triples: &[TermTriple]) -> Gen {
    let mut ts = TripleSet::new();
    ts.extend_terms(triples).unwrap();
    let dm = Arc::new(DiskManager::temp().unwrap());
    let spo = ts.sorted_spo();
    let baseline = BaselineStore::build(&dm, &spo);
    let mut sparse_schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
    let spec = ClusterSpec::auto(&sparse_schema);
    let sparse = build_clustered(&dm, &spo, &mut sparse_schema, &spec, false);
    let dict = ts.dict.clone();

    let mut dense_schema = sparse_schema.clone();
    reorganize(&mut ts, &mut dense_schema, &spec);
    let spo = ts.sorted_spo();
    let dense = build_clustered(&dm, &spo, &mut dense_schema, &spec, true);
    let pool = BufferPool::new(Arc::clone(&dm), 512);
    Gen {
        _dm: dm,
        pool,
        dict,
        baseline,
        sparse,
        sparse_schema,
        dense,
        dense_schema,
        dense_dict: ts.dict,
    }
}

fn contexts<'a>(
    g: &'a Gen,
    scheme: PlanScheme,
    zonemaps: bool,
) -> Vec<(&'static str, ExecContext<'a>, &'a sordf_model::Dictionary)> {
    let mk = |storage, dict| {
        ExecContext::new(
            &g.pool,
            dict,
            storage,
            ExecConfig {
                scheme,
                zonemaps,
                ..Default::default()
            },
        )
    };
    vec![
        (
            "baseline",
            mk(StorageRef::Baseline(&g.baseline), &g.dict),
            &g.dict,
        ),
        (
            "sparse-cs",
            mk(
                StorageRef::Clustered {
                    store: &g.sparse,
                    schema: &g.sparse_schema,
                },
                &g.dict,
            ),
            &g.dict,
        ),
        (
            "dense-cs",
            mk(
                StorageRef::Clustered {
                    store: &g.dense,
                    schema: &g.dense_schema,
                },
                &g.dense_dict,
            ),
            &g.dense_dict,
        ),
    ]
}

/// A pending write batch for one generation's dictionary: a fresh subject
/// with the regular star, plus one extra `qty` on an existing subject.
/// Returns `None` for dictionaries missing the needed OIDs.
fn delta_for(dict: &sordf_model::Dictionary) -> Option<DeltaStore> {
    let p = |n: &str| dict.iri_oid(&format!("http://t/{n}"));
    let s0 = dict.iri_oid("http://t/s0")?;
    let tag0 = dict.iri_oid("http://t/tag0")?;
    let qty = p("qty")?;
    let tag = p("tag")?;
    let mut ds = DeltaStore::new();
    let _ = ds.insert_run(vec![
        Triple {
            s: s0,
            p: qty,
            o: Oid::from_int(99).unwrap(),
        },
        Triple {
            s: tag0,
            p: tag,
            o: Oid::from_int(7).unwrap(),
        },
    ]);
    Some(ds)
}

/// A chained multi-star BGP: the subject star (1-3 props), optionally the
/// tag star reached through `?s tag ?t`, with a range filter on qty.
fn make_query(dict: &sordf_model::Dictionary, width: usize, link: bool, lo: i64) -> Option<Query> {
    let mut q = Query::default();
    let s = q.var("s");
    let preds = ["qty", "price", "date"];
    for p in preds.iter().take(width) {
        let oid = dict.iri_oid(&format!("http://t/{p}"))?;
        let v = q.var(&format!("o_{p}"));
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(s),
            p: oid,
            o: VarOrOid::Var(v),
        });
    }
    if link {
        let tag = dict.iri_oid("http://t/tag")?;
        let label = dict.iri_oid("http://t/label")?;
        let t = q.var("t");
        let l = q.var("l");
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(s),
            p: tag,
            o: VarOrOid::Var(t),
        });
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(t),
            p: label,
            o: VarOrOid::Var(l),
        });
    }
    let qty = q.var("o_qty");
    q.filters.push(Expr::cmp(
        Expr::Var(qty),
        CmpOp::Ge,
        Expr::Const(Oid::from_int(lo).unwrap()),
    ));
    Some(q)
}

/// `?s pred ?o` over an RDF-H predicate: (subject variable, local name,
/// object variable).
type Pattern = (&'static str, &'static str, &'static str);

/// A BGP over RDF-H predicates, optionally filtered to lineitems shipped on
/// or after a date. Every variable is selected.
fn rdfh_query(dict: &sordf_model::Dictionary, bgp: &[Pattern], since: &str) -> Query {
    let mut q = Query::default();
    for &(s, p, o) in bgp {
        let (s, o) = (q.var(s), q.var(o));
        let p = dict
            .iri_oid(&format!("{}{p}", sordf_rdfh::gen::NS))
            .unwrap_or_else(|| panic!("no predicate {p}"));
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(s),
            p,
            o: VarOrOid::Var(o),
        });
    }
    if !since.is_empty() {
        let sd = q.var("sd");
        let day = dict.term_oid(&Term::date(since)).expect("inline date");
        q.filters
            .push(Expr::cmp(Expr::Var(sd), CmpOp::Ge, Expr::Const(day)));
    }
    q
}

/// The chained-star family over RDF-H — walks up lineitem → order →
/// customer → nation, the same walk through fresh variables (what `/`
/// sequence paths desugar to), a date-filtered chain and a chain of wide
/// stars. The optimizer's pick must cost at most 1.5× the cheapest forced
/// star order on at least 90 % of the family, and every forced order must
/// return the pick's answer.
#[test]
fn chosen_plans_stay_near_the_best_order_on_the_rdfh_chain_family() {
    let data = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.001));
    let g = build(&data.triples);
    let family: [(&str, &[Pattern], &str); 6] = [
        (
            "chain2",
            &[
                ("li", "lineitem_orderkey", "o"),
                ("li", "lineitem_quantity", "q"),
                ("o", "order_orderdate", "od"),
            ],
            "",
        ),
        (
            "chain3",
            &[
                ("li", "lineitem_orderkey", "o"),
                ("li", "lineitem_extendedprice", "p"),
                ("o", "order_custkey", "c"),
                ("c", "customer_mktsegment", "seg"),
            ],
            "",
        ),
        (
            "chain4",
            &[
                ("li", "lineitem_orderkey", "o"),
                ("li", "lineitem_quantity", "q"),
                ("o", "order_custkey", "c"),
                ("c", "customer_nationkey", "n"),
                ("n", "nation_name", "nname"),
            ],
            "",
        ),
        (
            "path4",
            &[
                ("li", "lineitem_orderkey", "_p1"),
                ("_p1", "order_custkey", "_p2"),
                ("_p2", "customer_nationkey", "n"),
                ("n", "nation_name", "nname"),
            ],
            "",
        ),
        (
            "chain3_filter",
            &[
                ("li", "lineitem_orderkey", "o"),
                ("li", "lineitem_quantity", "q"),
                ("li", "lineitem_shipdate", "sd"),
                ("o", "order_orderdate", "od"),
            ],
            "1995-01-01",
        ),
        (
            "wide_star",
            &[
                ("li", "lineitem_orderkey", "o"),
                ("li", "lineitem_quantity", "q"),
                ("li", "lineitem_extendedprice", "p"),
                ("li", "lineitem_discount", "d"),
                ("o", "order_custkey", "c"),
                ("o", "order_orderdate", "od"),
                ("c", "customer_nationkey", "n"),
            ],
            "",
        ),
    ];
    // The two CS layouts, where the order decides between RDFscan, RDFjoin
    // and pushdown per edge.
    for (ctx, cx, dict) in contexts(&g, PlanScheme::RdfScanJoin, true) {
        if ctx == "baseline" {
            continue;
        }
        let mut within = 0;
        for (name, bgp, since) in family {
            let (q, lp) = prepare(&rdfh_query(dict, bgp, since));
            let pp = optimize(&cx, &lp);
            let chosen = execute_physical(&cx, &q, &lp, &pp, None).canonical(dict);
            assert!(!chosen.is_empty(), "{name} on {ctx} found nothing");
            let mut best = f64::INFINITY;
            for perm in permutations(lp.stars.len()) {
                let forced = optimize_with_order(&cx, &lp, &perm);
                best = best.min(forced.total_cost);
                let rs = execute_physical(&cx, &q, &lp, &forced, None);
                assert_eq!(
                    rs.canonical(dict),
                    chosen,
                    "{name} on {ctx}: forced order {perm:?} diverged"
                );
            }
            if pp.total_cost <= best * 1.5 {
                within += 1;
            }
        }
        assert!(
            within * 10 >= family.len() * 9,
            "{ctx}: the pick is within 1.5x the best order on only {within}/{} queries",
            family.len()
        );
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
        if k == items.len() {
            out.push(items.clone());
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            rec(items, k + 1, out);
            items.swap(k, i);
        }
    }
    let mut items: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    rec(&mut items, 0, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimizer_plan_matches_every_forced_order(
        triples in arb_graph(),
        width in 1usize..4,
        link in any::<bool>(),
        lo in 0i64..12,
        zonemaps in any::<bool>(),
        scheme_pick in any::<bool>(),
        with_delta in any::<bool>(),
    ) {
        let g = build(&triples);
        let scheme = if scheme_pick { PlanScheme::RdfScanJoin } else { PlanScheme::Default };
        for (name, mut cx, dict) in contexts(&g, scheme, zonemaps) {
            let delta = if with_delta {
                let Some(ds) = delta_for(dict) else { continue };
                ds.current_view_arc()
            } else {
                None
            };
            cx = cx.with_delta(delta);
            let Some(q) = make_query(dict, width, link, lo) else { continue };
            let (q, lp) = prepare(&q);

            // The optimizer's pick: one worker, the rowwise reference
            // operators, and three workers — all on the same plan.
            let pp = optimize(&cx, &lp);

            // The filter-ownership rule, on the unpruned form: every star
            // enforces the filters it binds — pushed or residual, on either
            // access path, pending writes or not — so applying all of them
            // again to its all-variables table removes no row. (This is
            // what lets the tail of a plan apply cross-star filters only.)
            let filters: Vec<&Expr> = lp.filters.iter().collect();
            for step in &pp.steps {
                let star = &lp.stars[step.star];
                let mut table = eval_star(&cx, star, step.access, &filters, None, None);
                let bound = table.len();
                apply_filters(&cx, &mut table, &filters);
                prop_assert_eq!(
                    table.len(), bound,
                    "star {} left a filter unenforced on {} ({:?}, zm={}, delta={})",
                    step.star, name, scheme, zonemaps, with_delta
                );
            }
            let chosen = execute_physical(&cx, &q, &lp, &pp, None).canonical(dict);
            cx.config.rowwise = true;
            let row = execute_physical(&cx, &q, &lp, &pp, None);
            cx.config.rowwise = false;
            prop_assert_eq!(
                &chosen, &row.canonical(dict),
                "optimizer plan: sequential vs rowwise on {} ({:?}, zm={}, delta={})",
                name, scheme, zonemaps, with_delta
            );
            cx.parallel = ParallelConfig { workers: 3, min_morsel_pages: 1, min_morsel_rows: 1 };
            let par_rs = execute_physical(&cx, &q, &lp, &pp, None);
            cx.parallel = ParallelConfig::with_workers(1);
            prop_assert_eq!(
                &chosen, &par_rs.canonical(dict),
                "optimizer plan: sequential vs parallel on {} ({:?}, zm={}, delta={})",
                name, scheme, zonemaps, with_delta
            );

            // Every forced star-order permutation must agree with the pick —
            // and the optimizer's cost must be the minimum over all orders.
            let mut best_forced = f64::INFINITY;
            for perm in permutations(lp.stars.len()) {
                let forced = optimize_with_order(&cx, &lp, &perm);
                best_forced = best_forced.min(forced.total_cost);
                let rs = execute_physical(&cx, &q, &lp, &forced, None);
                prop_assert_eq!(
                    &chosen, &rs.canonical(dict),
                    "forced order {:?} diverged on {} ({:?}, zm={}, delta={})",
                    perm, name, scheme, zonemaps, with_delta
                );
            }
            prop_assert!(
                pp.total_cost <= best_forced * (1.0 + 1e-9),
                "optimizer cost {} above best forced order {} on {}",
                pp.total_cost, best_forced, name
            );
        }
    }
}
