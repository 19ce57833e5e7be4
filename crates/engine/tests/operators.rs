//! Operator-level unit tests: aggregation/finalization, ordering, the
//! cardinality estimators and plan explanation — exercised through small
//! hand-built stores.

use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::agg::{cmp_outval, finalize, OutVal};
use sordf_engine::cardest::{estimate_star_cs, estimate_star_independence};
use sordf_engine::query::OrderKey;
use sordf_engine::star::{stars_of, Pushdown};
use sordf_engine::{
    execute, explain, AggFunc, CmpOp, ExecConfig, ExecContext, Expr, PlanScheme, Query, SelectItem,
    StorageRef, Table, TriplePattern, VarId, VarOrOid,
};
use sordf_model::{Dictionary, Oid, Term, TermTriple};
use sordf_schema::SchemaConfig;
use sordf_storage::{build_clustered, reorganize, ClusterSpec, TripleSet};
use std::sync::Arc;

struct Fix {
    _dm: Arc<DiskManager>,
    pool: BufferPool,
    ts: TripleSet,
    store: sordf_storage::ClusteredStore,
    schema: sordf_schema::EmergentSchema,
}

/// 60 products with group/price/stock; 6 groups.
fn fixture() -> Fix {
    let mut ts = TripleSet::new();
    for i in 0..60u64 {
        let s = format!("http://e/prod{i}");
        let mut add = |p: &str, o: Term| {
            ts.add(&TermTriple::new(
                Term::iri(s.clone()),
                Term::iri(format!("http://e/{p}")),
                o,
            ))
            .unwrap();
        };
        add("group", Term::str(format!("g{}", i % 6)));
        add("price", Term::int((i % 10) as i64 * 5));
        add("stock", Term::int(i as i64));
    }
    let dm = Arc::new(DiskManager::temp().unwrap());
    let spo = ts.sorted_spo();
    let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
    let spec = ClusterSpec::auto(&schema);
    reorganize(&mut ts, &mut schema, &spec);
    let spo = ts.sorted_spo();
    let store = build_clustered(&dm, &spo, &mut schema, &spec, true);
    let pool = BufferPool::new(Arc::clone(&dm), 256);
    Fix {
        _dm: dm,
        pool,
        ts,
        store,
        schema,
    }
}

fn cx(f: &Fix) -> ExecContext<'_> {
    ExecContext::new(
        &f.pool,
        &f.ts.dict,
        StorageRef::Clustered {
            store: &f.store,
            schema: &f.schema,
        },
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: true,
            ..Default::default()
        },
    )
}

fn base_query(f: &Fix) -> Query {
    let mut q = Query::default();
    let s = q.var("s");
    let g = q.var("g");
    let p = q.var("p");
    let pred = |name: &str| f.ts.dict.iri_oid(&format!("http://e/{name}")).unwrap();
    q.patterns.push(TriplePattern {
        s: VarOrOid::Var(s),
        p: pred("group"),
        o: VarOrOid::Var(g),
    });
    q.patterns.push(TriplePattern {
        s: VarOrOid::Var(s),
        p: pred("price"),
        o: VarOrOid::Var(p),
    });
    q
}

#[test]
fn group_by_with_all_aggregates() {
    let f = fixture();
    let mut q = base_query(&f);
    let g = q.var("g");
    let p = q.var("p");
    q.select = vec![
        SelectItem::Var(g),
        SelectItem::Agg {
            func: AggFunc::Count,
            expr: Expr::Num(1.0),
            name: "n".into(),
        },
        SelectItem::Agg {
            func: AggFunc::Sum,
            expr: Expr::Var(p),
            name: "sum".into(),
        },
        SelectItem::Agg {
            func: AggFunc::Avg,
            expr: Expr::Var(p),
            name: "avg".into(),
        },
        SelectItem::Agg {
            func: AggFunc::Min,
            expr: Expr::Var(p),
            name: "min".into(),
        },
        SelectItem::Agg {
            func: AggFunc::Max,
            expr: Expr::Var(p),
            name: "max".into(),
        },
    ];
    q.group_by = vec![g];
    q.order_by = vec![OrderKey {
        output: 0,
        ascending: true,
    }];
    let rs = execute(&cx(&f), &q);
    assert_eq!(rs.len(), 6);
    let rows = rs.render(&f.ts.dict);
    // Group g0 holds products 0,6,12,...,54: prices (i%10)*5.
    assert_eq!(rows[0][0], "g0");
    assert_eq!(rows[0][1], "10");
    let avg: f64 = rows[0][3].parse().unwrap();
    let min: f64 = rows[0][4].parse().unwrap();
    let max: f64 = rows[0][5].parse().unwrap();
    assert!(min <= avg && avg <= max);
}

#[test]
fn order_by_desc_with_limit() {
    let f = fixture();
    let mut q = base_query(&f);
    let p = q.var("p");
    let s = q.var("s");
    q.select = vec![SelectItem::Var(s), SelectItem::Var(p)];
    q.order_by = vec![OrderKey {
        output: 1,
        ascending: false,
    }];
    q.limit = Some(5);
    let rs = execute(&cx(&f), &q);
    assert_eq!(rs.len(), 5);
    let prices: Vec<f64> = rs
        .render(&f.ts.dict)
        .iter()
        .map(|r| r[1].parse().unwrap())
        .collect();
    assert!(prices.windows(2).all(|w| w[0] >= w[1]));
    assert_eq!(prices[0], 45.0);
}

#[test]
fn global_aggregate_without_group_by() {
    let f = fixture();
    let mut q = base_query(&f);
    let p = q.var("p");
    q.select = vec![SelectItem::Agg {
        func: AggFunc::Count,
        expr: Expr::Var(p),
        name: "n".into(),
    }];
    let rs = execute(&cx(&f), &q);
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.render(&f.ts.dict)[0][0], "60");
}

#[test]
fn select_expression_projection() {
    let f = fixture();
    let mut q = base_query(&f);
    let p = q.var("p");
    q.select = vec![SelectItem::Expr {
        expr: Expr::Arith(
            Box::new(Expr::Var(p)),
            sordf_engine::expr::ArithOp::Mul,
            Box::new(Expr::Num(2.0)),
        ),
        name: "double_price".into(),
    }];
    q.distinct = true;
    let rs = execute(&cx(&f), &q);
    assert_eq!(rs.columns, vec!["double_price"]);
    assert_eq!(rs.len(), 10);
}

#[test]
fn outval_ordering_null_last_and_strings_textual() {
    let dict = Dictionary::new();
    let zebra = dict.encode_term(&Term::str("zebra")).unwrap();
    let apple = dict.encode_term(&Term::str("apple")).unwrap();
    assert_eq!(
        cmp_outval(&OutVal::Oid(apple), &OutVal::Oid(zebra), &dict),
        std::cmp::Ordering::Less
    );
    assert_eq!(
        cmp_outval(&OutVal::Null, &OutVal::Num(1.0), &dict),
        std::cmp::Ordering::Greater
    );
    assert_eq!(
        cmp_outval(
            &OutVal::Num(2.0),
            &OutVal::Oid(Oid::from_int(3).unwrap()),
            &dict
        ),
        std::cmp::Ordering::Less
    );
}

#[test]
fn finalize_on_empty_table_yields_no_rows() {
    let f = fixture();
    let mut q = base_query(&f);
    let p = q.var("p");
    q.select = vec![SelectItem::Var(p)];
    let rs = finalize(&cx(&f), &q, &Table::default());
    assert!(rs.is_empty());
    assert_eq!(rs.columns.len(), 1);
}

#[test]
fn cs_estimate_beats_independence_on_correlated_star() {
    let f = fixture();
    let mut q = base_query(&f);
    let (stars, _) = stars_of(&mut q);
    let c = cx(&f);
    let truth = 60.0;
    let pd = Pushdown::new(&c, &stars[0], &[]);
    let cs = estimate_star_cs(&c, &stars[0], &pd).unwrap();
    let ind = estimate_star_independence(&c, &stars[0], &pd);
    let qerr = |e: f64| (e.max(1.0) / truth).max(truth / e.max(1.0));
    assert!(
        qerr(cs) <= qerr(ind) + 1e-9,
        "CS estimate ({cs}) should not be worse than independence ({ind})"
    );
    assert!(
        qerr(cs) < 1.05,
        "CS estimate should be nearly exact, got {cs}"
    );
}

#[test]
fn estimate_accounts_for_filters() {
    let f = fixture();
    let mut q = base_query(&f);
    let p = q.var("p");
    let (stars, _) = stars_of(&mut q);
    let c = cx(&f);
    let unfiltered = estimate_star_cs(&c, &stars[0], &Pushdown::new(&c, &stars[0], &[])).unwrap();
    let filter = Expr::cmp(
        Expr::Var(p),
        CmpOp::Eq,
        Expr::Const(Oid::from_int(5).unwrap()),
    );
    let refs = vec![&filter];
    let pd = Pushdown::new(&c, &stars[0], &refs);
    let filtered = estimate_star_cs(&c, &stars[0], &pd).unwrap();
    assert!(filtered < unfiltered, "{filtered} !< {unfiltered}");
}

#[test]
fn explain_structure() {
    let f = fixture();
    let q = base_query(&f);
    let c = cx(&f);
    let plan = explain(&c, &q);
    assert_eq!(plan.n_stars, 1);
    assert_eq!(plan.intra_star_joins, 0);
    assert!(plan.text.contains("RDFscan"));
    assert_eq!(plan.estimates.len(), 1);

    let c2 = ExecContext::new(
        &f.pool,
        &f.ts.dict,
        StorageRef::Clustered {
            store: &f.store,
            schema: &f.schema,
        },
        ExecConfig {
            scheme: PlanScheme::Default,
            zonemaps: false,
            ..Default::default()
        },
    );
    let plan2 = explain(&c2, &q);
    assert_eq!(plan2.intra_star_joins, 1, "2 patterns -> 1 merge join");
    assert!(plan2.text.contains("IdxScan"));
}

#[test]
fn duplicate_object_vars_are_rewritten_not_lost() {
    // ?s group ?x . ?s price ?x — same var twice in one star: must compare.
    let f = fixture();
    let mut q = Query::default();
    let s = q.var("s");
    let x = q.var("x");
    let pred = |name: &str| f.ts.dict.iri_oid(&format!("http://e/{name}")).unwrap();
    q.patterns.push(TriplePattern {
        s: VarOrOid::Var(s),
        p: pred("price"),
        o: VarOrOid::Var(x),
    });
    q.patterns.push(TriplePattern {
        s: VarOrOid::Var(s),
        p: pred("stock"),
        o: VarOrOid::Var(x),
    });
    let rs = execute(&cx(&f), &q);
    // price == stock requires (i%10)*5 == i: i in {0, 45} -> 45*? check:
    // i=0: price 0, stock 0 ✓; i=45: price (45%10)*5=25, stock 45 ✗.
    // i must satisfy i == (i%10)*5: i=0 ✓, i=5 -> 25≠5, i=25: price 25, stock 25 ✓
    let expected = (0..60u64).filter(|i| (i % 10) * 5 == *i).count();
    assert_eq!(rs.len(), expected);
    assert!(expected >= 2, "fixture should have matches (0 and 25)");
}

#[test]
fn cross_star_join_uses_all_shared_vars() {
    // Two stars sharing BOTH the subject-link var ?t and a second var ?s
    // (star B points back at star A's subject). Joining on ?t alone — the
    // old single-link behavior — would admit the poison row t1 -back-> s2.
    let mut ts = TripleSet::new();
    let mut add = |s: &str, p: &str, o: Term| {
        ts.add(&TermTriple::new(
            Term::iri(format!("http://e/{s}")),
            Term::iri(format!("http://e/{p}")),
            o,
        ))
        .unwrap();
    };
    let iri = |n: &str| Term::iri(format!("http://e/{n}"));
    add("s1", "knows", iri("t1"));
    add("s1", "val", Term::int(1));
    add("s2", "knows", iri("t2"));
    add("s2", "val", Term::int(2));
    add("t1", "back", iri("s1"));
    add("t1", "back", iri("s2")); // matches on ?t but not ?s: must be dropped
    add("t1", "tag", Term::str("X"));
    add("t2", "back", iri("s2"));
    add("t2", "tag", Term::str("Y"));

    let dm = Arc::new(DiskManager::temp().unwrap());
    let spo = ts.sorted_spo();
    let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
    let spec = ClusterSpec::auto(&schema);
    let store = build_clustered(&dm, &spo, &mut schema, &spec, false);
    let pool = BufferPool::new(Arc::clone(&dm), 64);

    let mut q = Query::default();
    let s = q.var("s");
    let t = q.var("t");
    let v = q.var("v");
    let g = q.var("g");
    let pred = |name: &str| ts.dict.iri_oid(&format!("http://e/{name}")).unwrap();
    for (sv, p, ov) in [
        (s, "knows", t),
        (s, "val", v),
        (t, "back", s),
        (t, "tag", g),
    ] {
        q.patterns.push(TriplePattern {
            s: VarOrOid::Var(sv),
            p: pred(p),
            o: VarOrOid::Var(ov),
        });
    }

    for scheme in [PlanScheme::Default, PlanScheme::RdfScanJoin] {
        let cx = ExecContext::new(
            &pool,
            &ts.dict,
            StorageRef::Clustered {
                store: &store,
                schema: &schema,
            },
            ExecConfig {
                scheme,
                zonemaps: true,
                ..Default::default()
            },
        );
        let rs = execute(&cx, &q);
        assert_eq!(
            rs.len(),
            2,
            "{scheme:?}: only mutually-consistent (s,t) pairs survive"
        );
        let rows = rs.canonical(&ts.dict);
        assert!(rows.iter().any(|r| r.contains("s1") && r.contains("X")));
        assert!(rows.iter().any(|r| r.contains("s2") && r.contains("Y")));
        assert!(
            !rows.iter().any(|r| r.contains("s2") && r.contains("X")),
            "{scheme:?}: poison row joined on ?t only"
        );
    }
}

#[test]
fn var_id_layout_is_stable() {
    assert_eq!(std::mem::size_of::<VarId>(), 2);
    assert_eq!(std::mem::size_of::<VarOrOid>(), 16);
}
