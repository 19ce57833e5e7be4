//! Worker-count differential: the morsel executor in
//! `sordf_engine::parallel` must return **byte-identical** results on
//! several workers and on one (the sequential path) — and both must agree
//! with the value-at-a-time reference operators in `sordf_engine::rowwise`,
//! the independent implementation — on arbitrary RDF data, across every
//! storage generation, plan scheme, and worker count. The worker count is a
//! pure scheduling choice, never a semantic one.

use proptest::prelude::*;
use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::parallel::ParallelConfig;
use sordf_engine::{
    execute, AggFunc, CmpOp, ExecConfig, ExecContext, Expr, PlanScheme, Query, SelectItem,
    StorageRef, TriplePattern, VarOrOid,
};
use sordf_model::{Oid, Term, TermTriple};
use sordf_schema::SchemaConfig;
use sordf_storage::{build_clustered, reorganize, BaselineStore, ClusterSpec, TripleSet};
use std::sync::Arc;

/// A random mostly-regular graph: `n` subjects over a small property pool,
/// with NULLs, multi-values, type exceptions, and a second entity kind
/// (tags, with their own `label` property) so cross-star links exercise
/// RDFjoin's candidate-driven path.
fn arb_graph() -> impl Strategy<Value = Vec<TermTriple>> {
    (
        2usize..40,                                          // subjects
        proptest::collection::vec((0u32..5, 0u8..4), 0..60), // (subject, quirk) noise
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
                    s.clone(),
                    Term::iri("http://t/date"),
                    Term::date(&format!("1996-{:02}-{:02}", (i % 12) + 1, (i % 28) + 1)),
                ));
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
                    2 => triples.push(TermTriple::new(
                        s,
                        Term::iri("http://t/rare"),
                        Term::int(si as i64),
                    )),
                    _ => triples.push(TermTriple::new(
                        Term::iri(format!("http://t/odd{si}")),
                        Term::iri("http://t/zzz"),
                        Term::str(format!("x{si}")),
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

/// A star query over subject props, optionally linked to the tag star
/// (cross-star hash join driving RDFjoin), optionally aggregated.
fn make_query(
    dict: &sordf_model::Dictionary,
    width: usize,
    link: bool,
    agg: bool,
    lo: i64,
) -> Option<Query> {
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
    // A pushable range filter on qty.
    let qty = q.var("o_qty");
    q.filters.push(Expr::cmp(
        Expr::Var(qty),
        CmpOp::Ge,
        Expr::Const(Oid::from_int(lo).unwrap()),
    ));
    if agg {
        q.select = vec![
            SelectItem::Agg {
                func: AggFunc::Count,
                expr: Expr::Var(s),
                name: "n".into(),
            },
            SelectItem::Agg {
                func: AggFunc::Sum,
                expr: Expr::Var(qty),
                name: "sum".into(),
            },
            SelectItem::Agg {
                func: AggFunc::Avg,
                expr: Expr::Var(qty),
                name: "avg".into(),
            },
            SelectItem::Agg {
                func: AggFunc::Min,
                expr: Expr::Var(qty),
                name: "min".into(),
            },
            SelectItem::Agg {
                func: AggFunc::Max,
                expr: Expr::Var(qty),
                name: "max".into(),
            },
        ];
    }
    Some(q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn parallel_execution_matches_sequential_and_rowwise(
        triples in arb_graph(),
        width in 1usize..4,
        link in any::<bool>(),
        agg in any::<bool>(),
        lo in 0i64..12,
        zonemaps in any::<bool>(),
        scheme_pick in any::<bool>(),
    ) {
        let g = build(&triples);
        let scheme = if scheme_pick { PlanScheme::RdfScanJoin } else { PlanScheme::Default };
        for (name, mut cx, dict) in contexts(&g, scheme, zonemaps) {
            let Some(q) = make_query(dict, width, link, agg, lo) else { continue };
            let seq = execute(&cx, &q);
            // The value-at-a-time reference operators, on the same plan.
            cx.config.rowwise = true;
            let row = execute(&cx, &q);
            cx.config.rowwise = false;
            prop_assert_eq!(
                seq.canonical(dict), row.canonical(dict),
                "sequential vs rowwise on {} ({:?}, zm={})", name, scheme, zonemaps
            );
            for workers in [2usize, 3, 4] {
                // Tiny morsels so small proptest graphs still split.
                cx.parallel = ParallelConfig { workers, min_morsel_pages: 1, min_morsel_rows: 1 };
                let par_rs = execute(&cx, &q);
                if agg {
                    // Aggregates merge through the compensated accumulator:
                    // order-insensitive to within one ulp; canonical forms
                    // (the differential contract) must agree exactly.
                    prop_assert_eq!(
                        seq.canonical(dict), par_rs.canonical(dict),
                        "parallel({}) agg on {} ({:?}, zm={})", workers, name, scheme, zonemaps
                    );
                } else {
                    // Non-aggregate results must be byte-identical, row
                    // order included.
                    prop_assert_eq!(
                        seq.rows().collect::<Vec<_>>(), par_rs.rows().collect::<Vec<_>>(),
                        "parallel({}) rows on {} ({:?}, zm={})", workers, name, scheme, zonemaps
                    );
                    prop_assert_eq!(&seq.columns, &par_rs.columns);
                }
            }
        }
    }

    /// Four threads share one pool and two contexts (they are `Sync`) —
    /// one worker and two workers — and run the same query concurrently on
    /// both against a pre-computed reference. Exercises concurrent pool
    /// misses/evictions under real operator traffic.
    #[test]
    fn concurrent_queries_share_a_pool(
        triples in arb_graph(),
        width in 1usize..4,
        lo in 0i64..12,
    ) {
        let g = build(&triples);
        let two_workers = contexts(&g, PlanScheme::RdfScanJoin, true).into_iter().map(|(_, cx, _)| {
            cx.with_parallel(ParallelConfig { workers: 2, min_morsel_pages: 1, min_morsel_rows: 1 })
        });
        for ((name, cx, dict), cx2) in
            contexts(&g, PlanScheme::RdfScanJoin, true).into_iter().zip(two_workers)
        {
            let Some(q) = make_query(dict, width, true, false, lo) else { continue };
            let reference = execute(&cx, &q);
            let reference_rows: Vec<_> = reference.rows().collect();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let (cx, cx2) = (&cx, &cx2);
                    let q = &q;
                    let reference_rows = &reference_rows;
                    s.spawn(move || {
                        for cx in [cx, cx2] {
                            let rs = execute(cx, q);
                            assert_eq!(
                                &rs.rows().collect::<Vec<_>>(),
                                reference_rows,
                                "thread result diverged on {name}"
                            );
                        }
                    });
                }
            });
            g.pool.check_invariants();
        }
    }
}
