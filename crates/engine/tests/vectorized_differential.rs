//! Vectorized-vs-rowwise differential: the pinned-slice operators in
//! `scan`/`star` must return **byte-identical** tables to the value-at-a-time
//! originals preserved in `sordf_engine::rowwise`, on arbitrary RDF data,
//! across every storage generation and restriction shape. This is the
//! correctness contract of the vectorization PR: chunk-at-a-time execution is
//! a pure access-path change, never a semantic one.

use proptest::prelude::*;
use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::rowwise;
use sordf_engine::scan::{scan_property, ORestrict, Source};
use sordf_engine::star::{Star, StarProp};
use sordf_engine::{
    eval_star, CmpOp, ExecConfig, ExecContext, Expr, PlanScheme, Query, StarAccess, StorageRef,
    VarOrOid,
};
use sordf_model::{Oid, Term, TermTriple};
use sordf_schema::SchemaConfig;
use sordf_storage::{build_clustered, reorganize, BaselineStore, ClusterSpec, TripleSet};
use std::sync::Arc;

/// A random mostly-regular graph: `n` subjects over a small property pool,
/// with controlled NULL-ness, multi-values, and type exceptions so that
/// columns, side tables, and the irregular store are all exercised.
fn arb_graph() -> impl Strategy<Value = Vec<TermTriple>> {
    (
        2usize..40,                                          // subjects
        proptest::collection::vec((0u32..5, 0u8..4), 0..60), // (subject, quirk) noise
    )
        .prop_map(|(n, noise)| {
            let mut triples = Vec::new();
            for i in 0..n as u64 {
                let s = Term::iri(format!("http://t/s{i}"));
                triples.push(TermTriple::new(
                    s.clone(),
                    Term::iri("http://t/qty"),
                    Term::int((i % 13) as i64),
                ));
                if i % 4 != 0 {
                    // nullable column
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

fn contexts<'a>(g: &'a Gen, zonemaps: bool) -> Vec<(&'static str, ExecContext<'a>)> {
    let mk = |storage, dict| {
        ExecContext::new(
            &g.pool,
            dict,
            storage,
            ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps,
                ..Default::default()
            },
        )
    };
    vec![
        ("baseline", mk(StorageRef::Baseline(&g.baseline), &g.dict)),
        (
            "sparse-cs",
            mk(
                StorageRef::Clustered {
                    store: &g.sparse,
                    schema: &g.sparse_schema,
                },
                &g.dict,
            ),
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
        ),
    ]
}

/// Tables must agree exactly: same variables, same columns, same row order.
fn assert_tables_identical(a: &sordf_engine::Table, b: &sordf_engine::Table, what: &str) {
    assert_eq!(a.vars, b.vars, "{what}: variable layout");
    assert_eq!(a.cols, b.cols, "{what}: column contents");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scan_property_matches_rowwise(
        triples in arb_graph(),
        prop_pick in 0usize..5,
        restrict_kind in 0u8..3,
        lo in 0i64..12,
        width in 0i64..8,
        zonemaps in any::<bool>(),
    ) {
        let g = build(&triples);
        let preds = ["qty", "price", "date", "tag", "zzz"];
        for (name, cx) in contexts(&g, zonemaps) {
            let Some(p) = cx.dict.iri_oid(&format!("http://t/{}", preds[prop_pick])) else {
                continue;
            };
            let restrict = match restrict_kind {
                0 => ORestrict::none(),
                1 => ORestrict::eq(Oid::from_int(lo).unwrap()),
                _ => ORestrict {
                    eq: None,
                    range: Some((
                        Oid::from_int(lo).unwrap().raw(),
                        Oid::from_int(lo + width).unwrap().raw(),
                    )),
                },
            };
            for source in [Source::Full, Source::IrregularOnly] {
                let vectorized = scan_property(&cx, p, &restrict, None, source);
                let reference = rowwise::scan_property_rowwise(&cx, p, &restrict, None, source);
                prop_assert_eq!(
                    &vectorized, &reference,
                    "scan_property disagrees on {} (zm={})", name, zonemaps
                );
            }
        }
    }

    #[test]
    fn star_eval_matches_rowwise(
        triples in arb_graph(),
        width in 1usize..4,
        filter_lo in 0i64..12,
        use_candidates in any::<bool>(),
        zonemaps in any::<bool>(),
    ) {
        let g = build(&triples);
        let preds = ["qty", "price", "date"];
        for (name, cx) in contexts(&g, zonemaps) {
            let mut q = Query::default();
            let sv = q.var("s");
            let mut props = Vec::new();
            let mut ok = true;
            for p in preds.iter().take(width) {
                match cx.dict.iri_oid(&format!("http://t/{p}")) {
                    Some(oid) => {
                        let v = q.var(&format!("o_{p}"));
                        props.push(StarProp { pred: oid, o: VarOrOid::Var(v) });
                    }
                    None => ok = false,
                }
            }
            if !ok {
                continue;
            }
            let star = Star { subject_var: sv, subject_const: None, props };
            // A pushable range filter on the first object variable.
            let filter = Expr::cmp(
                Expr::Var(q.var("o_qty")),
                CmpOp::Ge,
                Expr::Const(Oid::from_int(filter_lo).unwrap()),
            );
            let filters = [&filter];

            // Candidate list: every other subject, sorted (RDFjoin drive).
            let all_subjects: Vec<Oid> = {
                let mut s: Vec<Oid> = scan_property(
                    &cx,
                    star.props[0].pred,
                    &ORestrict::none(),
                    None,
                    Source::Full,
                )
                .into_iter()
                .map(|(s, _)| s)
                .collect();
                s.dedup();
                s.into_iter().step_by(2).collect()
            };
            let cands = use_candidates.then_some(all_subjects.as_slice());

            let vec_scan = eval_star(&cx, &star, StarAccess::RdfScan, &filters, cands, None);
            let ref_scan = rowwise::eval_star_rdfscan_rowwise(&cx, &star, &filters, cands, None);
            assert_tables_identical(&vec_scan, &ref_scan, &format!("rdfscan on {name}"));

            let vec_def = eval_star(&cx, &star, StarAccess::PropMerge, &filters, cands, None);
            let ref_def =
                rowwise::eval_star_default_rowwise(&cx, &star, &filters, cands, None, Source::Full);
            assert_tables_identical(&vec_def, &ref_def, &format!("default on {name}"));
        }
    }
}
