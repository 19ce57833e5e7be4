//! The write-path correctness backbone: a database that *lives* — organize,
//! insert, delete, re-organize — must answer every RDF-H query exactly like
//! a fresh bulk load of the same logical triple set.
//!
//! Setup: the RDF-H triples are partitioned by subject into A (~80%) and
//! B (~20%), and a deletion sample D is drawn from both. Three databases:
//!
//! * `ref_full`  — bulk load A ∪ B, self-organize (the pre-delete truth);
//! * `ref_final` — bulk load (A ∪ B) \ D, self-organize (the final truth);
//! * `live`      — bulk load A, self-organize, then *insert* B in batches
//!   and *delete* D through the delta store.
//!
//! Every catalog query (the RDF-H catalog plus a four-property lineitem
//! star) must agree between `live` and `ref_final` across
//! both plan schemes, sequentially and morsel-parallel; a snapshot taken
//! before the deletes must still answer like `ref_full`; and an adaptive
//! `maybe_reorganize` must fire, reduce the irregular-triple ratio, and
//! change no answer.

use sordf::{
    Database, ExecConfig, Generation, ParallelConfig, PlanScheme, QueryRequest, ReorgPolicy,
};
use sordf_model::TermTriple;
use sordf_rdfh::{generate, query, RdfhConfig, ALL_QUERIES};
use std::collections::HashSet;

/// Deterministic subject bucketing (FNV-1a over the subject's debug form).
fn subject_bucket(t: &TermTriple, buckets: u64) -> u64 {
    let key = format!("{:?}", t.s);
    let mut h: u64 = 0xcbf29ce484222325;
    for b in key.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h % buckets
}

struct Fixture {
    a: Vec<TermTriple>,
    b: Vec<TermTriple>,
    deletions: Vec<TermTriple>,
}

fn fixture() -> Fixture {
    let data = generate(&RdfhConfig::new(0.001));
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for t in &data.triples {
        if subject_bucket(t, 5) == 0 {
            b.push(t.clone());
        } else {
            a.push(t.clone());
        }
    }
    assert!(!a.is_empty() && !b.is_empty());
    // Deletion sample: individual triples from the organized base (every
    // 13th of A) and from the freshly inserted delta (every 7th of B).
    let mut deletions: Vec<TermTriple> = a
        .iter()
        .step_by(13)
        .cloned()
        .chain(b.iter().step_by(7).cloned())
        .collect();
    deletions.dedup();
    Fixture { a, b, deletions }
}

fn organized(triples: &[TermTriple]) -> Database {
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(triples).unwrap();
    db.self_organize().unwrap();
    db
}

fn minus(all: &[TermTriple], remove: &[TermTriple]) -> Vec<TermTriple> {
    let dead: HashSet<&TermTriple> = remove.iter().collect();
    all.iter().filter(|t| !dead.contains(t)).cloned().collect()
}

fn par_config() -> ParallelConfig {
    // Small morsels so even the tiny test scale exercises real splitting.
    ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 64,
    }
}

/// The RDF-H catalog plus a four-property lineitem star (every row of the
/// class, bound column by column): `(name, SPARQL)`.
fn catalog() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = ALL_QUERIES
        .iter()
        .map(|&q| (q.name(), query(q).to_string()))
        .collect();
    out.push((
        "starjoin4",
        "PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT ?s WHERE { ?s rdfh:lineitem_quantity ?a . ?s rdfh:lineitem_extendedprice ?b .
  ?s rdfh:lineitem_discount ?c . ?s rdfh:lineitem_tax ?d . }"
            .to_string(),
    ));
    out
}

/// Canonical answers of one database for every catalog query under one
/// exec configuration, sequential or parallel.
fn answers(db: &Database, exec: ExecConfig, parallel: bool) -> Vec<Vec<String>> {
    catalog()
        .iter()
        .map(|(name, text)| {
            let mut req = QueryRequest::sparql(text.as_str())
                .generation(Generation::Clustered)
                .config(exec);
            if parallel {
                req = req.parallel(par_config());
            }
            let rs = db
                .execute(&req)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .results;
            rs.canonical(&db.dict())
        })
        .collect()
}

#[test]
fn updates_match_fresh_bulk_load() {
    let fx = fixture();
    let full: Vec<TermTriple> = fx.a.iter().chain(fx.b.iter()).cloned().collect();
    let ref_full = organized(&full);
    let ref_final = organized(&minus(&full, &fx.deletions));

    // The live database: organize A, then write B and the deletions.
    let live = organized(&fx.a);
    let n_batches = 3;
    let chunk = fx.b.len().div_ceil(n_batches);
    for batch in fx.b.chunks(chunk) {
        live.insert_terms(batch).unwrap();
    }
    let pre_delete = live.snapshot();
    let n_deleted = live.delete_triples(&fx.deletions).unwrap();
    assert_eq!(
        n_deleted,
        fx.deletions.len(),
        "every sampled triple was visible"
    );
    assert_eq!(live.n_triples(), ref_final.n_triples());

    let reference = answers(&ref_final, ExecConfig::default(), false);

    let configs = [
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: true,
            ..Default::default()
        },
        ExecConfig {
            scheme: PlanScheme::RdfScanJoin,
            zonemaps: false,
            ..Default::default()
        },
        ExecConfig {
            scheme: PlanScheme::Default,
            zonemaps: true,
            ..Default::default()
        },
    ];
    for exec in configs {
        for parallel in [false, true] {
            let got = answers(&live, exec, parallel);
            for (qi, (name, _)) in catalog().iter().enumerate() {
                assert_eq!(
                    got[qi], reference[qi],
                    "{name} differs from fresh bulk load ({exec:?}, parallel={parallel})"
                );
                assert!(!reference[qi].is_empty(), "{name} returned nothing");
            }
        }
    }

    // MVCC-lite: the snapshot taken before the deletes still answers like
    // the pre-delete bulk load.
    let full_reference = answers(&ref_full, ExecConfig::default(), false);
    for (qi, (name, text)) in catalog().iter().enumerate() {
        let rs = live.query_snapshot(text, pre_delete).unwrap();
        assert_eq!(
            rs.canonical(&live.dict()),
            full_reference[qi],
            "{name} at the pre-delete snapshot differs from the pre-delete bulk load"
        );
    }

    // Adaptive re-organization: drift crossed any sane threshold (B is ~20%
    // of the data), the reorg must fire, shrink the irregular share to the
    // bulk-load level, and preserve every answer.
    let drift_before = live.drift_stats();
    assert!(drift_before.n_delta_inserts > 0 && drift_before.n_tombstones > 0);
    assert!(
        drift_before.irregular_ratio() > 0.1,
        "unorganized delta should dominate the irregular share"
    );
    let outcome = live.maybe_reorganize(&ReorgPolicy::default()).unwrap();
    assert!(outcome.fired, "a ~20% delta must trip the default policy");
    let after = outcome.irregular_ratio_after.expect("organized database");
    assert!(
        after < drift_before.irregular_ratio() && after < 0.01,
        "reorg must reduce the irregular ratio (before {:.4}, after {after:.4})",
        drift_before.irregular_ratio()
    );
    assert_eq!(live.drift_stats().n_delta_inserts, 0, "delta collapsed");

    for parallel in [false, true] {
        let got = answers(&live, ExecConfig::default(), parallel);
        for (qi, (name, _)) in catalog().iter().enumerate() {
            assert_eq!(
                got[qi], reference[qi],
                "{name} differs after maybe_reorganize (parallel={parallel})"
            );
        }
    }
}
