//! Golden discovery fingerprints: the canonical text of everything
//! `sordf_schema::discover` returns — every class, column and side table
//! with its f64s as bit patterns, FK edges, statistics and names, a hash of
//! the subject assignment, `type_pred` and the coverage bits — on RDF-H (in
//! load-order numbering and again after subject clustering), the Fig. 2
//! fixture, and dirty data at two irregularities (0.6 splits a class into
//! type variants, 0.2 does not).
//!
//! A diff here means discovery returns a different schema. Snapshots,
//! pages and plans all follow from it, so a change meant to be a pure
//! speed-up must leave these files untouched. An intended change of the
//! schema regenerates them with
//! `SORDF_UPDATE_GOLDEN=1 cargo test --test discovery_golden`.

use sordf_datagen::{dblp_like, dirty, DirtyConfig};
use sordf_model::TermTriple;
use sordf_schema::{ColStats, EmergentSchema, ForeignKey, SchemaConfig};
use sordf_storage::{reorganize, ClusterSpec, TripleSet};
use std::fmt::Write as _;
use std::path::PathBuf;

fn fk(fk: &Option<ForeignKey>) -> String {
    match fk {
        Some(fk) => format!(
            "fk(target={} strength={:#018x} one_to_one={})",
            fk.target.0,
            fk.strength.to_bits(),
            fk.one_to_one
        ),
        None => "fk(none)".into(),
    }
}

fn stats(st: &ColStats) -> String {
    format!(
        "stats(nonnull={} distinct={} min={:?} max={:?})",
        st.n_nonnull, st.n_distinct, st.min, st.max
    )
}

/// FNV-1a over the sorted (subject, class) pairs.
fn assignment_hash(schema: &EmergentSchema) -> u64 {
    let mut pairs: Vec<(u64, u32)> = schema
        .assignment
        .iter()
        .map(|(s, c)| (s.raw(), c.0))
        .collect();
    pairs.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (s, c) in pairs {
        for b in s.to_le_bytes().into_iter().chain(c.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The canonical text of one discovered schema.
fn render(schema: &EmergentSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "n_triples={} type_pred={:?} coverage={:#018x} classes={}",
        schema.n_triples,
        schema.type_pred.map(|p| p.raw()),
        schema.coverage.to_bits(),
        schema.classes.len()
    );
    let _ = writeln!(
        out,
        "assignment n={} hash={:#018x}",
        schema.assignment.len(),
        assignment_hash(schema)
    );
    for c in &schema.classes {
        let _ = writeln!(
            out,
            "class {} {} n_subjects={} indirect_support={}",
            c.id.0, c.name, c.n_subjects, c.indirect_support
        );
        for col in &c.columns {
            let _ = writeln!(
                out,
                "  col {} pred={} ty={:?} presence={:#018x} nullable={} {} {}",
                col.name,
                col.pred.raw(),
                col.ty,
                col.presence.to_bits(),
                col.nullable,
                fk(&col.fk),
                stats(&col.stats)
            );
        }
        for mp in &c.multi_props {
            let _ = writeln!(
                out,
                "  multi {} pred={} ty={:?} mean_multiplicity={:#018x} {} {}",
                mp.name,
                mp.pred.raw(),
                mp.ty,
                mp.mean_multiplicity.to_bits(),
                fk(&mp.fk),
                stats(&mp.stats)
            );
        }
    }
    out
}

fn encoded(triples: &[TermTriple]) -> TripleSet {
    let mut ts = TripleSet::new();
    ts.extend_terms(triples).unwrap();
    ts
}

fn discover(ts: &TripleSet) -> EmergentSchema {
    sordf_schema::discover(&ts.sorted_spo(), &ts.dict, &SchemaConfig::default())
}

/// Every input, rendered: (file stem, canonical text).
fn fingerprints() -> Vec<(&'static str, String)> {
    let mut out = Vec::new();

    let mut rdfh = encoded(&sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.002)).triples);
    let mut schema = discover(&rdfh);
    out.push(("rdfh_sf0002_load_order", render(&schema)));
    // What a clustered build discovers over: the same triples renumbered
    // by the first discovery's subject clustering.
    let spec = ClusterSpec::auto(&schema);
    reorganize(&mut rdfh, &mut schema, &spec);
    out.push(("rdfh_sf0002_clustered", render(&discover(&rdfh))));

    out.push(("fig2", render(&discover(&encoded(&dblp_like(40, 4))))));

    let split = discover(&encoded(&dirty(&DirtyConfig::with_irregularity(
        0.6, 5_000,
    ))));
    assert_eq!(split.classes.len(), 9, "irregularity 0.6 splits one class");
    out.push(("dirty_irregularity_0.6", render(&split)));
    out.push((
        "dirty_irregularity_0.2",
        render(&discover(&encoded(&dirty(
            &DirtyConfig::with_irregularity(0.2, 5_000),
        )))),
    ));
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("discovery")
}

#[test]
fn discovery_matches_golden_fingerprints() {
    let update = std::env::var("SORDF_UPDATE_GOLDEN").is_ok();
    let dir = golden_dir();
    let mut diffs = Vec::new();
    for (stem, got) in fingerprints() {
        let path = dir.join(format!("{stem}.txt"));
        if update {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: missing golden file (run with SORDF_UPDATE_GOLDEN=1 to create): {e}",
                path.display()
            )
        });
        if got != want {
            diffs.push(format!(
                "--- {} ---\nexpected:\n{want}\ngot:\n{got}",
                path.display()
            ));
        }
    }
    assert!(
        diffs.is_empty(),
        "discovery drifted from golden fingerprints (SORDF_UPDATE_GOLDEN=1 regenerates):\n{}",
        diffs.join("\n")
    );
}
