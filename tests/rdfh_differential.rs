//! The Table-I correctness backbone: every RDF-H catalog query returns the
//! same answer under every plan/storage configuration; and what RDF-H's
//! built layouts hold and cost.

mod harness;

use harness::{rdfh, run_matrix_in};
use sordf::{Database, ExecConfig, Generation, PlanScheme, QueryRequest};
use sordf_datagen::{dirty, DirtyConfig};
use sordf_model::{DictPool, Dictionary};
use sordf_rdfh::{generate, query, RdfhConfig};

struct Rig {
    parse_order: Database,
    clustered: Database,
}

fn rig() -> Rig {
    let data = generate(&RdfhConfig::new(0.001));
    let parse_order = Database::in_temp_dir().unwrap();
    parse_order.load_terms(&data.triples).unwrap();
    parse_order.build_baseline().unwrap();
    parse_order.build_cs_tables().unwrap();
    let clustered = Database::in_temp_dir().unwrap();
    clustered.load_terms(&data.triples).unwrap();
    clustered.self_organize().unwrap();
    Rig {
        parse_order,
        clustered,
    }
}

/// The RDF-H catalog (and generated queries) in every engine cell of the
/// correctness matrix (`harness`): every layout, write history, executor,
/// scheme, zone map setting, plan and projection. Its facade cells are
/// `updates_differential`'s.
#[test]
fn all_catalog_queries_agree_across_configs() {
    let n = run_matrix_in(&rdfh(), |c| !c.facade());
    eprintln!("rdfh at the engine: {n} comparisons");
}

/// Both built databases hold their columns compressed, and no copy of
/// their triples beside them.
#[test]
fn built_layouts_compress_columns_and_hold_no_base_copy() {
    let rig = rig();
    // Each built layout holds its columns in at most a third of their plain
    // bytes.
    for db in [&rig.parse_order, &rig.clustered] {
        let m = db.memory_stats();
        assert!(
            m.column_compression_ratio() >= 3.0,
            "column pages shrink only {:.2}x",
            m.column_compression_ratio()
        );
        // An organized store holds no base copy: what it holds is the
        // dictionary and the column pages.
        assert_eq!(m.base_triples_bytes, 0, "{m:?}");
        assert_eq!(m.total_bytes(), m.dict_bytes + m.column_bytes, "{m:?}");
        assert_eq!(m.n_triples as usize, db.n_triples());
    }
}

/// On dirty data (irregularity 0.6: missing, extra, mistyped and
/// multi-valued properties) a fifth of the triples are irregular, and the
/// organized store still holds no base copy: each triple lives once, in a
/// column, a side table or the irregular triples.
#[test]
fn a_dirty_store_holds_no_base_copy() {
    let data = dirty(&DirtyConfig::with_irregularity(0.6, 1_000));
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data).unwrap();
    assert!(
        db.memory_stats().base_triples_bytes > 0,
        "staged, it is a list"
    );
    db.self_organize().unwrap();
    let m = db.memory_stats();
    assert_eq!(m.base_triples_bytes, 0, "{m:?}");
    assert!(
        m.classes[3].encoded > 0,
        "the dirty store has irregular triples"
    );
    assert_eq!(db.n_triples(), data.len());
    assert_eq!(m.n_triples as usize, data.len());
}

/// The IRI pool of a self-organized store is one sorted front-coded run
/// plus its two rank maps, with an empty tail: at most 20 bytes an IRI, and
/// exactly what a rebuild of its own dump, frozen whole, costs.
#[test]
fn the_iri_pool_of_an_organized_store_costs_what_it_holds() {
    let data = generate(&RdfhConfig::new(0.001));
    let db = Database::in_temp_dir().unwrap();
    db.load_terms(&data.triples).unwrap();
    db.self_organize().unwrap();
    let dict = db.dict();
    let bytes = dict.approx_bytes().iris;
    let per_iri = bytes as f64 / dict.n_iris() as f64;
    assert!(per_iri <= 20.0, "the IRI pool takes {per_iri:.2} B an IRI");
    let mut iris = Vec::new();
    dict.try_for_each_entry(DictPool::Iris, |s| {
        iris.push(s.to_string());
        Ok::<(), ()>(())
    })
    .unwrap();
    let frozen = Dictionary::from_pools(iris, vec![], vec![], 0).unwrap();
    assert_eq!(
        frozen.approx_bytes().iris,
        bytes,
        "the organized IRI pool holds a tail"
    );
}

#[test]
fn q6_revenue_is_plausible() {
    let rig = rig();
    let rs = rig.clustered.query(query(sordf_rdfh::QueryId::Q6)).unwrap();
    assert_eq!(rs.len(), 1);
    let revenue: f64 = rs.render(&rig.clustered.dict())[0][0].parse().unwrap();
    // ~1500 orders * ~4 lineitems; the Q6 filters keep ~2% of lineitems,
    // each contributing price*discount ≈ 27000*0.06 ≈ 1600.
    assert!(revenue > 10_000.0, "revenue {revenue} suspiciously small");
}

#[test]
fn rdfscan_answers_q6_without_joins() {
    let rig = rig();
    let traced = rig
        .clustered
        .execute(
            &QueryRequest::sparql(query(sordf_rdfh::QueryId::Q6))
                .generation(Generation::Clustered)
                .config(ExecConfig {
                    scheme: PlanScheme::RdfScanJoin,
                    zonemaps: true,
                    ..Default::default()
                })
                .traced(true),
        )
        .unwrap();
    let stats = traced.stats.expect("traced");
    assert_eq!(stats.merge_joins, 0);
    assert_eq!(stats.hash_joins, 0);
    assert!(stats.rdf_scans >= 1);
}

#[test]
fn schema_discovers_tpch_tables() {
    let rig = rig();
    let schema = rig.clustered.schema().unwrap();
    for table in [
        "lineitem", "order", "customer", "part", "supplier", "nation", "region",
    ] {
        assert!(
            schema.class_by_name(table).is_some(),
            "missing emergent table {table}; got {:?}",
            schema.classes.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
    }
    assert!(schema.coverage > 0.999, "RDF-H is fully regular");
    // FK chain: lineitem -> order -> customer -> nation -> region.
    let li = schema.class_by_name("lineitem").unwrap();
    let ok_col = li
        .columns
        .iter()
        .find(|c| c.name == "lineitem_orderkey")
        .unwrap();
    assert_eq!(schema.class(ok_col.fk.unwrap().target).name, "order");
}
