//! The paper's figures, reproduced over one rig: **Table I** (RDF-H Q3 and
//! Q6 under plan scheme × OID scheme × zone maps, cold and hot), **Fig. 3**
//! (subject clustering: the segment layout, and the locality it buys a
//! selective scan) and **Fig. 4** (plan shapes: the operators Default and
//! RDFscan/RDFjoin execute for a star and a star behind a link), then the
//! resident footprint of both databases per triple.
//!
//! Absolute times differ from the paper (SF 10 on 2012 hardware inside
//! MonetDB); the *shape* is the reproduction target — Clustered beats
//! ParseOrder, RDFscan/RDFjoin beats Default, zone maps help most on a
//! selective scan. A cold run drops the buffer pool first, so every page it
//! touches is a read of the page file. Every configuration of a query must
//! return the same number of rows; the run stops on the first that does not.
//!
//! `SORDF_SF` sets the RDF-H scale factor (default 0.01, about 1M triples):
//!
//! ```text
//! SORDF_SF=0.001 cargo run --release -p sordf-bench --bin paper_figures
//! ```

use sordf::{Database, ExecConfig, Generation, PlanScheme, QueryRequest, QueryResponse};
use sordf_rdfh::{generate, query, QueryId, RdfhConfig};
use std::time::Instant;

/// One Table I row: label, plan scheme, OID scheme (the generation), zone
/// maps.
type Config = (&'static str, PlanScheme, Generation, bool);

#[rustfmt::skip]
const TABLE1: [Config; 6] = [
    ("Default    ParseOrder  ZM=No ", PlanScheme::Default, Generation::Baseline, false),
    ("Default    Clustered   ZM=No ", PlanScheme::Default, Generation::Clustered, false),
    ("Default    Clustered   ZM=Yes", PlanScheme::Default, Generation::Clustered, true),
    ("RDFscan    ParseOrder  ZM=No ", PlanScheme::RdfScanJoin, Generation::CsParseOrder, false),
    ("RDFscan    Clustered   ZM=No ", PlanScheme::RdfScanJoin, Generation::Clustered, false),
    ("RDFscan    Clustered   ZM=Yes", PlanScheme::RdfScanJoin, Generation::Clustered, true),
];

/// The two databases of every experiment, built from one RDF-H run: one
/// keeps parse-order OIDs (the Baseline and CsParseOrder generations), the
/// other is self-organized.
struct Rig {
    parse_order: Database,
    clustered: Database,
}

impl Rig {
    fn build(sf: f64) -> Rig {
        let data = generate(&RdfhConfig::new(sf));
        println!(
            "RDF-H sf={sf}: {} triples ({} lineitems, {} orders, {} customers)",
            data.triples.len(),
            data.n_lineitem,
            data.n_orders,
            data.n_customer
        );
        let parse_order = Database::in_temp_dir().expect("temp db");
        parse_order.load_terms(&data.triples).expect("load");
        parse_order.build_baseline().expect("baseline");
        parse_order.build_cs_tables().expect("cs tables");
        let clustered = Database::in_temp_dir().expect("temp db");
        clustered.load_terms(&data.triples).expect("load");
        clustered.self_organize().expect("self organize");
        Rig {
            parse_order,
            clustered,
        }
    }

    fn db(&self, generation: Generation) -> &Database {
        match generation {
            Generation::Baseline | Generation::CsParseOrder => &self.parse_order,
            Generation::Clustered => &self.clustered,
        }
    }

    /// Run `sparql` traced under one configuration, timed.
    fn run(
        &self,
        sparql: &str,
        &(_, scheme, generation, zonemaps): &Config,
    ) -> (QueryResponse, f64) {
        let req = QueryRequest::sparql(sparql)
            .generation(generation)
            .config(ExecConfig {
                scheme,
                zonemaps,
                ..Default::default()
            })
            .traced(true);
        let t0 = Instant::now();
        let resp = self.db(generation).execute(&req).expect("query");
        (resp, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Run `sparql` cold (pool dropped), after one warm-up so the cold time
    /// is page reads rather than first-run effects.
    fn run_cold(&self, sparql: &str, c: &Config) -> (QueryResponse, f64) {
        let _ = self.run(sparql, c);
        self.db(c.2).drop_cache();
        self.run(sparql, c)
    }
}

/// Every configuration of one query returns the same number of rows.
fn assert_rows(what: &str, rows: &[usize]) {
    assert!(
        rows.windows(2).all(|w| w[0] == w[1]),
        "{what}: configurations disagree on result size: {rows:?}"
    );
}

fn table1(rig: &Rig) {
    println!("\n== Table I: plan scheme x OID scheme x zone maps ==");
    println!("paper (SF 10, seconds): Q3 Default/ParseOrder 37.50 cold / 19.66 hot ... RDFscan/Clustered+ZM 0.89 / 0.78");
    println!("                        Q6 Default/ParseOrder 28.25 cold /  6.52 hot ... RDFscan/Clustered    1.47 / 0.44");
    for qid in [QueryId::Q3, QueryId::Q6] {
        println!("-- {} --", qid.name());
        let mut rows = Vec::new();
        for c in &TABLE1 {
            let (cold, cold_ms) = rig.run_cold(query(qid), c);
            let (hot, hot_ms) = rig.run(query(qid), c);
            println!(
                "{}  cold {cold_ms:>9.2} ms  hot {hot_ms:>9.2} ms  pages {:>7}  joins {:>4}  rows {:>6}",
                c.0,
                cold.pool.expect("traced").misses,
                hot.stats.expect("traced").total_joins(),
                hot.results.len()
            );
            rows.push(hot.results.len());
        }
        assert_rows(qid.name(), &rows);
    }
}

fn fig3(rig: &Rig) {
    println!("\n== Fig. 3: subject clustering ==");
    let db = &rig.clustered;
    let schema = db.schema().expect("schema");
    let report = db.reorg_report().expect("report");
    println!(
        "{} subjects clustered into {} classes; {} string literals sorted; coverage {:.1}%",
        report.n_subjects_clustered,
        schema.classes.len(),
        report.n_strings_sorted,
        schema.coverage * 100.0
    );
    let store = db.clustered_store().expect("store");
    println!("class segments (dense subject-OID ranges):");
    for class in &schema.classes {
        let seg = store.segment(class.id);
        let range = seg.dense_range().expect("dense");
        println!(
            "  {:<12} rows {:>8}  S-OIDs [{:>8}, {:>8})  cols {:>2}  side-tables {}",
            class.name,
            seg.n,
            range.start,
            range.end,
            seg.columns.len(),
            seg.multi.len()
        );
    }
    println!("irregular remainder: {} triples", store.irregular.len());

    // Locality: a selective date-range star over lineitem, RDFscan plan.
    let q = r#"
PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT ?li ?price WHERE {
  ?li rdfh:lineitem_shipdate ?d .
  ?li rdfh:lineitem_extendedprice ?price .
  ?li rdfh:lineitem_quantity ?q .
  FILTER(?d >= "1995-06-01"^^xsd:date && ?d < "1995-07-01"^^xsd:date)
}"#;
    println!("selective star scan (one month of shipdate), RDFscan plan, cold:");
    let mut rows = Vec::new();
    for (label, generation) in [
        ("ParseOrder (sparse CS tables)", Generation::CsParseOrder),
        ("Clustered", Generation::Clustered),
    ] {
        let (resp, ms) = rig.run_cold(q, &(label, PlanScheme::RdfScanJoin, generation, true));
        println!(
            "  {label:<30} cold {ms:>9.2} ms  pages {:>6}  rows {:>6}",
            resp.pool.expect("traced").misses,
            resp.results.len()
        );
        rows.push(resp.results.len());
    }
    assert_rows("Fig. 3 scan", &rows);
}

fn fig4(rig: &Rig) {
    println!("\n== Fig. 4: join effort, Default vs RDFscan/RDFjoin ==");
    // (a) a 4-property star over lineitem with one constant.
    let star4 = r#"
PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT ?o1 ?o2 ?o3 WHERE {
  ?s rdfh:lineitem_quantity ?o1 .
  ?s rdfh:lineitem_extendedprice ?o2 .
  ?s rdfh:lineitem_discount ?o3 .
  ?s rdfh:lineitem_returnflag "A" .
}"#;
    // (b) the same star probing a second star over a link.
    let star_join = r#"
PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT ?o1 ?o2 ?o3 WHERE {
  ?s rdfh:lineitem_quantity ?o1 .
  ?s rdfh:lineitem_extendedprice ?o2 .
  ?s rdfh:lineitem_discount ?o3 .
  ?s rdfh:lineitem_orderkey ?s2 .
  ?s2 rdfh:order_orderpriority "1-URGENT" .
}"#;
    for (name, q, paper) in [
        (
            "(a) 4-prop star",
            star4,
            "paper: 4 IdxScans + 3 MergeJoins -> 1 RDFscan",
        ),
        (
            "(b) star + FK link",
            star_join,
            "paper: 5 IdxScans + 4 joins -> RDFscan + RDFjoin",
        ),
    ] {
        println!("{name} — {paper}");
        let mut rows = Vec::new();
        for (label, scheme) in [
            ("Default", PlanScheme::Default),
            ("RDFscan/RDFjoin", PlanScheme::RdfScanJoin),
        ] {
            let (resp, ms) = rig.run(q, &(label, scheme, Generation::Clustered, true));
            let s = resp.stats.expect("traced");
            println!(
                "  {label:<16} merge-joins {:>3}  hash-joins {:>2}  rdfscans {:>2}  rdfjoins {:>2}  scans {:>3}  {ms:>9.2} ms  rows {:>7}",
                s.merge_joins,
                s.hash_joins,
                s.rdf_scans,
                s.rdf_joins,
                s.property_scans,
                resp.results.len()
            );
            rows.push(resp.results.len());
        }
        assert_rows(name, &rows);
    }
}

/// Resident bytes per triple of both databases: the dictionary and the
/// column pages, the irregular triples' share of those split out. A built
/// store keeps no other copy of its triples.
fn footprint(rig: &Rig) {
    println!("\n== Footprint: resident bytes per triple ==");
    for (label, db) in [
        ("ParseOrder", &rig.parse_order),
        ("Clustered", &rig.clustered),
    ] {
        let m = db.memory_stats();
        let per = |b: u64| b as f64 / m.n_triples.max(1) as f64;
        println!(
            "  {label:<10} total {:>6.2}  dict {:>5.2}  columns {:>5.2} (irregular {:.3})",
            m.bytes_per_triple(),
            per(m.dict_bytes),
            per(m.column_bytes),
            per(m.classes[3].encoded),
        );
    }
}

fn main() {
    let sf = std::env::var("SORDF_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01);
    let rig = Rig::build(sf);
    table1(&rig);
    fig3(&rig);
    fig4(&rig);
    footprint(&rig);
}
