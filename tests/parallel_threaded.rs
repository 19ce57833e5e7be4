//! Threaded differential suite: the RDF-H star-join catalog run
//! concurrently from 4 threads — one shared database (one buffer pool),
//! per-thread query contexts — and through the morsel-parallel operators,
//! asserting results identical to the sequential reference across all three
//! storage generations. This is the "many queries, many cores, one pool"
//! serving scenario of the ROADMAP north star. Besides the catalog, the
//! suite runs the shapes that stress the scan kernels: a six-property
//! lineitem star (every column, no filter) and Q6's revenue sum over a
//! three-month and a three-year shipdate window.

use sordf::{Database, ExecConfig, Generation, ParallelConfig, PlanScheme, QueryRequest};
use sordf_rdfh::{generate, query, RdfhConfig, ALL_QUERIES};

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

/// The RDF-H catalog plus the scan-heavy shapes: `(name, SPARQL)`.
fn suite() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = ALL_QUERIES
        .iter()
        .map(|&q| (q.name().to_string(), query(q).to_string()))
        .collect();
    let star6 = "PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT ?s WHERE { ?s rdfh:lineitem_quantity ?a . ?s rdfh:lineitem_extendedprice ?b .
  ?s rdfh:lineitem_discount ?c . ?s rdfh:lineitem_tax ?d .
  ?s rdfh:lineitem_shipmode ?e . ?s rdfh:lineitem_returnflag ?f . }";
    out.push(("starjoin6".into(), star6.into()));
    for (name, end) in [("q6_3mo", "1994-04-01"), ("q6_36mo", "1997-01-01")] {
        let q6 = format!(
            r#"PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT (SUM(?price * ?disc) AS ?rev) WHERE {{
  ?li rdfh:lineitem_shipdate ?d . ?li rdfh:lineitem_extendedprice ?price .
  ?li rdfh:lineitem_discount ?disc .
  FILTER(?d >= "1994-01-01"^^xsd:date && ?d < "{end}"^^xsd:date) }}"#
        );
        out.push((name.into(), q6));
    }
    out
}

/// The three storage generations under their natural plan scheme.
fn configs(rig: &Rig) -> Vec<(&'static str, &Database, Generation, ExecConfig)> {
    vec![
        (
            "baseline",
            &rig.parse_order,
            Generation::Baseline,
            ExecConfig {
                scheme: PlanScheme::Default,
                zonemaps: true,
                ..Default::default()
            },
        ),
        (
            "cs-parse-order",
            &rig.parse_order,
            Generation::CsParseOrder,
            ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps: true,
                ..Default::default()
            },
        ),
        (
            "clustered",
            &rig.clustered,
            Generation::Clustered,
            ExecConfig {
                scheme: PlanScheme::RdfScanJoin,
                zonemaps: true,
                ..Default::default()
            },
        ),
    ]
}

#[test]
fn star_join_suite_is_stable_under_4_threads_and_parallel_operators() {
    let rig = rig();
    let configs = configs(&rig);
    let suite = suite();

    // Sequential reference canonicals, computed single-threaded up front.
    let reference: Vec<Vec<Vec<String>>> = configs
        .iter()
        .map(|(_, db, generation, exec)| {
            suite
                .iter()
                .map(|(_, text)| {
                    db.execute(
                        &QueryRequest::sparql(text.as_str())
                            .generation(*generation)
                            .config(*exec),
                    )
                    .unwrap()
                    .results
                    .canonical(&db.dict())
                })
                .collect()
        })
        .collect();

    // 4 threads hammer the full suite concurrently: sequential execution
    // (shared pool, per-thread contexts) and the morsel-parallel executor
    // at 2 and 4 workers. Every result must equal the reference.
    std::thread::scope(|s| {
        for thread in 0..4usize {
            let configs = &configs;
            let reference = &reference;
            let suite = &suite;
            s.spawn(move || {
                // Stagger starting offsets so threads collide on different
                // pages of the shared pool.
                for step in 0..suite.len() {
                    let qi = (thread + step) % suite.len();
                    let (qname, text) = &suite[qi];
                    for (ci, (name, db, generation, exec)) in configs.iter().enumerate() {
                        let req = QueryRequest::sparql(text.as_str())
                            .generation(*generation)
                            .config(*exec);
                        let seq = db
                            .execute(&req)
                            .unwrap_or_else(|e| panic!("{name}/{qname}: {e}"))
                            .results;
                        assert_eq!(
                            seq.canonical(&db.dict()),
                            reference[ci][qi],
                            "thread {thread}: sequential {qname} on {name} diverged"
                        );
                        for workers in [2usize, 4] {
                            let par = ParallelConfig {
                                workers,
                                min_morsel_pages: 1,
                                min_morsel_rows: 64,
                            };
                            let rs = db
                                .execute(&req.clone().parallel(par))
                                .unwrap_or_else(|e| panic!("{name}/{qname}: {e}"))
                                .results;
                            assert_eq!(
                                rs.canonical(&db.dict()),
                                reference[ci][qi],
                                "thread {thread}: parallel({workers}) {qname} on {name} diverged"
                            );
                        }
                    }
                }
            });
        }
    });

    // The shared pools survived the stampede with coherent internals, and
    // so did the storage generations and delta stores behind them.
    rig.parse_order.validate_invariants();
    rig.clustered.validate_invariants();

    // Under the armed lock-order checker the stampede must have recorded
    // real acquisition edges without tripping the cycle detector.
    #[cfg(feature = "lock_order_check")]
    assert!(
        parking_lot::lock_order::edge_count() > 0,
        "lock-order checker armed but no acquisition edges recorded"
    );
}

#[test]
fn parallel_query_facade_defaults_work() {
    let rig = rig();
    let rs_seq = rig.clustered.query(query(sordf_rdfh::QueryId::Q6)).unwrap();
    let rs_par = rig
        .clustered
        .execute(
            &QueryRequest::sparql(query(sordf_rdfh::QueryId::Q6))
                .parallel(ParallelConfig::with_workers(4)),
        )
        .unwrap()
        .results;
    assert_eq!(
        rs_seq.canonical(&rig.clustered.dict()),
        rs_par.canonical(&rig.clustered.dict())
    );
}
