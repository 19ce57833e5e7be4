//! Parallel-execution benchmark: morsel-at-a-time operators and concurrent
//! query throughput over one shared (sharded) buffer pool.
//!
//! Per scenario this reports:
//!
//! * `seq_qps` — one worker: the morsel executor inline on the calling
//!   thread, the same code as the `par*` rows minus thread spawn and span
//!   splitting (sequential execution is no separate implementation),
//! * `par2_qps` / `par4_qps` — one query at a time, morsel-parallel
//!   operators at 2 / 4 workers (intra-query parallelism),
//! * `clients4_qps` — 4 client threads each running sequential queries
//!   against the shared pool (inter-query parallelism, the serving shape),
//!
//! plus the speedups of the 4-worker and 4-client modes over `seq_qps`, and
//! — with `--baseline BENCH_vectorized.json` — over the recorded PR 2
//! numbers. Before timing, every parallel result is checked byte-identical
//! (canonical form) to the sequential one.
//!
//! The host's `available_parallelism` is recorded in the output: on a
//! single-core container the parallel modes are bounded at ~1x by physics
//! (the morsel executor can only interleave, not overlap), so speedups must
//! be read against `host_cpus`.
//!
//! Usage:
//!   bench_parallel [--sf F] [--out PATH] [--baseline PATH] [--smoke]

use sordf::{Database, ExecConfig, Generation, ParallelConfig, PlanScheme, QueryRequest};
use sordf_bench::cli::{extract_scenario_field, render_object, time_loop, BenchArgs, BenchJson};
use sordf_bench::{build_rig, Rig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

struct Scenario {
    name: &'static str,
    query: String,
    generation: Generation,
    exec: ExecConfig,
}

#[derive(Debug, Clone)]
struct Sample {
    name: &'static str,
    seq_qps: f64,
    par2_qps: f64,
    par4_qps: f64,
    clients4_qps: f64,
    result_rows: usize,
}

fn star_query(width: usize) -> String {
    let props = [
        "lineitem_quantity",
        "lineitem_extendedprice",
        "lineitem_discount",
        "lineitem_tax",
        "lineitem_shipmode",
        "lineitem_returnflag",
    ];
    let mut body = String::new();
    for p in &props[..width] {
        let _ = writeln!(body, "?s <http://lod2.eu/schemas/rdfh#{p}> ?o_{p} .");
    }
    format!("SELECT ?s WHERE {{ {body} }}")
}

fn q6_query(months: u32) -> String {
    let end_year = 1994 + months / 12;
    let end_month = months % 12 + 1;
    format!(
        r#"PREFIX rdfh: <http://lod2.eu/schemas/rdfh#>
SELECT (SUM(?price * ?disc) AS ?rev) WHERE {{
  ?li rdfh:lineitem_shipdate ?d .
  ?li rdfh:lineitem_extendedprice ?price .
  ?li rdfh:lineitem_discount ?disc .
  FILTER(?d >= "1994-01-01"^^xsd:date && ?d < "{end_year}-{end_month:02}-01"^^xsd:date)
}}"#
    )
}

fn scenarios() -> Vec<Scenario> {
    let rdfscan = ExecConfig {
        scheme: PlanScheme::RdfScanJoin,
        zonemaps: true,
        ..Default::default()
    };
    let default = ExecConfig {
        scheme: PlanScheme::Default,
        zonemaps: true,
        ..Default::default()
    };
    vec![
        Scenario {
            name: "starjoin6_rdfscan",
            query: star_query(6),
            generation: Generation::Clustered,
            exec: rdfscan,
        },
        Scenario {
            name: "starjoin6_default",
            query: star_query(6),
            generation: Generation::Clustered,
            exec: default,
        },
        Scenario {
            name: "starjoin4_sparse",
            query: star_query(4),
            generation: Generation::CsParseOrder,
            exec: rdfscan,
        },
        Scenario {
            name: "zonemap_q6_36mo",
            query: q6_query(36),
            generation: Generation::Clustered,
            exec: rdfscan,
        },
    ]
}

/// 4 client threads running the sequential path concurrently against the
/// shared pool; returns aggregate queries/sec.
fn concurrent_clients_qps(
    db: &Database,
    sc: &Scenario,
    n_clients: usize,
    min_secs: f64,
    min_iters: u64,
) -> f64 {
    // ordering: Relaxed for `stop` and `total` throughout — both are
    // benchmark control/progress flags with no data published through them;
    // the final count is made exact by the scope join.
    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_clients)
            .map(|_| {
                let (stop, total) = (&stop, &total);
                s.spawn(move || {
                    let req = QueryRequest::sparql(&sc.query)
                        .generation(sc.generation)
                        .config(sc.exec);
                    while !stop.load(Ordering::Relaxed) {
                        let _ = db.execute(&req).expect("query");
                        // Published per query: the controller's stop
                        // condition watches this count.
                        total.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        while t0.elapsed().as_secs_f64() < min_secs
            || total.load(Ordering::Relaxed) < min_iters * n_clients as u64
        {
            // A dead client means a query failed — stop immediately so the
            // scope join surfaces its panic instead of spinning forever on
            // a count that can no longer be reached.
            if handles.iter().any(|h| h.is_finished()) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
    });
    total.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

fn run_scenario(rig: &Rig, sc: &Scenario, min_secs: f64, min_iters: u64) -> Sample {
    let db = rig.db(sc.generation);
    let par2 = ParallelConfig::with_workers(2);
    let par4 = ParallelConfig::with_workers(4);

    let seq_req = QueryRequest::sparql(&sc.query)
        .generation(sc.generation)
        .config(sc.exec);
    // Warm the pool + differential sanity: parallel must be byte-identical.
    let warm = db.execute(&seq_req).expect("warmup");
    let par_check = db
        .execute(&seq_req.clone().parallel(par4))
        .expect("parallel warmup");
    assert_eq!(
        warm.results.canonical(&db.dict()),
        par_check.results.canonical(&db.dict()),
        "{}: parallel result diverges from sequential",
        sc.name
    );
    let result_rows = warm.results.len();

    let par2_req = seq_req.clone().parallel(par2);
    let par4_req = seq_req.clone().parallel(par4);
    let seq_qps = time_loop(min_secs, min_iters, || {
        let _ = db.execute(&seq_req).expect("query");
    });
    let par2_qps = time_loop(min_secs, min_iters, || {
        let _ = db.execute(&par2_req).expect("query");
    });
    let par4_qps = time_loop(min_secs, min_iters, || {
        let _ = db.execute(&par4_req).expect("query");
    });
    let clients4_qps = concurrent_clients_qps(db, sc, 4, min_secs, min_iters);

    Sample {
        name: sc.name,
        seq_qps,
        par2_qps,
        par4_qps,
        clients4_qps,
        result_rows,
    }
}

fn json_of(samples: &[Sample], sf: f64, n_triples: usize, baseline_json: Option<&str>) -> String {
    let mut j = BenchJson::new("parallel", sf);
    j.int("n_triples", n_triples as u64);
    j.raw(
        "scenarios",
        render_object(samples.iter().map(|s| {
            (
                s.name,
                format!(
                    "{{ \"seq_qps\": {:.2}, \"par2_qps\": {:.2}, \"par4_qps\": {:.2}, \
                     \"clients4_qps\": {:.2}, \"speedup_par4_vs_seq\": {:.2}, \
                     \"speedup_clients4_vs_seq\": {:.2}, \"result_rows\": {} }}",
                    s.seq_qps,
                    s.par2_qps,
                    s.par4_qps,
                    s.clients4_qps,
                    s.par4_qps / s.seq_qps,
                    s.clients4_qps / s.seq_qps,
                    s.result_rows
                ),
            )
        })),
    );
    if let Some(base) = baseline_json {
        j.raw(
            "speedup_vs_pr2_single_thread",
            render_object(samples.iter().filter_map(|s| {
                extract_scenario_field(base, s.name, "qps").map(|b| {
                    (
                        s.name,
                        format!(
                            "{{ \"best_4worker_speedup\": {:.2}, \"seq_speedup\": {:.2}, \
                             \"pr2_qps\": {b:.2} }}",
                            s.par4_qps.max(s.clients4_qps) / b,
                            s.seq_qps / b
                        ),
                    )
                })
            })),
        );
    }
    j.render()
}

fn main() {
    let args = BenchArgs::parse("BENCH_parallel.json");

    let rig = build_rig(args.sf);
    let samples: Vec<Sample> = scenarios()
        .iter()
        .map(|sc| run_scenario(&rig, sc, args.min_secs, args.min_iters))
        .collect();

    for s in &samples {
        println!(
            "{:<20} seq {:>8.1} q/s  par2 {:>8.1}  par4 {:>8.1}  4-clients {:>8.1}  ({:>4.2}x / {:>4.2}x vs seq)  {:>6} rows",
            s.name,
            s.seq_qps,
            s.par2_qps,
            s.par4_qps,
            s.clients4_qps,
            s.par4_qps / s.seq_qps,
            s.clients4_qps / s.seq_qps,
            s.result_rows
        );
    }

    let json = json_of(&samples, args.sf, rig.n_triples, args.baseline.as_deref());
    std::fs::write(&args.out_path, &json).expect("write bench json");
    println!("wrote {}", args.out_path);
}
