//! Per-layer attribution, taken from outside: timing calls into public
//! functions and reading public counters. Only traced runs come here.
//!
//! Two kinds of figure. The *decomposition pass* replays the workload's own
//! classes one request at a time, parsing, planning and executing each
//! separately, so the workload's latency splits into layers by subtraction
//! and its counters repeat exactly. The *price probes* measure what one
//! call into a layer costs on scratch stores built from the same data
//! (server round trip, WAL append, delta insert, reorganization, recovery…):
//! the layers a workload never enters still have a price, and a later change
//! to them shows here before it shows end to end.

use crate::catalog::{self, Class, Constants, Lang};
use crate::data::{Dataset, Split};
use crate::deploy::{self, wire_body, Deployment};
use crate::http::Client;
use crate::json;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{Metric, Res, Scale};
use sordf::{Database, ParallelConfig, QueryRequest, SchemaConfig, SyncPolicy};
use sordf_model::{ntriples, Dictionary, TermTriple, Triple};
use sordf_sparql::parse_sparql;
use sordf_storage::{DeltaStore, WalRecord, WalWriter};
use std::path::Path;
use std::time::Instant;

fn push(out: &mut Vec<Metric>, name: &str, value: f64, unit: &'static str) {
    out.push(Metric::new(name, value, unit));
}

fn us(secs: f64) -> f64 {
    secs * 1e6
}

/// Mean of a counter over the repetitions of one class.
fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

/// Median over classes, skipping classes a figure does not apply to.
fn over_classes(values: impl IntoIterator<Item = Option<f64>>) -> f64 {
    let v: Vec<f64> = values.into_iter().flatten().collect();
    if v.is_empty() {
        0.0
    } else {
        median(&v)
    }
}

#[derive(Default)]
struct ClassCost {
    parse_s: Vec<f64>,
    explain_s: Vec<f64>,
    execute_s: Vec<f64>,
    rows_scanned: Vec<u64>,
    pages_scanned: Vec<u64>,
    pages_skipped: Vec<u64>,
    hash_joins: Vec<u64>,
    merge_joins: Vec<u64>,
    rdf_joins: Vec<u64>,
    result_rows: Vec<u64>,
    pool_hits: Vec<u64>,
    pool_misses: Vec<u64>,
}

/// The decomposition pass: every class `reps` times (rotating constants),
/// one thread, each request as parse probe + plan probe + traced execute +
/// render under one `request` span. `cold` drops the page cache before each
/// execute, as `analytic_cold` does. Returns the per-class figures, which are
/// printed but not declared.
pub fn decompose(
    db: &Database,
    classes: &[Class],
    waited_ms: &[f64],
    cold: bool,
    reps: usize,
    tracer: &mut Tracer,
    out: &mut Vec<Metric>,
) -> Res<Vec<Metric>> {
    let mut costs = Vec::new();
    let mut request = 1u64 << 32;
    for class in classes {
        let mut c = ClassCost::default();
        for rep in 0..reps {
            let text = &class.texts[rep % class.texts.len()];
            let req = class.request(rep).traced(true);
            request += 1;
            let (resp, _) = tracer.span("request", request, |t| -> Res<_> {
                if class.lang == Lang::Sparql {
                    let (parsed, secs) =
                        t.span("sparql.parse", request, |_| parse_sparql(text, &db.dict()));
                    parsed.map_err(|e| format!("parse {}: {e}", class.name))?;
                    c.parse_s.push(secs);
                    let (plan, secs) = t.span("core.explain", request, |_| db.explain(text));
                    plan.map_err(|e| format!("explain {}: {e}", class.name))?;
                    c.explain_s.push(secs);
                }
                if cold {
                    t.span("columnar.drop_cache", request, |_| db.drop_cache());
                }
                let (resp, secs) = t.span("core.execute", request, |_| db.execute(&req));
                let resp = resp.map_err(|e| format!("execute {}: {e}", class.name))?;
                c.execute_s.push(secs);
                t.span("engine.render", request, |_| resp.results.render(&resp.pin));
                Ok(resp)
            });
            let resp = resp?;
            let (stats, pool) = resp
                .stats
                .zip(resp.pool)
                .ok_or("a traced request came back without statistics")?;
            c.rows_scanned.push(stats.rows_scanned);
            c.pages_scanned.push(stats.pages_scanned);
            c.pages_skipped.push(stats.zonemap_pages_skipped);
            c.hash_joins.push(stats.hash_joins);
            c.merge_joins.push(stats.merge_joins);
            c.rdf_joins.push(stats.rdf_joins);
            c.result_rows.push(resp.results.len() as u64);
            c.pool_hits.push(pool.hits);
            c.pool_misses.push(pool.misses);
        }
        costs.push(c);
    }

    let sparql = |c: &ClassCost| !c.parse_s.is_empty();
    // What the engine does for a request: the execute call minus the parse
    // it repeats (the plan comes from the cache, so its lookup stays in).
    let exec_s = |c: &ClassCost| {
        let parse = if sparql(c) { median(&c.parse_s) } else { 0.0 };
        (median(&c.execute_s) - parse).max(0.0)
    };
    push(
        out,
        "sparql.parse_us",
        over_classes(
            costs
                .iter()
                .map(|c| sparql(c).then(|| us(median(&c.parse_s)))),
        ),
        "us",
    );
    // `explain` parses, pins and always re-optimizes: minus the parse it is
    // the price of a plan-cache miss.
    push(
        out,
        "core.plan_us",
        over_classes(
            costs.iter().map(|c| {
                sparql(c).then(|| us((median(&c.explain_s) - median(&c.parse_s)).max(0.0)))
            }),
        ),
        "us",
    );
    push(
        out,
        "engine.exec_us",
        over_classes(costs.iter().map(|c| Some(us(exec_s(c))))),
        "us",
    );
    // Against what the caller waited for in the measured phase (a round trip
    // on serve_selective, an execute call elsewhere). The mean over the
    // classes: `op_p50_ms` is a geometric mean of class medians, so an engine
    // x% faster on every class moves it by x% times exactly this.
    let shares: Vec<f64> = costs
        .iter()
        .zip(waited_ms)
        .map(|(c, ms)| (exec_s(c) * 1e3 / ms.max(f64::MIN_POSITIVE)).min(1.0))
        .collect();
    push(
        out,
        "engine.exec_share",
        shares.iter().sum::<f64>() / shares.len().max(1) as f64,
        "ratio",
    );
    let mut diagnostics = Vec::new();
    for ((class, c), share) in classes.iter().zip(&costs).zip(&shares) {
        let name = class.name;
        if sparql(c) {
            let parse_us = us(median(&c.parse_s));
            diagnostics.push(Metric::new(
                format!("class.{name}.parse_us"),
                parse_us,
                "us",
            ));
        }
        diagnostics.extend([
            Metric::new(format!("class.{name}.exec_us"), us(exec_s(c)), "us"),
            Metric::new(format!("class.{name}.exec_share"), *share, "ratio"),
        ]);
    }
    push(
        out,
        "engine.ns_per_row_scanned",
        over_classes(costs.iter().map(|c| {
            let rows = mean(&c.rows_scanned);
            (rows > 0.0).then(|| exec_s(c) * 1e9 / rows)
        })),
        "ns",
    );
    let per_query =
        |f: fn(&ClassCost) -> &Vec<u64>| over_classes(costs.iter().map(|c| Some(mean(f(c)))));
    push(
        out,
        "engine.rows_scanned_per_query",
        per_query(|c| &c.rows_scanned),
        "count",
    );
    push(
        out,
        "engine.rows_scanned_per_result_row",
        over_classes(
            costs
                .iter()
                .map(|c| Some(mean(&c.rows_scanned) / mean(&c.result_rows).max(1.0))),
        ),
        "ratio",
    );
    push(
        out,
        "engine.pages_scanned_per_query",
        per_query(|c| &c.pages_scanned),
        "count",
    );
    let total = |f: fn(&ClassCost) -> &Vec<u64>| -> f64 {
        costs.iter().map(|c| f(c).iter().sum::<u64>()).sum::<u64>() as f64
    };
    let (scanned, skipped) = (total(|c| &c.pages_scanned), total(|c| &c.pages_skipped));
    push(
        out,
        "engine.zonemap_skip_share",
        skipped / (scanned + skipped).max(1.0),
        "ratio",
    );
    // Most classes join nothing, so the median class would always say 0:
    // joins are averaged over the classes instead.
    let joins = |f: fn(&ClassCost) -> &Vec<u64>| {
        costs.iter().map(|c| mean(f(c))).sum::<f64>() / costs.len().max(1) as f64
    };
    push(
        out,
        "engine.hash_joins_per_query",
        joins(|c| &c.hash_joins),
        "count",
    );
    push(
        out,
        "engine.merge_joins_per_query",
        joins(|c| &c.merge_joins),
        "count",
    );
    push(
        out,
        "engine.rdf_joins_per_query",
        joins(|c| &c.rdf_joins),
        "count",
    );
    push(
        out,
        "columnar.pool_hits_per_query",
        per_query(|c| &c.pool_hits),
        "count",
    );
    push(
        out,
        "columnar.pool_misses_per_query",
        per_query(|c| &c.pool_misses),
        "count",
    );
    let (hits, misses) = (total(|c| &c.pool_hits), total(|c| &c.pool_misses));
    push(
        out,
        "columnar.pool_hit_share",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    Ok(diagnostics)
}

fn timed_median(reps: usize, mut f: impl FnMut(usize) -> Res<()>) -> Res<f64> {
    let mut secs = Vec::with_capacity(reps);
    for rep in 0..reps {
        let t = Instant::now();
        f(rep)?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

fn execute_median(db: &Database, class: &Class, reps: usize, cold: bool) -> Res<f64> {
    let mut secs = Vec::with_capacity(reps);
    for rep in 0..reps {
        if cold {
            db.drop_cache();
        }
        let req = class.request(rep);
        let t = Instant::now();
        db.execute(&req)
            .map_err(|e| format!("probe {}: {e}", class.name))?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// The server layer's price on this workload's classes: HTTP round trip
/// minus library `execute` + rendering of the same request.
pub fn server(d: &Deployment, classes: &[Class], reps: usize, out: &mut Vec<Metric>) -> Res<()> {
    let (own, addr) = match d.addr {
        Some(addr) => (None, addr),
        None => {
            let (server, addr) = deploy::bind(&d.db)?;
            (Some(server), addr)
        }
    };
    let mut http = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut overhead, mut bytes) = (Vec::new(), Vec::new());
    for class in classes {
        let mut body_len = 0;
        let wire_s = timed_median(reps, |rep| {
            let k = rep % class.texts.len();
            let (status, body) = http
                .get(&deploy::target(class, k, false))
                .map_err(|e| format!("probe {}: {e}", class.name))?;
            body_len = body.len();
            (status == 200)
                .then_some(())
                .ok_or(format!("probe {}: HTTP {status}", class.name))
        })?;
        let lib_s = timed_median(reps, |rep| {
            let resp =
                d.db.execute(&class.request(rep))
                    .map_err(|e| format!("probe {}: {e}", class.name))?;
            std::hint::black_box(wire_body(&resp));
            Ok(())
        })?;
        overhead.push(us(wire_s - lib_s));
        bytes.push(body_len as f64);
    }
    push(out, "server.roundtrip_overhead_us", median(&overhead), "us");
    push(
        out,
        "server.response_bytes_per_request",
        median(&bytes),
        "B",
    );
    let (_, status) = http.get("/status").map_err(|e| format!("/status: {e}"))?;
    let status = json::parse(&status).map_err(|e| format!("/status: {e}"))?;
    let counter = |name: &str| {
        status
            .get("server")
            .and_then(|s| s.get(name))
            .and_then(json::Json::as_f64)
            .ok_or(format!("/status has no server.{name}"))
    };
    let (served, rejected) = (counter("served")?, counter("rejected")?);
    push(
        out,
        "server.rejected_share",
        rejected / (served + rejected).max(1.0),
        "ratio",
    );
    if let Some(server) = own {
        server.shutdown();
    }
    Ok(())
}

/// The SQL front end against its SPARQL twin, and two workers against one.
pub fn front_ends(
    db: &Database,
    constants: Constants,
    reps: usize,
    out: &mut Vec<Metric>,
) -> Res<()> {
    // Twins only have to share their windows: one every quarter from 1993.
    let months: Vec<u64> = (0..constants.windows as u64).map(|i| 3 * i).collect();
    let (twin_sparql, twin_sql) = (catalog::q6_3mo(&months), catalog::sql_q6_3mo(&months));
    push(
        out,
        "sql.class_p50_ms",
        execute_median(db, &twin_sql, reps, false)? * 1e3,
        "ms",
    );
    push(
        out,
        "sql.sparql_twin_p50_ms",
        execute_median(db, &twin_sparql, reps, false)? * 1e3,
        "ms",
    );
    let mut speedups = Vec::new();
    for class in [
        catalog::starjoin6(),
        catalog::rdfh("q1", sordf_rdfh::QueryId::Q1),
    ] {
        let one = execute_median(db, &class, reps, false)?;
        let par = ParallelConfig::with_workers(2);
        let two = timed_median(reps, |_| {
            db.execute(&QueryRequest::sparql(&class.texts[0]).parallel(par))
                .map(|_| ())
                .map_err(|e| format!("parallel {}: {e}", class.name))
        })?;
        speedups.push(one / two);
    }
    push(out, "engine.par2_speedup", geomean(&speedups), "ratio");
    Ok(())
}

/// What a buffer-pool miss costs: (cold − hot median) ÷ misses per query.
pub fn cold_reads(db: &Database, classes: &[Class], reps: usize, out: &mut Vec<Metric>) -> Res<()> {
    let mut per_miss = Vec::new();
    for class in classes {
        let hot = execute_median(db, class, reps, false)?;
        let cold = execute_median(db, class, reps, true)?;
        db.drop_cache();
        let resp = db
            .execute(&class.request(0).traced(true))
            .map_err(|e| format!("probe {}: {e}", class.name))?;
        let misses = resp.pool.map_or(0, |p| p.misses);
        per_miss.push((misses > 0).then(|| us(cold - hot).max(0.0) / misses as f64));
    }
    push(
        out,
        "columnar.cold_us_per_miss",
        over_classes(per_miss),
        "us",
    );
    Ok(())
}

/// Where the bytes are, and what set-up spent where.
pub fn footprint(d: &Deployment, out: &mut Vec<Metric>) {
    let m = d.db.memory_stats();
    let per_triple = |bytes: u64| bytes as f64 / m.n_triples.max(1) as f64;
    push(out, "core.load_s", d.load_s, "s");
    push(out, "core.self_organize_s", d.organize_s, "s");
    push(
        out,
        "columnar.column_bytes_per_triple",
        per_triple(m.column_bytes),
        "B",
    );
    push(
        out,
        "columnar.compression_ratio",
        m.column_compression_ratio(),
        "ratio",
    );
    push(
        out,
        "columnar.pool_evictions",
        d.db.pool_stats().evictions as f64,
        "count",
    );
    push(
        out,
        "storage.base_bytes_per_triple",
        per_triple(m.base_triples_bytes),
        "B",
    );
    let (pages, free) = d.db.disk_pages();
    push(
        out,
        "storage.disk_pages",
        pages.saturating_sub(free as u64) as f64,
        "count",
    );
    push(
        out,
        "model.dict_bytes_per_triple",
        per_triple(m.dict_bytes),
        "B",
    );
    let schema = d.db.schema();
    push(
        out,
        "schema.n_tables",
        schema.as_ref().map_or(0.0, |s| s.classes.len() as f64),
        "count",
    );
    push(
        out,
        "schema.irregular_share",
        schema.as_ref().map_or(1.0, |s| 1.0 - s.coverage),
        "ratio",
    );
}

/// The model, schema and storage layers called directly: N-Triples codec,
/// dictionary encode, schema discovery, WAL append / sync, delta insert.
pub fn kernels(split: &Split, scratch: &Path, reps: usize, out: &mut Vec<Metric>) -> Res<()> {
    let batch = &split.batches[0];
    let mut text = Vec::new();
    let write_s = timed_median(reps, |_| {
        text.clear();
        ntriples::write_document(&mut text, batch).map_err(|e| format!("write_document: {e}"))
    })?;
    let text = String::from_utf8(text).map_err(|e| format!("write_document: {e}"))?;
    let parse_s = timed_median(reps, |_| {
        let parsed = ntriples::parse_document(&text).map_err(|e| format!("parse_document: {e}"))?;
        (parsed.len() == batch.len())
            .then_some(())
            .ok_or("parse_document lost triples".to_string())
    })?;
    let mb = text.len() as f64 / 1e6;
    push(out, "model.ntriples_write_mb_per_s", mb / write_s, "MB/s");
    push(out, "model.ntriples_parse_mb_per_s", mb / parse_s, "MB/s");

    let dict = Dictionary::new();
    let encode = |t: &TermTriple| -> Res<Triple> {
        let term = |t| dict.encode_term(t).map_err(|e| format!("encode_term: {e}"));
        Ok(Triple::new(term(&t.s)?, term(&t.p)?, term(&t.o)?))
    };
    let t = Instant::now();
    let mut spo = split
        .base
        .iter()
        .map(encode)
        .collect::<Res<Vec<Triple>>>()?;
    push(
        out,
        "model.dict_encode_ns_per_term",
        t.elapsed().as_secs_f64() * 1e9 / (3 * spo.len()).max(1) as f64,
        "ns",
    );
    spo.sort_unstable_by_key(Triple::key_spo);
    spo.dedup();
    let t = Instant::now();
    let schema = sordf_schema::discover(&spo, &dict, &SchemaConfig::default());
    push(out, "schema.discover_s", t.elapsed().as_secs_f64(), "s");
    std::hint::black_box(schema);

    let path = scratch.join("probe.wal");
    let mut wal = WalWriter::create(&path).map_err(|e| format!("WalWriter::create: {e}"))?;
    let record = WalRecord::Insert(batch.clone());
    let (mut append_s, mut sync_s) = (Vec::new(), Vec::new());
    for seq in 0..reps as u64 {
        let t = Instant::now();
        wal.append(seq + 1, &record)
            .map_err(|e| format!("WalWriter::append: {e}"))?;
        append_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        wal.sync().map_err(|e| format!("WalWriter::sync: {e}"))?;
        sync_s.push(t.elapsed().as_secs_f64());
    }
    drop(wal);
    let _ = std::fs::remove_file(&path);
    push(
        out,
        "storage.wal_append_us_per_batch",
        us(median(&append_s)),
        "us",
    );
    push(out, "storage.wal_sync_us", us(median(&sync_s)), "us");

    let mut delta = DeltaStore::new();
    let mut insert_s = Vec::new();
    for b in split.batches.iter().take(reps) {
        let run = b.iter().map(encode).collect::<Res<Vec<Triple>>>()?;
        let t = Instant::now();
        let _ = std::hint::black_box(delta.insert_run(run));
        insert_s.push(t.elapsed().as_secs_f64());
    }
    push(
        out,
        "storage.delta_insert_us_per_batch",
        us(median(&insert_s)),
        "us",
    );
    Ok(())
}

fn dir_bytes(dir: &Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn organized(db: Database, base: &[TermTriple]) -> Res<Database> {
    db.load_terms(base)
        .map_err(|e| format!("probe load: {e}"))?;
    db.self_organize()
        .map_err(|e| format!("probe self_organize: {e}"))?;
    Ok(db)
}

/// Insert `batches` one call each; microseconds per triple.
fn insert_us_per_triple(db: &Database, batches: &[Vec<TermTriple>]) -> Res<f64> {
    let mut triples = 0;
    let t = Instant::now();
    for b in batches {
        triples += db
            .insert_terms(b)
            .map_err(|e| format!("probe insert: {e}"))?;
    }
    Ok(us(t.elapsed().as_secs_f64()) / triples.max(1) as f64)
}

/// The write path's prices, on scratch stores bulk-loaded with the 80%
/// split: the WAL tax, checkpoint, the read tax of a pending delta,
/// reorganization in the foreground and in the background, recovery.
pub fn write_path(
    data: &Dataset,
    split: &Split,
    seed: u64,
    scale: &Scale,
    scratch: &Path,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let reps = scale.probe_reps;
    let (pending, rest) = split.batches.split_at(scale.write.window);
    let (replayed, rest) = rest.split_at(scale.write.epilogue_steps);

    // The same batches into a store without a log and into a durable one
    // that never syncs: their ratio is the WAL's tax with fsync taken out.
    let plain = organized(
        Database::in_temp_dir().map_err(|e| format!("probe store: {e}"))?,
        &split.base,
    )?;
    let nowal = insert_us_per_triple(&plain, pending)?;
    drop(plain);
    let dir = scratch.join("probe-durable");
    let db = organized(
        Database::create_durable(&dir, SyncPolicy::Never)
            .map_err(|e| format!("probe durable store: {e}"))?,
        &split.base,
    )?;
    let wal_before = dir_bytes(&dir, "wal.");
    let never = insert_us_per_triple(&db, pending)?;
    db.flush_wal().map_err(|e| format!("flush_wal: {e}"))?;
    let pending_triples: usize = pending.iter().map(Vec::len).sum();
    push(out, "core.insert_us_per_triple_nowal", nowal, "us");
    push(out, "core.insert_us_per_triple_wal_never", never, "us");
    push(out, "core.wal_tax_ratio", nowal / never, "ratio");
    push(
        out,
        "storage.wal_bytes_per_triple",
        dir_bytes(&dir, "wal.").saturating_sub(wal_before) as f64 / pending_triples.max(1) as f64,
        "B",
    );
    push(
        out,
        "storage.durable_dir_bytes",
        dir_bytes(&dir, "") as f64,
        "B",
    );
    push(out, "storage.delta_runs", db.delta_runs() as f64, "count");
    let drift = db.drift_stats();
    push(
        out,
        "schema.unmatched_share",
        drift.unmatched_subjects as f64
            / (drift.matched_subjects + drift.unmatched_subjects).max(1) as f64,
        "ratio",
    );

    // Reads over base + pending delta, then over the reorganized store.
    let classes = catalog::write_mix(data, seed, scale.constants);
    let read_ms = |db: &Database| -> Res<Vec<f64>> {
        classes
            .iter()
            .map(|c| Ok(execute_median(db, c, reps, false)? * 1e3))
            .collect()
    };
    let before = read_ms(&db)?;
    let t = Instant::now();
    db.reorganize_now()
        .map_err(|e| format!("reorganize_now: {e}"))?;
    push(out, "core.reorg_s", t.elapsed().as_secs_f64(), "s");
    let after = read_ms(&db)?;
    push(
        out,
        "core.delta_read_tax_ratio",
        geomean(&before) / geomean(&after),
        "ratio",
    );
    push(out, "core.delta_read_before_ms", geomean(&before), "ms");
    push(out, "core.delta_read_after_ms", geomean(&after), "ms");

    let t = Instant::now();
    db.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    push(out, "core.checkpoint_s", t.elapsed().as_secs_f64(), "s");

    // An un-checkpointed stop, then open: snapshot load + layout rebuild +
    // replay of the batches logged since the checkpoint.
    for b in replayed {
        db.insert_terms(b)
            .map_err(|e| format!("probe insert: {e}"))?;
    }
    let want = db.n_triples();
    drop(db);
    let t = Instant::now();
    let db = Database::open(&dir).map_err(|e| format!("open: {e}"))?;
    push(out, "core.recovery_s", t.elapsed().as_secs_f64(), "s");
    if db.n_triples() != want {
        return Err(format!(
            "probe recovery holds {} triples, {want} were acknowledged",
            db.n_triples()
        ));
    }

    // The same rebuild in the background while the script keeps going: the
    // foreground should pay the swap, never the rebuild.
    let star = catalog::starjoin4_sparse().request(0);
    let (mut insert_max, mut query_max) = (0.0f64, 0.0f64);
    let t0 = Instant::now();
    let rebuild = db
        .reorganize_async()
        .map_err(|e| format!("reorganize_async: {e}"))?;
    let mut feed = rest.iter().cycle();
    loop {
        if let Some(b) = feed.next() {
            let t = Instant::now();
            db.insert_terms(b)
                .map_err(|e| format!("probe insert: {e}"))?;
            insert_max = insert_max.max(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        db.execute(&star).map_err(|e| format!("probe query: {e}"))?;
        query_max = query_max.max(t.elapsed().as_secs_f64());
        if rebuild.is_finished() {
            break;
        }
    }
    rebuild
        .wait()
        .map_err(|e| format!("background reorganization: {e}"))?;
    push(out, "core.reorg_async_s", t0.elapsed().as_secs_f64(), "s");
    push(out, "core.reorg_fg_insert_max_ms", insert_max * 1e3, "ms");
    push(out, "core.reorg_fg_query_max_ms", query_max * 1e3, "ms");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
