//! What the benchmark declares: workloads, end-to-end metrics with their
//! bounds, per-layer metrics. `BENCHMARK.json` at the repository root is
//! this file rendered (`--print-manifest`); `--check-manifest` holds the two
//! together and checks that a run emits exactly what is declared.

use crate::json::{self, obj, str, Json};
use crate::{Res, Workload};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u32 = 15;

/// The one directory that holds the benchmark.
pub const PATH: &str = "crates/bench/src/bin/benchmark";

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "bytes_per_triple",
        unit: "B",
        better: "lower",
        bound: 0.01,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 68] = [
    layer("server.roundtrip_overhead_us", "us", "lower"),
    layer("server.response_bytes_per_request", "B", "lower"),
    layer("server.rejected_share", "ratio", "lower"),
    layer("sparql.parse_us", "us", "lower"),
    layer("sql.class_p50_ms", "ms", "lower"),
    layer("sql.sparql_twin_p50_ms", "ms", "lower"),
    layer("core.plan_us", "us", "lower"),
    layer("core.plan_cache_hit_share", "ratio", "higher"),
    layer("core.load_s", "s", "lower"),
    layer("core.self_organize_s", "s", "lower"),
    layer("core.insert_us_per_triple_nowal", "us", "lower"),
    layer("core.insert_us_per_triple_wal_never", "us", "lower"),
    layer("core.wal_tax_ratio", "ratio", "higher"),
    layer("core.checkpoint_s", "s", "lower"),
    layer("core.delta_read_tax_ratio", "ratio", "lower"),
    layer("core.delta_read_before_ms", "ms", "lower"),
    layer("core.delta_read_after_ms", "ms", "lower"),
    layer("core.reorg_s", "s", "lower"),
    layer("core.recovery_s", "s", "lower"),
    layer("core.reorg_async_s", "s", "lower"),
    layer("core.reorg_fg_insert_max_ms", "ms", "lower"),
    layer("core.reorg_fg_query_max_ms", "ms", "lower"),
    layer("engine.exec_us", "us", "lower"),
    layer("engine.exec_share", "ratio", "lower"),
    layer("engine.ns_per_row_scanned", "ns", "lower"),
    layer("engine.rows_scanned_per_query", "count", "lower"),
    layer("engine.rows_scanned_per_result_row", "ratio", "lower"),
    layer("engine.pages_scanned_per_query", "count", "lower"),
    layer("engine.zonemap_skip_share", "ratio", "higher"),
    layer("engine.hash_joins_per_query", "count", "lower"),
    layer("engine.merge_joins_per_query", "count", "lower"),
    layer("engine.rdf_joins_per_query", "count", "lower"),
    layer("engine.par2_speedup", "ratio", "higher"),
    layer("columnar.pool_hits_per_query", "count", "lower"),
    layer("columnar.pool_misses_per_query", "count", "lower"),
    layer("columnar.pool_hit_share", "ratio", "higher"),
    layer("columnar.pool_evictions", "count", "lower"),
    layer("columnar.cold_us_per_miss", "us", "lower"),
    layer("columnar.column_bytes_per_triple", "B", "lower"),
    layer("columnar.compression_ratio", "ratio", "higher"),
    layer("storage.wal_append_us_per_batch", "us", "lower"),
    layer("storage.wal_sync_us", "us", "lower"),
    layer("storage.wal_bytes_per_triple", "B", "lower"),
    layer("storage.delta_insert_us_per_batch", "us", "lower"),
    layer("storage.delta_runs", "count", "lower"),
    layer("storage.disk_pages", "count", "lower"),
    layer("storage.base_bytes_per_triple", "B", "lower"),
    layer("storage.durable_dir_bytes", "B", "lower"),
    layer("model.ntriples_parse_mb_per_s", "MB/s", "higher"),
    layer("model.ntriples_write_mb_per_s", "MB/s", "higher"),
    layer("model.dict_encode_ns_per_term", "ns", "lower"),
    layer("model.dict_bytes_per_triple", "B", "lower"),
    layer("schema.discover_s", "s", "lower"),
    layer("schema.irregular_share", "ratio", "lower"),
    layer("schema.unmatched_share", "ratio", "lower"),
    layer("schema.n_tables", "count", "lower"),
    layer("bench.op_p99_ms", "ms", "lower"),
    layer("bench.op_max_ms", "ms", "lower"),
    layer("bench.datagen_s", "s", "lower"),
    layer("bench.verify_s", "s", "lower"),
    layer("bench.traced_ops_per_s", "1/s", "higher"),
    layer("bench.samples", "count", "higher"),
    layer("bench.fewest_class_samples", "count", "higher"),
    layer("bench.p95_samples_beyond", "count", "higher"),
    layer("bench.span_overhead_share", "ratio", "lower"),
    layer("bench.spans", "count", "lower"),
    layer("bench.measured_s", "s", "lower"),
    layer("bench.clock_slowness", "ratio", "lower"),
];

/// `BENCHMARK.json`, with exactly the keys the contract names.
pub fn render() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/benchmark/Cargo.toml",
        "--",
    ];
    obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![str(PATH)])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| obj(vec![("name", str(w.name())), ("why", str(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", str(m.name)),
                            ("unit", str(m.unit)),
                            ("better", str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// One field per line for the arrays of objects, so a diff of the manifest
/// reads metric by metric.
pub fn render_pretty() -> String {
    let doc = render();
    let mut out = String::from("{\n");
    let keys = doc.keys();
    for (i, key) in keys.iter().enumerate() {
        let value = doc.get(key).unwrap_or(&Json::Null);
        let last = i + 1 == keys.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.render()));
                }
                out.push_str("  ]");
            }
            _ => out.push_str(&format!("  \"{key}\": {}", value.render())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn field<'a>(item: &'a Json, key: &str) -> Res<&'a str> {
    item.get(key)
        .and_then(Json::as_str)
        .ok_or(format!("{} has no string \"{key}\"", item.render()))
}

fn exact_keys(item: &Json, keys: &[&str]) -> Res<()> {
    if item.keys() == keys {
        Ok(())
    } else {
        Err(format!(
            "{} must have exactly the keys {keys:?}",
            item.render()
        ))
    }
}

/// The contract's limits on a manifest document, whatever it declares.
pub fn check_limits(text: &str) -> Res<()> {
    if text.len() > 64 * 1024 {
        return Err("manifest exceeds 64 KiB".into());
    }
    let doc = json::parse(text)?;
    exact_keys(
        &doc,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
    )?;
    let list = |key: &str, min: usize, max: usize| -> Res<&[Json]> {
        let items = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("\"{key}\" is not a list"))?;
        if items.len() < min || items.len() > max {
            return Err(format!(
                "\"{key}\" has {} entries, allowed {min}..={max}",
                items.len()
            ));
        }
        Ok(items)
    };
    for arg in list("command", 1, 32)? {
        let arg = arg.as_str().ok_or("command holds a non-string")?;
        if arg.len() > 200 || arg.starts_with('/') || arg.split('/').any(|part| part == "..") {
            return Err(format!("command argument {arg:?} is not allowed"));
        }
    }
    let paths = list("paths", 1, 16)?;
    if paths.len() != 1 || paths[0].as_str() != Some(PATH) {
        return Err(format!("\"paths\" must be exactly [{PATH:?}]"));
    }
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap_or(0.0);
    if seconds.fract() != 0.0 || !(1.0..=60.0).contains(&seconds) {
        return Err("\"run_seconds\" must be a whole number from 1 to 60".into());
    }
    let mut names = Vec::new();
    for w in list("workloads", 2, 8)? {
        exact_keys(w, &["name", "why"])?;
        names.push(field(w, "name")?);
        let why = field(w, "why")?;
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "why of {:?} must be one line of at most 200",
                names.last()
            ));
        }
    }
    let mut has_setup = false;
    for m in list("end_to_end", 1, 16)? {
        exact_keys(m, &["name", "unit", "better", "bound"])?;
        let bound = m.get("bound").and_then(Json::as_f64);
        if !bound.is_some_and(|b| b > 0.0 && b <= 0.25) {
            return Err(format!("{} needs a bound in (0, 0.25]", m.render()));
        }
        has_setup |= field(m, "name")? == "setup_s"
            && field(m, "unit")? == "s"
            && field(m, "better")? == "lower";
    }
    if !has_setup {
        return Err("end_to_end needs setup_s, unit s, better lower".into());
    }
    for m in list("per_layer", 1, 128)? {
        exact_keys(m, &["name", "unit", "better"])?;
    }
    for m in list("end_to_end", 1, 16)?
        .iter()
        .chain(list("per_layer", 1, 128)?)
    {
        names.push(field(m, "name")?);
        if !unit_ok(field(m, "unit")?) {
            return Err(format!("{} has a bad unit", m.render()));
        }
        if !matches!(field(m, "better")?, "lower" | "higher") {
            return Err(format!("{}: better is \"lower\" or \"higher\"", m.render()));
        }
    }
    if let Some(bad) = names.iter().find(|n| !name_ok(n)) {
        return Err(format!(
            "name {bad:?} is not [A-Za-z0-9][A-Za-z0-9_.-]{{0,63}}"
        ));
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("name {:?} is used twice", w[0]));
    }
    Ok(())
}

/// The repository's `BENCHMARK.json`, found from this package's directory.
pub fn repository_manifest() -> Res<String> {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// The file is within the contract's limits and declares exactly what this
/// binary declares.
pub fn check_file() -> Res<()> {
    let text = repository_manifest()?;
    check_limits(&text)?;
    if json::parse(&text)? != render() {
        return Err("BENCHMARK.json differs from what --print-manifest renders".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_manifest_is_within_the_limits() {
        check_limits(&render_pretty()).unwrap();
        assert_eq!(json::parse(&render_pretty()).unwrap(), render());
    }

    #[test]
    fn repository_manifest_is_the_rendered_one() {
        check_file().unwrap();
    }

    #[test]
    fn limits_catch_the_usual_mistakes() {
        let good = render_pretty();
        check_limits(&good).unwrap();
        let bad = [
            good.replace("\"setup_s\"", "\"set up\""),
            good.replace("\"bound\":0.01", "\"bound\":0.5"),
            good.replace("\"op_p95_ms\"", "\"op_p50_ms\""),
            good.replace(PATH, "crates/bench"),
            good.replace(
                &format!("\"run_seconds\": {RUN_SECONDS}"),
                "\"run_seconds\": 90",
            ),
            good.replace("\"unit\":\"ms\"", "\"unit\":\"milli seconds\""),
            good.replace("\"--quiet\"", "\"../x\""),
            good.replacen("\"better\":\"lower\",", "", 1),
        ];
        for doc in bad {
            assert_ne!(doc, good, "a mistake that changes nothing");
            assert!(check_limits(&doc).is_err(), "accepted:\n{doc}");
        }
    }
}
