//! The repository's one benchmark: four workloads over the clustered-only
//! RDF-H store, five end-to-end metrics measured with tracing off, and
//! per-layer attribution taken from outside in a separate traced run.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--smoke]
//! benchmark --check-manifest | --print-manifest
//! ```
//!
//! Every metric is printed as `name value unit`; the last line of standard
//! output is the result object the driver reads. See `README.md` beside
//! this package for what each metric means and which layer should move it.

mod catalog;
mod data;
mod deploy;
mod host;
mod http;
mod json;
mod manifest;
mod phase;
mod probes;
mod run;
mod stats;
mod trace;

use json::{obj, str, Json};
use std::path::PathBuf;
use std::process::ExitCode;

pub type Res<T> = Result<T, String>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSelective,
    AnalyticHot,
    AnalyticCold,
    WriteMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeSelective,
        Workload::AnalyticHot,
        Workload::AnalyticCold,
        Workload::WriteMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSelective => "serve_selective",
            Workload::AnalyticHot => "analytic_hot",
            Workload::AnalyticCold => "analytic_cold",
            Workload::WriteMix => "write_mix",
        }
    }

    /// Why the workload exists, as `BENCHMARK.json` records it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeSelective => {
                "tiny scans over HTTP: socket, parse, plan-cache lookup and serialization do the work, scan kernels little"
            }
            Workload::AnalyticHot => {
                "star joins and RDF-H analytics on a warm pool: scan, join and aggregate kernels do nearly all the work"
            }
            Workload::AnalyticCold => {
                "the same columnar layer with the cache dropped before every query: every pin is a file read and a page decode"
            }
            Workload::WriteMix => {
                "durable inserts and deletes beside reads of base plus delta, with reorganization and crash recovery in the loop"
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Sizes of a run. Two presets: the measured one and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// RDF-H scale factor (0.01 is about 1.03 M triples).
    pub sf: f64,
    /// How often set-up runs; `setup_s` is the median.
    pub setups: usize,
    pub constants: catalog::Constants,
    /// Samples every class needs before the phase may stop.
    pub min_class_samples: usize,
    /// Repetitions of each probe in a traced run.
    pub probe_reps: usize,
    /// Triples per write batch (whole subjects, so a batch runs slightly over).
    pub batch_triples: usize,
    pub write: phase::WriteShape,
    /// Constants per class re-checked after recovery.
    pub recheck_constants: usize,
}

impl Scale {
    /// The measured configuration. Frozen: the numbers of two commits
    /// compare only while these stay what they are.
    pub fn full() -> Scale {
        Scale {
            sf: 0.01,
            setups: 3,
            constants: catalog::Constants {
                keys: 64,
                windows: 16,
            },
            // So that every class's p95 has ten samples beyond it.
            min_class_samples: stats::min_samples_for(95.0),
            probe_reps: 15,
            batch_triples: 500,
            write: phase::WriteShape {
                window: 40,
                round_steps: 100,
                queries_per_step: 3,
                epilogue_steps: 40,
            },
            recheck_constants: 16,
        }
    }

    /// Every code path in a few seconds; the numbers mean nothing.
    pub fn smoke() -> Scale {
        Scale {
            sf: 0.001,
            setups: 1,
            constants: catalog::Constants {
                keys: 8,
                windows: 4,
            },
            min_class_samples: 4,
            probe_reps: 3,
            batch_triples: 100,
            write: phase::WriteShape {
                window: 10,
                round_steps: 20,
                queries_per_step: 3,
                epilogue_steps: 10,
            },
            recheck_constants: 4,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub smoke: bool,
}

enum Command {
    Run(Opts),
    CheckManifest,
    PrintManifest,
}

const USAGE: &str =
    "usage: benchmark --workload <serve_selective|analytic_hot|analytic_cold|write_mix> \
                     [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--smoke]\n       \
                     benchmark --check-manifest | --print-manifest";

fn parse_args(args: &[String]) -> Res<Command> {
    let mut workload = None;
    let mut opts = Opts {
        workload: Workload::AnalyticHot,
        seed: 42,
        seconds: f64::from(manifest::RUN_SECONDS),
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--check-manifest" => return Ok(Command::CheckManifest),
            "--print-manifest" => return Ok(Command::PrintManifest),
            "--smoke" => opts.smoke = true,
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(opts))
}

fn metrics_json<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj(vec![("value", Json::Num(m.value)), ("unit", str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of standard output: the
/// end-to-end metrics of an untraced run, the per-layer ones of a traced.
fn result_line(opts: &Opts, outcome: &run::Outcome) -> Json {
    let metrics = if opts.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
}

/// Run one workload and report it. Returns the result object.
fn execute(opts: &Opts) -> Res<Json> {
    let scale = if opts.smoke {
        Scale::smoke()
    } else {
        Scale::full()
    };
    let scratch = deploy::ScratchDir::create()?;
    let outcome = run::run(opts, &scale, &scratch.path)?;
    drop(scratch);
    let all: Vec<&Metric> = outcome
        .end_to_end
        .iter()
        .chain(&outcome.per_layer)
        .chain(&outcome.diagnostics)
        .collect();
    if let Some(bad) = all.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not a number", bad.name));
    }
    for m in &all {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let result = result_line(opts, &outcome);
    if let Some(out) = &opts.out {
        let report = obj(vec![
            ("workload", str(opts.workload.name())),
            ("seed", Json::Num(opts.seed as f64)),
            ("seconds", Json::Num(opts.seconds)),
            ("traced", Json::Bool(opts.trace)),
            ("sf", Json::Num(scale.sf)),
            (
                "nproc",
                Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
            ),
            ("result", result.clone()),
            ("all_metrics", metrics_json(all)),
        ]);
        std::fs::write(out, report.render() + "\n")
            .map_err(|e| format!("write {}: {e}", out.display()))?;
        if let Some(tracer) = &outcome.tracer {
            let path = out.with_file_name("trace.jsonl");
            std::fs::write(&path, tracer.to_jsonl())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
    }
    Ok(result)
}

/// A smoke run of every workload, traced and not: each must be correct and
/// emit exactly the declared metrics, nothing missing and nothing else.
fn smoke_set() -> Res<Vec<(Workload, bool, Json)>> {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Opts {
                workload,
                seed: 42,
                seconds: 0.2,
                trace,
                out: None,
                smoke: true,
            };
            let result = execute(&opts)?;
            let mut emitted = result.get("metrics").map(Json::keys).unwrap_or_default();
            let mut declared: Vec<&str> = if trace {
                manifest::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                manifest::END_TO_END.iter().map(|m| m.name).collect()
            };
            emitted.sort_unstable();
            declared.sort_unstable();
            if emitted != declared {
                let missing: Vec<_> = declared.iter().filter(|n| !emitted.contains(n)).collect();
                let extra: Vec<_> = emitted.iter().filter(|n| !declared.contains(n)).collect();
                return Err(format!(
                    "{} --trace {}: declared but not emitted {missing:?}, emitted but not declared {extra:?}",
                    workload.name(),
                    u8::from(trace)
                ));
            }
            if result.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("{} smoke run is not correct", workload.name()));
            }
            results.push((workload, trace, result));
        }
    }
    Ok(results)
}

/// `--check-manifest`: `BENCHMARK.json` is within the contract's limits and
/// is what this binary declares, and the smoke runs emit what it declares.
fn check_manifest() -> Res<()> {
    manifest::check_file()?;
    smoke_set().map(|_| ())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse_args(&args) {
        Err(e) => Err(format!("{e}\n{USAGE}")),
        Ok(Command::PrintManifest) => {
            print!("{}", manifest::render_pretty());
            return ExitCode::SUCCESS;
        }
        Ok(Command::CheckManifest) => check_manifest().map(|()| None),
        Ok(Command::Run(opts)) => execute(&opts).map(Some),
    };
    match outcome {
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
        Ok(None) => {
            println!("manifest ok");
            ExitCode::SUCCESS
        }
        Ok(Some(result)) => {
            println!("{}", result.render());
            // A run that got a wrong answer reports it and fails.
            if result.get("correct") == Some(&Json::Bool(true)) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(result: &Json, name: &str) -> f64 {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no metric {name}"))
    }

    /// One test for everything that runs a workload: runs set `TMPDIR` and
    /// share the working directory, so they must not overlap.
    #[test]
    fn smoke_runs_emit_the_declared_metrics_and_repeat_their_counts() {
        manifest::check_file().unwrap();
        let (first, second) = (smoke_set().unwrap(), smoke_set().unwrap());
        for ((workload, trace, a), (_, _, b)) in first.iter().zip(&second) {
            // write_mix stops on the clock, so the batches its window holds
            // at the end, and every count that sees them, follow the host's
            // speed; its log format does not.
            let counts: &[&str] = match (workload, trace) {
                (Workload::WriteMix, false) => &[],
                (_, false) => &["bytes_per_triple"],
                (Workload::WriteMix, true) => &["storage.wal_bytes_per_triple"],
                (_, true) => &[
                    "engine.rows_scanned_per_query",
                    "columnar.pool_misses_per_query",
                    "storage.wal_bytes_per_triple",
                ],
            };
            for name in counts {
                assert_eq!(value(a, name), value(b, name), "{} {name}", workload.name());
            }
        }
    }

    #[test]
    fn arguments_parse_as_the_driver_passes_them() {
        let args: Vec<String> = "--workload write_mix --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let Ok(Command::Run(opts)) = parse_args(&args) else {
            panic!("did not parse");
        };
        assert_eq!(opts.workload, Workload::WriteMix);
        assert_eq!((opts.seed, opts.seconds, opts.trace), (7, 3.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
