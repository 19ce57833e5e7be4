//! One run of one workload: inputs from the seed, set-up, correctness
//! check, the measured phase, and the metrics.

use crate::catalog::{self, Class};
use crate::data::{self, Split};
use crate::deploy::{self, check_against_reference, Deployment, Reference};
use crate::phase::{self, Group, Limits, Phase, Writer};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use crate::{Metric, Opts, Res, Scale, Workload};
use sordf::Database;
use sordf_model::TermTriple;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    /// Empty unless the run was traced.
    pub per_layer: Vec<Metric>,
    /// Printed and written to `--out`, never part of the result line: the
    /// per-class figures and what only one workload has.
    pub diagnostics: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// What `write_mix` does once the clock has stopped: a fixed tail of writes,
/// an un-checkpointed stop, `Database::open`, and the check that the
/// recovered store holds exactly what was acknowledged and answers every
/// class like a fresh bulk load of it. Returns the recovered deployment and
/// `(checks, failures)`.
fn crash_and_recover(
    d: Deployment,
    split: &Split,
    classes: &[Class],
    writer: &mut Writer,
    scale: &Scale,
    diagnostics: &mut Vec<Metric>,
) -> Res<(Deployment, u64, u64)> {
    let failed_before = writer.failed;
    let mut untimed = Tracer::new(false, Instant::now());
    for step in 0..scale.write.epilogue_steps {
        writer.step(&d.db, &mut untimed, step as u64);
    }
    let live: Vec<&[TermTriple]> = writer.live_batches().map(Vec::as_slice).collect();
    let want = split.base.len() + live.iter().map(|b| b.len()).sum::<usize>();
    let Deployment { db, dir, .. } = d;
    let dir = dir.ok_or("write_mix has no durable directory")?;
    // The stop: the only handle goes away, and nothing checkpoints.
    drop(db);
    let t = Instant::now();
    let db = Database::open(&dir).map_err(|e| format!("open after the stop: {e}"))?;
    diagnostics.push(Metric::new("recovery_s", t.elapsed().as_secs_f64(), "s"));

    let (mut checks, mut failed) = (1, writer.failed - failed_before);
    if db.n_triples() != want {
        eprintln!(
            "MISMATCH recovered store holds {} triples, {want} were acknowledged",
            db.n_triples()
        );
        failed += 1;
    }
    let mut loads = vec![split.base.as_slice()];
    loads.extend(live);
    let reference = Reference::build(&loads)?;
    let answers = check_against_reference(&db, classes, &reference, scale.recheck_constants)?;
    checks += answers.checks;
    failed += answers.mismatches;
    let recovered = Deployment {
        db: Arc::new(db),
        server: None,
        addr: None,
        dir: Some(dir),
        setup_s: d.setup_s,
        load_s: d.load_s,
        organize_s: d.organize_s,
    };
    Ok((recovered, checks, failed))
}

/// What a traced run adds once the phase is over: the `bench.*` figures of
/// the phase, the decomposition pass and the price probes.
struct Layers<'a> {
    workload: Workload,
    seed: u64,
    scale: &'a Scale,
    scratch: &'a Path,
    data: &'a data::Dataset,
    split: &'a Split,
    classes: &'a [Class],
    deployment: &'a Deployment,
}

impl Layers<'_> {
    /// Returns the run's spans, the decomposition pass's included.
    fn measure(
        &self,
        phase: Phase,
        per_layer: &mut Vec<Metric>,
        diagnostics: &mut Vec<Metric>,
    ) -> Res<Tracer> {
        let d = self.deployment;
        let all_ms: Vec<f64> = phase
            .classes
            .iter()
            .flat_map(|c| c.ms.iter().copied())
            .collect();
        let whole_p99 = |c: &phase::ClassSamples| {
            let mut v = c.ms.clone();
            stats::sort(&mut v);
            stats::percentile(&v, 99.0)
        };
        per_layer.extend([
            Metric::new("bench.op_p99_ms", phase.latency_ms(whole_p99), "ms"),
            Metric::new(
                "bench.op_max_ms",
                all_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            Metric::new("bench.traced_ops_per_s", phase.ops_per_s, "1/s"),
            Metric::new("bench.samples", all_ms.len() as f64, "count"),
            Metric::new(
                "bench.fewest_class_samples",
                phase.fewest_samples() as f64,
                "count",
            ),
            Metric::new(
                "bench.p95_samples_beyond",
                stats::samples_beyond(phase.fewest_samples(), 95.0) as f64,
                "count",
            ),
            Metric::new("bench.measured_s", phase.wall_s, "s"),
            Metric::new("bench.clock_slowness", phase.clock_slowness, "ratio"),
        ]);
        // What the caller waited for per query class (the write classes of
        // write_mix come after them and are not queries), by the wall clock
        // like everything the probes time.
        let wall = if phase.scaled {
            phase.clock_slowness
        } else {
            1.0
        };
        let waited_ms: Vec<f64> = phase
            .classes
            .iter()
            .filter(|c| c.group == Group::Read)
            .map(|c| stats::median(&c.ms) * wall)
            .collect();
        let reps = self.scale.probe_reps;
        let mut tracer = phase.tracer;
        diagnostics.extend(probes::decompose(
            &d.db,
            self.classes,
            &waited_ms,
            self.workload == Workload::AnalyticCold,
            reps,
            &mut tracer,
            per_layer,
        )?);
        probes::server(d, self.classes, reps, per_layer)?;
        probes::front_ends(&d.db, self.scale.constants, reps, per_layer)?;
        probes::cold_reads(&d.db, self.classes, reps, per_layer)?;
        probes::footprint(d, per_layer);
        probes::kernels(self.split, self.scratch, reps, per_layer)?;
        probes::write_path(
            self.data,
            self.split,
            self.seed,
            self.scale,
            self.scratch,
            per_layer,
        )?;

        let self_times = tracer.self_times();
        let request = self_times.get("request").copied().unwrap_or_default();
        per_layer.extend([
            Metric::new(
                "bench.span_overhead_share",
                request.self_ns as f64 / request.total_ns.max(1) as f64,
                "ratio",
            ),
            Metric::new("bench.spans", tracer.spans().len() as f64, "count"),
        ]);
        for (name, st) in &self_times {
            diagnostics.push(Metric::new(
                format!("trace.{name}.self_ms"),
                st.self_ns as f64 / 1e6,
                "ms",
            ));
        }
        Ok(tracer)
    }
}

pub fn run(opts: &Opts, scale: &Scale, scratch: &Path) -> Res<Outcome> {
    let workload = opts.workload;
    let epoch = Instant::now();
    let mut data = data::generate(scale.sf, opts.seed);
    let classes = match workload {
        Workload::ServeSelective => catalog::serve_selective(&data, opts.seed, scale.constants),
        Workload::AnalyticHot => catalog::analytic_hot(),
        Workload::AnalyticCold => catalog::analytic_cold(opts.seed, scale.constants),
        Workload::WriteMix => catalog::write_mix(&data, opts.seed, scale.constants),
    };
    let mut split = (workload == Workload::WriteMix).then(|| {
        data::split(
            std::mem::take(&mut data.triples),
            opts.seed,
            scale.batch_triples,
        )
    });
    let loaded: &[TermTriple] = split.as_ref().map_or(&data.triples, |s| &s.base);

    // The reference, then set-up several times over: the median is the
    // set-up time, the last product is the one measured.
    let t = Instant::now();
    let reference = Reference::build(&[loaded])?;
    let mut verify_s = t.elapsed().as_secs_f64();
    let mut setups = Vec::new();
    let mut deployment: Option<Deployment> = None;
    for attempt in 0..scale.setups {
        if let Some(previous) = deployment.take() {
            previous.tear_down();
        }
        let d = deploy::set_up(workload, loaded, &classes, scratch, attempt)?;
        setups.push(d.setup_s);
        deployment = Some(d);
    }
    let mut d = deployment.ok_or("no set-up ran")?;
    let t = Instant::now();
    let expected = check_against_reference(&d.db, &classes, &reference, usize::MAX)?;
    drop(reference);
    verify_s += t.elapsed().as_secs_f64();
    let (mut attempted, mut failed) = (expected.checks, expected.mismatches);

    let limits = Limits {
        seconds: opts.seconds,
        min_class_samples: scale.min_class_samples,
    };
    let tracer = Tracer::new(opts.trace, epoch);
    let plans_before = d.db.plan_cache_stats();
    let mut diagnostics = Vec::new();
    let mut writer = split
        .as_ref()
        .map(|s| Writer::new(&s.batches, scale.write.window));
    let phase: Phase = match workload {
        Workload::ServeSelective => {
            let addr = d.addr.ok_or("serve_selective has no server")?;
            phase::run_serve(addr, &classes, &expected, opts.seed, limits, tracer)?
        }
        Workload::AnalyticHot | Workload::AnalyticCold => phase::run_library(
            &d.db,
            &classes,
            &expected,
            workload == Workload::AnalyticCold,
            limits,
            tracer,
        ),
        Workload::WriteMix => {
            let writer = writer.as_mut().ok_or("write_mix has no writer")?;
            let w = phase::run_write_mix(&d.db, &classes, writer, scale.write, limits, tracer);
            diagnostics.extend([
                Metric::new(
                    "write_triples_per_s",
                    w.triples_written as f64 / w.write_busy_s,
                    "1/s",
                ),
                Metric::new("reorg_s", stats::median(&w.reorg_s), "s"),
                Metric::new("reorgs", w.reorg_s.len() as f64, "count"),
            ]);
            w.phase
        }
    };
    let plans_after = d.db.plan_cache_stats();
    attempted += phase.attempted;
    failed += phase.failed;

    if let (Some(split), Some(writer)) = (split.as_ref(), writer.as_mut()) {
        let t = Instant::now();
        let (recovered, checks, mismatches) =
            crash_and_recover(d, split, &classes, writer, scale, &mut diagnostics)?;
        d = recovered;
        verify_s += t.elapsed().as_secs_f64();
        attempted += checks;
        failed += mismatches;
    }
    drop(writer);

    let end_to_end = vec![
        Metric::new("setup_s", stats::median(&setups), "s"),
        Metric::new("ops_per_s", phase.ops_per_s, "1/s"),
        Metric::new("op_p50_ms", phase.p50_ms(), "ms"),
        Metric::new("op_p95_ms", phase.p95_ms(), "ms"),
        Metric::new(
            "bytes_per_triple",
            d.db.memory_stats().bytes_per_triple(),
            "B",
        ),
    ];
    for c in &phase.classes {
        let name = c.name;
        diagnostics.extend([
            Metric::new(format!("class.{name}.p50_ms"), stats::median(&c.ms), "ms"),
            Metric::new(format!("class.{name}.p95_ms"), c.p95_ms(), "ms"),
            Metric::new(format!("class.{name}.samples"), c.ms.len() as f64, "count"),
        ]);
    }
    diagnostics.extend([
        Metric::new("clock_slowness", phase.clock_slowness, "ratio"),
        Metric::new("measured_s", phase.wall_s, "s"),
        Metric::new("datagen_s", data.datagen_s, "s"),
        Metric::new("verify_s", verify_s, "s"),
    ]);

    let mut per_layer = Vec::new();
    let mut tracer = None;
    if opts.trace {
        let hits = plans_after.hits - plans_before.hits;
        let lookups = hits + plans_after.misses - plans_before.misses;
        per_layer.push(Metric::new(
            "core.plan_cache_hit_share",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
        ));
        per_layer.extend([
            Metric::new("bench.datagen_s", data.datagen_s, "s"),
            Metric::new("bench.verify_s", verify_s, "s"),
        ]);
        let split = match split.take() {
            Some(split) => split,
            None => data::split(
                std::mem::take(&mut data.triples),
                opts.seed,
                scale.batch_triples,
            ),
        };
        let layers = Layers {
            workload,
            seed: opts.seed,
            scale,
            scratch,
            data: &data,
            split: &split,
            classes: &classes,
            deployment: &d,
        };
        tracer = Some(layers.measure(phase, &mut per_layer, &mut diagnostics)?);
    }
    d.tear_down();
    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        diagnostics,
        tracer,
    })
}
