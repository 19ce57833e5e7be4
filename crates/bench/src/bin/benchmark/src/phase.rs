//! The measured phases: what each workload does while the clock runs.
//!
//! All loops are closed: a caller sends its next operation only after the
//! reply to the previous one. Each operation is timed alone, through
//! [`Tracer::span`]; checking the reply happens outside the timed interval.
//! A phase ends once `--seconds` have passed *and* every class has enough
//! samples for its p95 to have ten samples beyond it.
//!
//! Throughput is taken per *slice*, the workload's repeating unit (a pass
//! over the classes, a few hundred requests of a client, a write round),
//! and the median slice is reported, so that a neighbour's burst on the
//! shared host counts as one slow slice and not as its share of the phase.
//!
//! The two `analytic_*` workloads are bound by the core, whose clock rate
//! the host changes in steps: their times are scaled to the nominal rate by
//! a [`HostClock`] (see `host.rs`). The other two follow the clock rate
//! little and are reported as the wall clock had them.

use crate::catalog::Class;
use crate::deploy::{body_matches, same_rows, target, Expected};
use crate::host::HostClock;
use crate::http::Client;
use crate::stats;
use crate::trace::Tracer;
use crate::Res;
use sordf::Database;
use sordf_model::TermTriple;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::Instant;

/// Reads and writes weigh equally in the latency aggregates of a workload
/// that has both, however many classes each side has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Group {
    Read,
    Write,
}

#[derive(Debug, Clone)]
pub struct ClassSamples {
    pub name: &'static str,
    pub group: Group,
    /// One latency per operation, in milliseconds, in the order taken.
    pub ms: Vec<f64>,
    /// Samples in a block of the class's p95 (see
    /// [`stats::block_percentile`]).
    pub block: usize,
}

impl ClassSamples {
    pub fn p95_ms(&self) -> f64 {
        stats::block_percentile(&self.ms, 95.0, self.block)
    }
}

pub struct Phase {
    pub classes: Vec<ClassSamples>,
    pub attempted: u64,
    pub failed: u64,
    /// Correct operations per second of the time a caller spent waiting for
    /// replies, in the caller's median slice; summed over caller threads.
    pub ops_per_s: f64,
    pub wall_s: f64,
    /// How slowly the host's clock ran against the nominal rate: the median
    /// over the phase where the times are scaled by it, one reading after
    /// the phase where they are not.
    pub clock_slowness: f64,
    /// Are the times scaled to the nominal clock rate?
    pub scaled: bool,
    pub tracer: Tracer,
}

/// When a phase may stop.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub seconds: f64,
    pub min_class_samples: usize,
}

#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    limits: Limits,
}

impl Clock {
    fn start(limits: Limits) -> Clock {
        Clock {
            start: Instant::now(),
            limits,
        }
    }

    /// Stop after `--seconds` once the sample floor is met; whatever the
    /// samples, stop at four times `--seconds` so a slow host still ends.
    fn done(&self, floor_met: bool) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        (t >= self.limits.seconds && floor_met) || t >= 4.0 * self.limits.seconds
    }

    fn enough(&self, fewest_samples: usize) -> bool {
        self.done(fewest_samples >= self.limits.min_class_samples)
    }
}

/// Correct operations and waiting time of one caller, slice by slice.
#[derive(Default)]
struct Slices {
    throughputs: Vec<f64>,
    ok: u64,
    busy_s: f64,
}

impl Slices {
    fn record(&mut self, ok: bool, secs: f64) {
        self.ok += u64::from(ok);
        self.busy_s += secs;
    }

    fn close(&mut self) {
        if self.busy_s > 0.0 {
            self.throughputs.push(self.ok as f64 / self.busy_s);
        }
        (self.ok, self.busy_s) = (0, 0.0);
    }

    /// Throughput of the median slice; an unfinished slice is left out.
    fn median(&self) -> f64 {
        stats::median(&self.throughputs)
    }
}

fn empty_samples(classes: &[Class]) -> Vec<ClassSamples> {
    classes
        .iter()
        .map(|c| ClassSamples {
            name: c.name,
            group: Group::Read,
            ms: Vec::new(),
            block: stats::BLOCK,
        })
        .collect()
}

impl Phase {
    /// Geometric mean over the groups of the geometric mean over the group's
    /// classes of `of_class`, a latency figure of one class.
    pub fn latency_ms(&self, of_class: impl Fn(&ClassSamples) -> f64) -> f64 {
        let groups: Vec<f64> = [Group::Read, Group::Write]
            .iter()
            .filter_map(|g| {
                let per_class: Vec<f64> = self
                    .classes
                    .iter()
                    .filter(|c| c.group == *g)
                    .map(&of_class)
                    .collect();
                (!per_class.is_empty()).then(|| stats::geomean(&per_class))
            })
            .collect();
        stats::geomean(&groups)
    }

    /// `op_p50_ms`: the per-class figure is the median of the phase.
    pub fn p50_ms(&self) -> f64 {
        self.latency_ms(|c| stats::median(&c.ms))
    }

    /// `op_p95_ms`: the per-class figure is the median block's p95.
    pub fn p95_ms(&self) -> f64 {
        self.latency_ms(ClassSamples::p95_ms)
    }

    pub fn fewest_samples(&self) -> usize {
        self.classes.iter().map(|c| c.ms.len()).min().unwrap_or(0)
    }
}

/// `analytic_hot` / `analytic_cold`: one thread, `Database::execute`,
/// round-robin over the classes. Cold drops the page cache before every
/// query, outside the timed interval.
pub fn run_library(
    db: &Database,
    classes: &[Class],
    expected: &Expected,
    cold: bool,
    limits: Limits,
    mut tracer: Tracer,
) -> Phase {
    let traced = tracer.is_on();
    let mut samples = empty_samples(classes);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut slices = Slices::default();
    let mut host = HostClock::start();
    let clock = Clock::start(limits);
    let mut round = 0usize;
    loop {
        for (ci, class) in classes.iter().enumerate() {
            let k = round % class.texts.len();
            let req = class.request(k).traced(traced);
            if cold {
                tracer.span("columnar.drop_cache", attempted, |_| db.drop_cache());
            }
            let (reply, secs) = tracer.span("core.execute", attempted, |_| db.execute(&req));
            attempted += 1;
            let secs = host.at_nominal(secs);
            samples[ci].ms.push(secs * 1e3);
            let ok = matches!(&reply, Ok(r) if same_rows(&r.results, &expected.results[ci][k]));
            slices.record(ok, secs);
            failed += u64::from(!ok);
            host.observe();
        }
        // One pass over the classes is a slice.
        slices.close();
        round += 1;
        if clock.enough(round) {
            break;
        }
    }
    Phase {
        classes: samples,
        attempted,
        failed,
        ops_per_s: slices.median(),
        wall_s: clock.start.elapsed().as_secs_f64(),
        clock_slowness: stats::median(host.history()),
        scaled: true,
        tracer,
    }
}

/// Share of each `serve_selective` class in the request mix, in percent, in
/// the order of [`crate::catalog::serve_selective`].
pub const SERVE_MIX: [u32; 5] = [40, 25, 20, 10, 5];
pub const SERVE_CLIENTS: usize = 2;
/// Requests of one client that make a throughput slice.
const SERVE_SLICE: u64 = 250;

/// The request sequence of one client: class by the mix, constant uniform.
/// A pure function of `(seed, client)`.
pub struct Schedule {
    rng: crate::data::Rng,
    constants: Vec<usize>,
}

impl Schedule {
    pub fn new(seed: u64, client: usize, classes: &[Class]) -> Schedule {
        Schedule {
            rng: crate::data::Rng::new(seed ^ (0x5c4e_d01e + client as u64)),
            constants: classes.iter().map(|c| c.texts.len()).collect(),
        }
    }

    pub fn next_request(&mut self) -> (usize, usize) {
        let mut ticket = self.rng.below(100) as u32;
        let mut class = 0;
        while ticket >= SERVE_MIX[class] {
            ticket -= SERVE_MIX[class];
            class += 1;
        }
        let k = self.rng.below(self.constants[class] as u64) as usize;
        (class, k)
    }
}

struct ClientRun {
    ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    slices: Slices,
    tracer: Tracer,
}

/// `serve_selective`: two keep-alive clients against the in-process server,
/// each walking its own seeded schedule; every wire body is compared
/// byte-for-byte with the library rendering.
pub fn run_serve(
    addr: SocketAddr,
    classes: &[Class],
    expected: &Expected,
    seed: u64,
    limits: Limits,
    mut tracer: Tracer,
) -> Res<Phase> {
    assert_eq!(classes.len(), SERVE_MIX.len());
    let traced = tracer.is_on();
    let targets: Vec<Vec<String>> = classes
        .iter()
        .map(|c| (0..c.texts.len()).map(|k| target(c, k, traced)).collect())
        .collect();
    // The rarest class is 5% of the mix: each client sends enough requests
    // for the two of them to reach the sample floor on it.
    let rarest = f64::from(*SERVE_MIX.iter().min().unwrap_or(&1)) / 100.0;
    let min_ops = ((limits.min_class_samples as f64 * 1.3 / rarest / SERVE_CLIENTS as f64) as u64)
        .max(SERVE_SLICE);
    let clock = Clock::start(limits);
    let runs: Vec<Res<ClientRun>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..SERVE_CLIENTS)
            .map(|client| {
                let targets = &targets;
                let client_tracer = tracer.fork();
                s.spawn(move || -> Res<ClientRun> {
                    let mut http = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let mut schedule = Schedule::new(seed, client, classes);
                    let mut run = ClientRun {
                        ms: vec![Vec::new(); classes.len()],
                        attempted: 0,
                        failed: 0,
                        slices: Slices::default(),
                        tracer: client_tracer,
                    };
                    loop {
                        let (ci, k) = schedule.next_request();
                        // Request ids of the two clients interleave.
                        let id = run.attempted * SERVE_CLIENTS as u64 + client as u64;
                        let (reply, secs) = run
                            .tracer
                            .span("server.roundtrip", id, |_| http.get(&targets[ci][k]));
                        run.attempted += 1;
                        run.ms[ci].push(secs * 1e3);
                        let ok = matches!(&reply, Ok((200, body))
                            if body_matches(body, &expected.bodies[ci][k], traced));
                        run.slices.record(ok, secs);
                        if run.attempted % SERVE_SLICE == 0 {
                            run.slices.close();
                        }
                        if !ok {
                            run.failed += 1;
                            // A broken connection cannot carry the next request.
                            if reply.is_err() {
                                http =
                                    Client::connect(addr).map_err(|e| format!("reconnect: {e}"))?;
                            }
                        }
                        if clock.done(run.attempted >= min_ops) {
                            return Ok(run);
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = clock.start.elapsed().as_secs_f64();
    let mut samples = empty_samples(classes);
    let (mut attempted, mut failed, mut ops_per_s) = (0, 0, 0.0);
    for run in runs {
        let run = run?;
        for (ci, ms) in run.ms.into_iter().enumerate() {
            samples[ci].ms.extend(ms);
        }
        attempted += run.attempted;
        failed += run.failed;
        ops_per_s += run.slices.median();
        tracer.absorb(run.tracer);
    }
    Ok(Phase {
        classes: samples,
        attempted,
        failed,
        ops_per_s,
        wall_s,
        clock_slowness: HostClock::start().slowness(),
        scaled: false,
        tracer,
    })
}

/// The shape of the `write_mix` script. Counts, not times: the delta a read
/// sees at step `i` of a round is the same on every commit.
#[derive(Debug, Clone, Copy)]
pub struct WriteShape {
    /// Batches live at once: step `i` retires the batch of step `i - window`.
    pub window: usize,
    /// Steps between two `reorganize_now()` calls.
    pub round_steps: usize,
    pub queries_per_step: usize,
    /// Steps, without queries, between the last reorganization and the
    /// un-checkpointed stop: what recovery has to replay.
    pub epilogue_steps: usize,
}

/// The write side of the script: a retention window sliding over the
/// held-out batches. Each step inserts one batch of whole new subjects and
/// deletes the batch inserted `window` steps earlier, so the store holds
/// base + `window` batches whatever the number of steps.
pub struct Writer<'a> {
    batches: &'a [Vec<TermTriple>],
    window: usize,
    step: usize,
    /// Indices of the batches currently in the store, oldest first.
    pub live: VecDeque<usize>,
    pub insert_ms: Vec<f64>,
    pub retire_ms: Vec<f64>,
    pub triples_written: u64,
    pub failed: u64,
}

impl<'a> Writer<'a> {
    pub fn new(batches: &'a [Vec<TermTriple>], window: usize) -> Writer<'a> {
        assert!(
            batches.len() > window + 1,
            "{} held-out batches cannot hold a window of {window}",
            batches.len()
        );
        Writer {
            batches,
            window,
            step: 0,
            live: VecDeque::new(),
            insert_ms: Vec::new(),
            retire_ms: Vec::new(),
            triples_written: 0,
            failed: 0,
        }
    }

    /// One insert and, once the window is full, one retire. Returns the
    /// time spent in the two calls.
    pub fn step(&mut self, db: &Database, tracer: &mut Tracer, id: u64) -> f64 {
        let i = self.step % self.batches.len();
        self.step += 1;
        let batch = &self.batches[i];
        let (n, secs) = tracer.span("core.insert_terms", id, |_| db.insert_terms(batch));
        self.insert_ms.push(secs * 1e3);
        self.live.push_back(i);
        self.account(n.ok(), batch.len());
        let mut busy_s = secs;
        if self.live.len() > self.window {
            if let Some(oldest) = self.live.pop_front() {
                let old = &self.batches[oldest];
                let (n, secs) = tracer.span("core.delete_triples", id, |_| db.delete_triples(old));
                self.retire_ms.push(secs * 1e3);
                self.account(n.ok(), old.len());
                busy_s += secs;
            }
        }
        busy_s
    }

    /// A write is correct when the call acknowledges every triple of it.
    fn account(&mut self, acked: Option<usize>, want: usize) {
        if acked == Some(want) {
            self.triples_written += want as u64;
        } else {
            self.failed += 1;
        }
    }

    pub fn ops(&self) -> u64 {
        (self.insert_ms.len() + self.retire_ms.len()) as u64
    }

    /// The triples the window holds right now, beyond the bulk-loaded base.
    pub fn live_batches(&self) -> impl Iterator<Item = &'a Vec<TermTriple>> + '_ {
        self.live.iter().map(|&i| &self.batches[i])
    }
}

pub struct WritePhase {
    pub phase: Phase,
    /// One entry per `reorganize_now()` call, in seconds.
    pub reorg_s: Vec<f64>,
    pub write_busy_s: f64,
    pub triples_written: u64,
}

/// `write_mix`: one thread on the durable store. Rounds of
/// `round_steps` × (insert, retire, `queries_per_step` queries), each closed
/// by `reorganize_now()`; whole rounds until the clock says stop. A round,
/// reorganization included, is a throughput slice. Replies change with
/// every write, so reads are only checked for errors here; the store's
/// content is checked after recovery.
pub fn run_write_mix(
    db: &Database,
    classes: &[Class],
    writer: &mut Writer,
    shape: WriteShape,
    limits: Limits,
    mut tracer: Tracer,
) -> WritePhase {
    let traced = tracer.is_on();
    let mut samples = empty_samples(classes);
    // A read meets a larger delta the later in the round it comes, so the
    // block of a class's p95 is what a round holds of it: any such stretch
    // has one sample from every step of the round.
    for c in &mut samples {
        c.block = shape.round_steps * shape.queries_per_step / classes.len();
    }
    let (mut reads, mut failed, mut write_busy_s) = (0u64, 0u64, 0.0);
    let mut slices = Slices::default();
    let mut reorg_s = Vec::new();
    let mut id = 0u64;
    let clock = Clock::start(limits);
    loop {
        for _ in 0..shape.round_steps {
            let (ops, failed_writes) = (writer.ops(), writer.failed);
            let secs = writer.step(db, &mut tracer, id);
            id += 1;
            write_busy_s += secs;
            slices.ok += writer.ops() - ops - (writer.failed - failed_writes);
            slices.busy_s += secs;
            for _ in 0..shape.queries_per_step {
                let ci = reads as usize % classes.len();
                let k = reads as usize / classes.len();
                let req = classes[ci].request(k).traced(traced);
                let (reply, secs) = tracer.span("core.execute", id, |_| db.execute(&req));
                id += 1;
                reads += 1;
                samples[ci].ms.push(secs * 1e3);
                slices.record(reply.is_ok(), secs);
                failed += u64::from(reply.is_err());
            }
        }
        let (done, secs) = tracer.span("core.reorganize_now", id, |_| db.reorganize_now());
        id += 1;
        reorg_s.push(secs);
        slices.record(done.is_ok(), secs);
        slices.close();
        failed += u64::from(done.is_err());
        let fewest = samples
            .iter()
            .map(|c| c.ms.len())
            .chain([writer.insert_ms.len(), writer.retire_ms.len()])
            .min()
            .unwrap_or(0);
        if clock.enough(fewest) {
            break;
        }
    }
    for (name, ms) in [
        ("insert_batch", &writer.insert_ms),
        ("retire_batch", &writer.retire_ms),
    ] {
        samples.push(ClassSamples {
            name,
            group: Group::Write,
            ms: ms.clone(),
            block: shape.round_steps,
        });
    }
    WritePhase {
        phase: Phase {
            classes: samples,
            attempted: reads + writer.ops() + reorg_s.len() as u64,
            failed: failed + writer.failed,
            ops_per_s: slices.median(),
            wall_s: clock.start.elapsed().as_secs_f64(),
            clock_slowness: HostClock::start().slowness(),
            scaled: false,
            tracer,
        },
        reorg_s,
        write_busy_s,
        triples_written: writer.triples_written,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{serve_selective, Constants};
    use crate::data::generate;

    #[test]
    fn seed_determines_the_request_sequence() {
        let data = generate(0.0005, 1);
        let classes = serve_selective(
            &data,
            1,
            Constants {
                keys: 8,
                windows: 4,
            },
        );
        let take = |seed, client| {
            let mut s = Schedule::new(seed, client, &classes);
            (0..2000).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(42, 0), take(42, 0));
        assert_ne!(take(42, 0), take(42, 1));
        assert_ne!(take(42, 0), take(7, 0));
        // The mix holds: about 40% lookups, about 5% full name lists.
        let seq = take(42, 0);
        let share = |c| seq.iter().filter(|(ci, _)| *ci == c).count() as f64 / 2000.0;
        assert!((share(0) - 0.40).abs() < 0.04);
        assert!((share(4) - 0.05).abs() < 0.02);
    }

    #[test]
    fn groups_weigh_equally_in_the_latency_aggregate() {
        let class = |name, group, ms: f64| ClassSamples {
            name,
            group,
            ms: vec![ms; 5],
            block: stats::BLOCK,
        };
        let phase = |write_ms| Phase {
            classes: vec![
                class("a", Group::Read, 1.0),
                class("b", Group::Read, 4.0),
                class("c", Group::Read, 16.0),
                class("w", Group::Write, write_ms),
            ],
            attempted: 20,
            failed: 0,
            ops_per_s: 1.0,
            wall_s: 1.0,
            clock_slowness: 1.0,
            scaled: false,
            tracer: Tracer::new(false, Instant::now()),
        };
        // reads: geomean(1, 4, 16) = 4; writes: 4 → 4 overall.
        assert!((phase(4.0).p50_ms() - 4.0).abs() < 1e-9);
        // Writes four times slower move the aggregate by a factor of two,
        // although they are one class in four.
        assert!((phase(16.0).p50_ms() - 8.0).abs() < 1e-9);
        assert!((phase(16.0).p95_ms() - 8.0).abs() < 1e-9);
        assert_eq!(phase(1.0).fewest_samples(), 5);
    }
}
