//! Morsel-driven execution — the engine's one vectorized star path.
//!
//! The paper's pitch is that emergent-schema clustering makes RDF behave
//! like relational analytics — and relational analytics engines scale across
//! cores. Every star is evaluated **morsel-at-a-time**: zone-map-pruned page
//! ranges (RDFscan), candidate row ranges (RDFjoin), and per-property
//! streams (IdxScan+MergeJoin) are independent work units pulled from a
//! shared queue by the [`ParallelConfig::workers`] of the query's
//! [`ExecContext`]. Sequential execution is the same code with one worker:
//! each prepared class scan is exactly one morsel and every unit runs inline
//! on the calling thread — no thread is spawned, no span is split.
//!
//! Correctness contract: results are **byte-identical** for every worker
//! count. Each morsel covers a contiguous slice of a class segment (or of
//! the candidate list), morsels are enumerated in segment order, and what
//! they produce — each morsel's `StarSink`: a partial table, or a partial
//! fold of the select list when the star is the last step of its plan — is
//! put together in that enumeration order, never in completion order.
//! Aggregates merge per-morsel partials through the Neumaier-compensated
//! accumulator, which keeps SUM/AVG order-insensitive to within one ulp (the
//! same property the cross-generation differential tests already rely on).
//!
//! Sharing model: one [`ExecContext`] is shared by all workers of a query —
//! it is `Sync` (storage handles are immutable, the buffer pool is
//! internally sharded, and [`crate::context::ExecStats`] counters are
//! relaxed atomics that sum naturally across workers).

use crate::context::{ExecContext, StorageRef};
use crate::expr::Expr;
use crate::plan::StarAccess;
use crate::scan::Source;
use crate::star::{
    join_star_streams, prepare_star_scans, scan_star_prop, uncovered_rows, Star, StarCall, StarSink,
};
use crate::table::Table;
use parking_lot::Mutex;
use sordf_model::Oid;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many workers evaluate a query's morsels, and how small a morsel may
/// get.
#[derive(Debug, Clone, Copy)]
pub struct ParallelConfig {
    /// Worker threads per query (1 = everything inline on the caller).
    pub workers: usize,
    /// Minimum pages per RDFscan morsel — below this, splitting a segment
    /// costs more in scheduling than it buys in parallelism.
    pub min_morsel_pages: usize,
    /// Minimum rows per RDFjoin / aggregation morsel.
    pub min_morsel_rows: usize,
}

impl Default for ParallelConfig {
    fn default() -> ParallelConfig {
        ParallelConfig::with_workers(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
        )
    }
}

impl ParallelConfig {
    /// Default sizing with an explicit worker count.
    pub fn with_workers(workers: usize) -> ParallelConfig {
        ParallelConfig {
            workers: workers.max(1),
            min_morsel_pages: 1,
            min_morsel_rows: 4096,
        }
    }
}

/// Split `r` into at most `max_chunks` contiguous chunks of at least
/// `min_len` (the final chunk absorbs the remainder). Preserves order:
/// concatenating the chunks yields `r`.
pub(crate) fn split_range(r: Range<usize>, max_chunks: usize, min_len: usize) -> Vec<Range<usize>> {
    let len = r.end.saturating_sub(r.start);
    if len == 0 {
        return Vec::new();
    }
    let min_len = min_len.max(1);
    let n = (len / min_len).clamp(1, max_chunks.max(1));
    let chunk = len / n;
    let rem = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = r.start;
    for i in 0..n {
        let this = chunk + usize::from(i < rem);
        out.push(start..start + this);
        start += this;
    }
    out
}

/// Run `task(0..n_tasks)` on `workers` scoped threads pulling indexes from a
/// shared atomic queue, returning results **in task order** (not completion
/// order). With one worker or one task, runs inline on the calling thread —
/// no threads spawned.
///
/// A panicking task is caught on its worker and its original payload is
/// re-raised on the calling thread — `std::thread::scope` would otherwise
/// replace it with a generic "a scoped thread panicked", losing e.g. the
/// page number of a `ModelError::PageRead` that the facade's query-boundary
/// handler reports. The first panic also raises a shared failure flag that
/// every worker checks before pulling, so a failing query stops after the
/// in-flight morsels instead of draining the whole queue for a result that
/// will be discarded.
///
/// Cancellation rides the same machinery: the context's token (when
/// present) is polled before each claimed task — the morsel boundary — and a
/// tripped token panics with the interrupt sentinel inside the per-task
/// `catch_unwind`, so the failure flag stops every worker and the sentinel
/// is re-raised on the caller for the facade to classify.
pub(crate) fn run_tasks<T: Send>(
    cancel: Option<&crate::cancel::CancellationToken>,
    workers: usize,
    n_tasks: usize,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let run = |i: usize| {
        if let Some(c) = cancel {
            c.check();
        }
        task(i)
    };
    if workers <= 1 || n_tasks <= 1 {
        return (0..n_tasks).map(run).collect();
    }
    type TaskResult<T> = Result<T, Box<dyn std::any::Any + Send>>;
    // ordering: Relaxed throughout this function — `next` needs only
    // fetch_add's atomicity (each index claimed once); `failed` is a pure
    // hint to stop early, and the task results themselves are published by
    // the per-slot mutexes plus the scope join, not by these flags.
    let next = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let slots: Vec<Mutex<Option<TaskResult<T>>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n_tasks) {
            s.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(i)));
                if out.is_err() {
                    failed.store(true, Ordering::Relaxed);
                }
                *slots[i].lock() = Some(out);
                if failed.load(Ordering::Relaxed) {
                    break;
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n_tasks);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(v)) => out.push(v),
            Some(Err(payload)) if first_panic.is_none() => first_panic = Some(payload),
            Some(Err(_)) => {}
            // Unfilled slots happen when the failure flag stopped workers
            // before the queue drained; the first panic below explains why.
            None => {}
        }
    }
    if let Some(payload) = first_panic {
        std::panic::resume_unwind(payload);
    }
    assert_eq!(out.len(), n_tasks, "every task completed");
    out
}

/// Evaluate one star with the plan's chosen access path (not the scheme —
/// the optimizer already folded the scheme and the storage layout into that
/// choice), optionally driven by candidate subjects (RDFjoin), into a table
/// binding **every** variable of the star.
/// Plan steps go through `eval_star_into`, which binds only what is read;
/// this is its all-variables, materializing form, on which the tests check
/// that every star enforces its own filters.
pub fn eval_star(
    cx: &ExecContext,
    star: &Star,
    access: StarAccess,
    filters: &[&Expr],
    candidates: Option<&[Oid]>,
) -> Table {
    let call = StarCall::new(cx, star, filters, None);
    eval_star_into(cx, &call, access, candidates, || {
        Table::empty(call.emit.vars.clone())
    })
}

/// The one star evaluator every plan step goes through: the call's star,
/// binding the call's variables, its rows delivered to sinks made by `make`
/// — one per morsel, folded together in morsel order, or a single one taking
/// every morsel in that order when there is one worker (so a streamed
/// aggregate at one worker accumulates exactly as over the materialized
/// table). IdxScan+MergeJoin produces the star's whole table, which the
/// sink takes as one chunk.
pub(crate) fn eval_star_into<S: StarSink>(
    cx: &ExecContext,
    call: &StarCall,
    access: StarAccess,
    candidates: Option<&[Oid]>,
    make: impl Fn() -> S + Sync,
) -> S {
    let table = match (access, &cx.storage) {
        (StarAccess::RdfScan, StorageRef::Clustered { store, schema }) => {
            return eval_rdfscan(cx, call, candidates, store, schema, make);
        }
        _ => eval_prop_merge(cx, call, candidates, Source::Full, cx.parallel.workers),
    };
    let mut sink = make();
    sink.take(cx, table.project(&call.emit.vars));
    sink
}

/// IdxScan+MergeJoin: the per-property scans of a star are independent —
/// one task per property, then the streams are joined on the caller (the
/// join pipeline is a small fraction of the work).
fn eval_prop_merge(
    cx: &ExecContext,
    call: &StarCall,
    candidates: Option<&[Oid]>,
    source: Source,
    workers: usize,
) -> Table {
    let streams = run_tasks(cx.cancel_token(), workers, call.star.props.len(), |i| {
        (i, scan_star_prop(cx, call, i, candidates, source))
    });
    join_star_streams(cx, call, streams)
}

/// One unit of RDFscan/RDFjoin work.
#[derive(Debug, PartialEq)]
enum Morsel {
    /// A span of a prepared class scan: a page range (RDFscan) or a
    /// candidate-row range (RDFjoin).
    Class { prep: usize, span: Range<usize> },
    /// The irregular-store branch (one task; small, but unsplittable).
    Irregular,
}

/// Morsels of one star, given each prepared class scan's `(span, minimum
/// morsel length)`. Several workers get a few morsels per worker and scan so
/// a slow span (zone maps prune unevenly) cannot straggle the whole query;
/// one worker gets every scan whole. The irregular branch is queued FIRST —
/// it is the one task that cannot be split, so it must start early rather
/// than after every class morsel has been claimed; its partial is still
/// merged last (placement, not execution order, decides the result layout).
fn morselize(
    scans: impl IntoIterator<Item = (Range<usize>, usize)>,
    workers: usize,
) -> Vec<Morsel> {
    let per_scan = if workers <= 1 { 1 } else { workers * 2 };
    let mut morsels = vec![Morsel::Irregular];
    for (prep, (span, min_len)) in scans.into_iter().enumerate() {
        morsels.extend(
            split_range(span, per_scan, min_len)
                .into_iter()
                .map(|span| Morsel::Class { prep, span }),
        );
    }
    morsels
}

/// RDFscan / RDFjoin: per-class preparation (class selection, row-range
/// narrowing, access resolution) happens once via [`prepare_star_scans`],
/// then the page/row span of each class is cut into morsels, and the
/// morsels' sinks are folded together in (class, span) order with the
/// irregular branch last.
fn eval_rdfscan<S: StarSink>(
    cx: &ExecContext,
    call: &StarCall,
    candidates: Option<&[Oid]>,
    store: &sordf_storage::ClusteredStore,
    schema: &sordf_schema::EmergentSchema,
    make: impl Fn() -> S + Sync,
) -> S {
    let par = &cx.parallel;
    let (covering_classes, preps) = prepare_star_scans(cx, call, candidates, store, schema);
    let morsels = morselize(preps.iter().map(|p| p.span(par)), par.workers);
    let run = |morsel: &Morsel, sink: &mut S| match morsel {
        Morsel::Class { prep, span } => preps[*prep].scan(cx, span.clone(), sink),
        // Subjects in no covering class, the star fully answered from
        // the irregular store — inline: this already is one task.
        Morsel::Irregular => {
            let irr = eval_prop_merge(cx, call, candidates, Source::IrregularOnly, 1);
            let rows = uncovered_rows(irr, call.star, schema, &covering_classes, &call.emit.vars);
            sink.take(cx, rows);
        }
    };

    if par.workers <= 1 {
        // One sink takes the morsels in result order: classes, then the
        // irregular branch.
        let mut sink = make();
        for morsel in morsels[1..].iter().chain(&morsels[..1]) {
            cx.check_cancelled();
            run(morsel, &mut sink);
        }
        return sink;
    }
    let mut sinks = run_tasks(cx.cancel_token(), par.workers, morsels.len(), |i| {
        let mut sink = make();
        run(&morsels[i], &mut sink);
        sink
    })
    .into_iter();
    // sordf-lint: allow(L3) — morsels[0] is Morsel::Irregular by
    // construction and run_tasks returns one result per task.
    let irregular = sinks.next().expect("irregular task present");
    let mut sinks = sinks.chain(std::iter::once(irregular));
    // sordf-lint: allow(L3) — the chain ends with the irregular sink.
    let mut result = sinks.next().expect("irregular sink present");
    for later in sinks {
        result.absorb(later);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_range_covers_and_orders() {
        for (r, chunks, min_len) in [
            (0..100, 4, 1),
            (10..17, 3, 2),
            (0..1, 8, 1),
            (5..5, 4, 1),
            (0..10_000, 8, 4096),
        ] {
            let spans = split_range(r.clone(), chunks, min_len);
            if r.is_empty() {
                assert!(spans.is_empty());
                continue;
            }
            assert!(spans.len() <= chunks);
            assert_eq!(spans.first().unwrap().start, r.start);
            assert_eq!(spans.last().unwrap().end, r.end);
            for w in spans.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous in order");
            }
            if spans.len() > 1 {
                assert!(spans.iter().all(|s| s.len() >= min_len));
            }
        }

        // A multi-class star (three prepared class scans: two page spans,
        // one candidate-row span). One worker: one task per prepared scan,
        // each covering its whole span — nothing is split.
        let scans = [(0..100, 1), (3..9, 1), (0..50_000, 4096)];
        let mut whole = vec![Morsel::Irregular];
        whole.extend(
            scans
                .iter()
                .enumerate()
                .map(|(prep, (span, _))| Morsel::Class {
                    prep,
                    span: span.clone(),
                }),
        );
        assert_eq!(morselize(scans.iter().cloned(), 1), whole);
        // Several workers split the same scans, in (class, span) order.
        let split = morselize(scans.iter().cloned(), 2);
        assert_eq!(split[0], Morsel::Irregular);
        assert!(split.len() > whole.len());
        for (prep, (span, _)) in scans.iter().enumerate() {
            let covered: Vec<usize> = split
                .iter()
                .filter_map(|m| match m {
                    Morsel::Class { prep: p, span } if *p == prep => Some(span.clone()),
                    _ => None,
                })
                .flatten()
                .collect();
            assert_eq!(covered, span.clone().collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let task = |i: usize| {
            // Jitter completion order.
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 5) as u64));
            (i, std::thread::current().id())
        };
        let order = |out: &[(usize, std::thread::ThreadId)]| -> Vec<usize> {
            out.iter().map(|&(i, _)| i).collect()
        };
        assert_eq!(
            order(&run_tasks(None, 4, 32, task)),
            (0..32).collect::<Vec<_>>()
        );
        // One worker is the sequential path: every task runs on the calling
        // thread, no thread is spawned.
        let inline = run_tasks(None, 1, 32, task);
        assert_eq!(order(&inline), (0..32).collect::<Vec<_>>());
        let caller = std::thread::current().id();
        assert!(inline.iter().all(|&(_, id)| id == caller));
    }

    #[test]
    fn run_tasks_stops_on_cancelled_token() {
        use crate::cancel::{interrupted, CancellationToken, StopReason};
        let token = CancellationToken::new();
        token.cancel();
        let ran = AtomicUsize::new(0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(Some(&token), 4, 64, |i| {
                // ordering: Relaxed — test-only counter, read after join.
                ran.fetch_add(1, Ordering::Relaxed);
                i
            })
        }))
        .unwrap_err();
        assert_eq!(interrupted(err.as_ref()), Some(StopReason::Cancelled));
        // ordering: Relaxed — see above.
        assert_eq!(ran.load(Ordering::Relaxed), 0, "no task body ran");
    }
}
