//! Cooperative query cancellation and deadlines.
//!
//! A [`CancellationToken`] is a shared flag (plus an optional deadline) the
//! caller hands to a query through
//! [`ExecContext`](crate::context::ExecContext). Operators poll it at
//! *bounded-work* boundaries — per claimed morsel, per page in the chunked
//! scans, per property scan and per plan step — so a cancelled or timed-out
//! query stops within one page of work instead of running to completion.
//!
//! The stop mechanism reuses the engine's existing query-boundary fault
//! isolation: a tripped check raises a panic carrying the
//! [`QueryInterrupted`] sentinel payload, which unwinds through the
//! (read-only, guard-dropping) operator stack to the facade's
//! `catch_unwind`, where it is downcast and mapped to a typed
//! `Error::Cancelled` / `Error::Timeout` instead of a stringly `Error::Exec`.
//! The default panic hook is wrapped (once, lazily) to stay silent for this
//! sentinel — routine timeouts must not spam stderr.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a query was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The caller revoked the request (client disconnect, explicit cancel).
    Cancelled,
    /// The request's deadline passed.
    TimedOut,
}

/// The panic payload raised by a tripped cancellation check. Catch sites
/// (the facade's query boundary) downcast the payload to this type to
/// distinguish an interrupt from a genuine engine fault.
#[derive(Debug, Clone, Copy)]
pub struct QueryInterrupted(pub StopReason);

#[derive(Debug)]
struct Inner {
    /// Shared with every token linked via
    /// [`CancellationToken::with_deadline_floor`], so cancelling any linked
    /// token stops them all.
    cancelled: Arc<AtomicBool>,
    /// Latched by the first worker that observes the deadline passing, so
    /// every other poll is a flag load instead of a clock read.
    timed_out: AtomicBool,
    deadline: Option<Instant>,
}

/// Shared cancellation flag + optional deadline for one query. Cloning is
/// cheap (an `Arc` bump); all clones observe the same state.
#[derive(Debug, Clone)]
pub struct CancellationToken {
    inner: Arc<Inner>,
}

impl Default for CancellationToken {
    fn default() -> CancellationToken {
        CancellationToken::new()
    }
}

impl CancellationToken {
    /// A token with no deadline; stops only on [`cancel`](Self::cancel).
    pub fn new() -> CancellationToken {
        CancellationToken::with_deadline(None)
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Option<Instant>) -> CancellationToken {
        install_quiet_hook();
        CancellationToken {
            inner: Arc::new(Inner {
                cancelled: Arc::new(AtomicBool::new(false)),
                timed_out: AtomicBool::new(false),
                deadline,
            }),
        }
    }

    /// A token observing the same cancellation flag as `self`, with
    /// `deadline` folded in (the earlier of the two wins). The facade uses
    /// this to combine a caller-supplied token with a per-request timeout:
    /// cancelling either the original or the derived token stops the query,
    /// and the derived token additionally trips at the deadline.
    pub fn with_deadline_floor(&self, deadline: Instant) -> CancellationToken {
        let deadline = match self.inner.deadline {
            Some(existing) => existing.min(deadline),
            None => deadline,
        };
        CancellationToken {
            inner: Arc::new(Inner {
                cancelled: Arc::clone(&self.inner.cancelled),
                timed_out: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that trips `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> CancellationToken {
        CancellationToken::with_deadline(Instant::now().checked_add(timeout))
    }

    /// Request cancellation. Idempotent; safe from any thread.
    // ordering: Relaxed — the flag is a monotonic one-way signal carrying no
    // data; observers act on the flag alone, and the bounded poll interval
    // (one page of work) dwarfs any propagation delay.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has [`cancel`](Self::cancel) been called? (Does not consult the
    /// deadline — use [`stop_reason`](Self::stop_reason) for the full poll.)
    // ordering: Relaxed — see `cancel`.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// Non-panicking poll: should the query stop, and why? Explicit
    /// cancellation wins over a simultaneously-passed deadline.
    // ordering: Relaxed for all three accesses — monotonic one-way flags
    // (see `cancel`); the timed_out latch is a pure clock-read saving, and
    // racing latchers store the same value.
    pub fn stop_reason(&self) -> Option<StopReason> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(StopReason::Cancelled);
        }
        if self.inner.timed_out.load(Ordering::Relaxed) {
            return Some(StopReason::TimedOut);
        }
        if let Some(d) = self.inner.deadline {
            if Instant::now() >= d {
                self.inner.timed_out.store(true, Ordering::Relaxed);
                return Some(StopReason::TimedOut);
            }
        }
        None
    }

    /// The panicking poll operators call: raises [`QueryInterrupted`] if the
    /// token has tripped, to unwind to the query boundary.
    #[inline]
    pub fn check(&self) {
        if let Some(reason) = self.stop_reason() {
            // sordf-lint: allow(L3) — deliberate query-boundary interrupt;
            // the facade's catch_unwind downcasts the sentinel payload into
            // Error::Cancelled / Error::Timeout.
            std::panic::panic_any(QueryInterrupted(reason));
        }
    }

    /// The deadline, if any (the server uses it for `Retry-After` math).
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// Downcast a caught panic payload to the interrupt sentinel, if it is one.
pub fn interrupted(payload: &(dyn std::any::Any + Send)) -> Option<StopReason> {
    payload.downcast_ref::<QueryInterrupted>().map(|q| q.0)
}

// ordering: Relaxed CAS — only gates a single hook installation; the
// take_hook/set_hook pair below is internally synchronized by std.
static QUIET_HOOK: AtomicBool = AtomicBool::new(false);

/// Wrap the process panic hook (once) so interrupt-sentinel panics unwind
/// silently: a timed-out query is a routine outcome, not a crash worth a
/// stderr line per request.
fn install_quiet_hook() {
    // ordering: Relaxed CAS — only gates a single installation; the
    // take_hook/set_hook pair below is internally synchronized by std.
    if QUIET_HOOK
        .compare_exchange(false, true, Ordering::Relaxed, Ordering::Relaxed)
        .is_err()
    {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<QueryInterrupted>().is_none() {
            prev(info);
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_trips_check() {
        let t = CancellationToken::new();
        assert_eq!(t.stop_reason(), None);
        t.check(); // no-op while untripped
        t.cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
        let err = std::panic::catch_unwind(|| t.check()).unwrap_err();
        assert_eq!(interrupted(err.as_ref()), Some(StopReason::Cancelled));
    }

    #[test]
    fn deadline_trips_and_latches() {
        let t = CancellationToken::with_deadline(Some(Instant::now()));
        assert_eq!(t.stop_reason(), Some(StopReason::TimedOut));
        // Latched: subsequent polls see it without consulting the clock.
        assert!(t.inner.timed_out.load(Ordering::Relaxed));
        let err = std::panic::catch_unwind(|| t.check()).unwrap_err();
        assert_eq!(interrupted(err.as_ref()), Some(StopReason::TimedOut));
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        assert_eq!(t.stop_reason(), None);
        // Explicit cancellation wins over a pending deadline.
        t.cancel();
        assert_eq!(t.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn clones_share_state() {
        let t = CancellationToken::new();
        let c = t.clone();
        t.cancel();
        assert_eq!(c.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn deadline_floor_links_cancellation_and_tightens_deadline() {
        let t = CancellationToken::with_timeout(Duration::from_secs(3600));
        let now = Instant::now();
        let derived = t.with_deadline_floor(now);
        // The earlier deadline wins on the derived token...
        assert_eq!(derived.deadline(), Some(now));
        // ...without disturbing the original's.
        assert!(t.deadline().unwrap() > now);
        // Cancelling the original trips the derived token too.
        let t2 = CancellationToken::new();
        let d2 = t2.with_deadline_floor(now + Duration::from_secs(3600));
        t2.cancel();
        assert_eq!(d2.stop_reason(), Some(StopReason::Cancelled));
    }

    #[test]
    fn foreign_panics_still_classified_as_not_interrupt() {
        let err = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(interrupted(err.as_ref()), None);
    }
}
