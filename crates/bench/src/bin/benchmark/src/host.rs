//! The host's clock rate, measured beside the operations.
//!
//! The host changes the clock rate of its cores in steps, every few seconds,
//! and the guest can neither see nor stop it: within two minutes every query
//! class of `analytic_hot` runs at 0.83, 0.95, 1.0 and 1.05 times its median
//! latency, all classes in step, and a run of some seconds reports the rates
//! it happened to meet. A fixed chain of dependent ALU operations takes time
//! in inverse proportion to the rate and to nothing else. The `analytic_*`
//! phases time that chain every 10 ms between their queries and divide each
//! query's time by how slowly the chain runs at that moment: they report
//! time at the rate where the chain takes [`NOMINAL_S`], and
//! `clock_slowness` says how far the run was from that rate.
//!
//! This is for work bound by the core. Over bins of 2 s, the logarithm of a
//! class's median latency follows the logarithm of the chain's time with a
//! slope of 0.7–0.95 on `analytic_hot` and `analytic_cold`, and dividing by
//! the chain's time takes the deviation between bins from 6–10% to 2–4%.
//! On `serve_selective` the slope is 0.5 and on `write_mix` 0.2–0.6, other
//! noise is larger, and dividing gains nothing (3.5 → 3.3%) or loses (a
//! delete batch: 3.7 → 4.7%), so those two stay on the wall clock, and so
//! does set-up, which waits for memory more than for the core (10% faster
//! where the chain is 21% faster). Memory latency drifts as well, by some 5%
//! either way; nothing is scaled for it.

use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// Steps of the chain; about a tenth of a millisecond.
const STEPS: u32 = 60_000;
/// What the chain takes at the rate times are reported at: the rate the
/// calibration host runs at most of the time. Frozen, like the counts in
/// `Scale::full`: two commits compare only while it stays what it is.
pub const NOMINAL_S: f64 = 109.0e-6;
/// The rate is the median of this many readings…
const WINDOW: usize = 15;
/// …taken this far apart while operations flow, so it looks back 150 ms: long
/// enough for an interrupted reading not to count, short against the
/// seconds a rate lasts.
const EVERY_S: f64 = 0.010;

/// One reading: seconds the chain took.
fn chain_s() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// The clock rate of the core this thread runs on: read [`WINDOW`] times at
/// the start, then kept current by calling [`HostClock::observe`] between
/// operations.
pub struct HostClock {
    recent: [f64; WINDOW],
    next: usize,
    last: Instant,
    slowness: f64,
    /// Every slowness the clock has held, for the run's report.
    history: Vec<f64>,
}

impl HostClock {
    pub fn start() -> HostClock {
        let mut clock = HostClock {
            recent: [NOMINAL_S; WINDOW],
            next: 0,
            last: Instant::now(),
            slowness: 1.0,
            history: Vec::new(),
        };
        for _ in 0..WINDOW {
            clock.read();
        }
        clock.settle();
        clock
    }

    fn read(&mut self) {
        self.recent[self.next] = chain_s();
        self.next = (self.next + 1) % WINDOW;
        self.last = Instant::now();
    }

    fn settle(&mut self) {
        self.slowness = stats::median(&self.recent) / NOMINAL_S;
        self.history.push(self.slowness);
    }

    /// Call after every operation, outside its timed interval: takes one
    /// reading when the last is 10 ms old.
    pub fn observe(&mut self) {
        if self.last.elapsed().as_secs_f64() >= EVERY_S {
            self.read();
            self.settle();
        }
    }

    /// How slowly the chain runs now: time taken ÷ [`NOMINAL_S`].
    pub fn slowness(&self) -> f64 {
        self.slowness
    }

    /// `secs` of an operation that just ended, at the nominal rate.
    pub fn at_nominal(&self, secs: f64) -> f64 {
        secs / self.slowness
    }

    /// Every slowness held so far.
    pub fn history(&self) -> &[f64] {
        &self.history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clock_reads_a_plausible_rate_and_scales_by_it() {
        let mut clock = HostClock::start();
        // Any machine that builds this runs the chain within 10x of nominal.
        assert!((0.1..10.0).contains(&clock.slowness()));
        let s = clock.slowness();
        assert_eq!(clock.at_nominal(2.0 * s), 2.0);
        let readings = clock.history().len();
        clock.observe();
        std::thread::sleep(std::time::Duration::from_millis(11));
        clock.observe();
        assert_eq!(clock.history().len(), readings + 1);
    }
}
