//! Spans around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::span`], traced or not, so both
//! kinds of run time the same code; an untraced tracer just keeps no spans.
//! Spans live in memory and are written as `trace.jsonl` when the run ends.
//! Tracing *inside* the product is a later change.

use crate::json::{obj, str, Json};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one operation share this id.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per span name: how often it ran, its total time, and its self time
/// (total minus the part its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Tracer {
    /// `epoch` is shared by every tracer of a run so that spans recorded on
    /// different threads sit on one time axis.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// An empty tracer on the same time axis, for another thread; its spans
    /// come back through [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.epoch)
    }

    /// Run `f` inside a span; returns its value and its duration in seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.on {
            let t = Instant::now();
            let value = f(self);
            return (value, t.elapsed().as_secs_f64());
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        let start = Instant::now();
        let value = f(self);
        let elapsed = start.elapsed();
        self.open.pop();
        let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
        let span = &mut self.spans[id as usize];
        span.start_ns = start_ns;
        span.end_ns = start_ns + elapsed.as_nanos() as u64;
        (value, elapsed.as_secs_f64())
    }

    /// Fold another thread's spans into this tracer, keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for s in &self.spans {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += total;
            e.self_ns += total.saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// One JSON object per line: name, start, end, parent, request id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = obj(vec![
                ("id", Json::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request", Json::Num(s.request as f64)),
                ("name", str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("request", 1, |t| {
            t.span("child", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("child", 1, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 1));
        let st = t.self_times();
        let (req, child) = (st["request"], st["child"]);
        assert_eq!(child.count, 2);
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(req.self_ns, req.total_ns - child.total_ns);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn untraced_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, secs) = t.span("x", 0, |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", 0, |_| ());
        let mut b = Tracer::new(true, epoch);
        b.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[2].id, 2);
    }
}
