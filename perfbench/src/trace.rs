//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every timed call goes through [`Tracer::open`] / [`Tracer::close`],
//! which always read the clock (the end-to-end metrics need the
//! durations) but keep a span only when tracing is on. Spans live in a
//! `Vec` until [`Tracer::write`] dumps them once the run is over, so the
//! traced run does no I/O while it measures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `machine.run_until`.
    pub name: &'static str,
    /// Repetition (or cell) the span belongs to; shared by its children.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration of the span.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span handle returned by [`Tracer::open`].
#[must_use = "close the span to measure it"]
pub struct Open {
    name: &'static str,
    start: Instant,
    slot: Option<usize>,
}

/// Span recorder; a disabled tracer only measures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    id: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            id: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts or stops keeping spans (a traced run alternates traced
    /// and untraced repetitions to measure the tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Sets the repetition id stamped on spans opened from now on.
    pub fn set_id(&mut self, id: u64) {
        self.id = id;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts timing `name`; nested opens become children.
    pub fn open(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.on.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span {
                name,
                id: self.id,
                parent,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            let slot = self.spans.len() - 1;
            self.stack.push(slot);
            slot
        });
        Open { name, start, slot }
    }

    /// Ends `open` and returns its duration.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            debug_assert_eq!(
                self.stack.last(),
                Some(&slot),
                "{} closed out of order",
                open.name
            );
            self.stack.pop();
            self.spans[slot].end_ns = self.ns(end);
        }
        end - open.start
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        let open = self.open(name);
        let out = f();
        (out, self.close(open))
    }

    /// Records a span timed elsewhere (on another thread) as a child of
    /// the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let span = Span {
                name,
                id: self.id,
                parent: self.stack.last().copied(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time of every span: its duration minus the time its direct
    /// children cover, floored at 0 (spans recorded from worker threads
    /// may overlap each other).
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Total and self time per span name, in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own;
        }
        out
    }

    /// Writes every span, with its self time, as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::from("{\"spans\": [\n");
        let own = self.self_times();
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"i\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}{}",
                s.name,
                s.id,
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("],\n\"totals\": {\n");
        let totals = self.totals();
        for (i, (name, (n, total, own))) in totals.iter().enumerate() {
            let _ = writeln!(
                out,
                "  \"{name}\": {{\"count\": {n}, \"total_ns\": {total}, \"self_ns\": {own}}}{}",
                if i + 1 == totals.len() { "" } else { "," }
            );
        }
        out.push_str("}}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.open("outer");
        let inner = t.open("inner");
        std::thread::sleep(Duration::from_millis(2));
        t.close(inner);
        t.close(outer);
        let own = t.self_times();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0], t.spans()[0].dur_ns() - t.spans()[1].dur_ns());
        assert_eq!(own[1], t.spans()[1].dur_ns());
    }

    #[test]
    fn disabled_tracer_only_measures() {
        let mut t = Tracer::new(false);
        let ((), d) = t.time("x", || std::thread::sleep(Duration::from_millis(1)));
        assert!(d >= Duration::from_millis(1));
        assert!(t.spans().is_empty());
    }
}
