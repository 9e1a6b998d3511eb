//! The in-memory span recorder behind the traced pass.
//!
//! Spans are recorded from the harness's side of each layer boundary —
//! around the calls into the crates' public functions — never inside the
//! programs under test. A span is `(name, start, end, parent, run)`;
//! counts are recorded at the same boundaries. Everything stays in
//! memory until [`Trace::write_json`] flushes it when the pass ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Spans of one request (or one batch rep) share a run id.
    pub run: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span and count store for one traced pass.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Trace {
    fn default() -> Trace {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            counts: BTreeMap::new(),
        }
    }

    /// Starts the next run and returns its id: later spans carry it.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Records an interval measured elsewhere (a layer's own stage
    /// statistics) as a child of the innermost open span, laid out from
    /// `offset_us` after that span's start.
    pub fn child_of_open(&mut self, name: &'static str, offset_us: f64, dur_us: f64) {
        let parent = self.open.last().copied();
        let base = parent.map_or_else(|| self.now_us(), |p| self.spans[p].start_us);
        self.spans.push(Span {
            name,
            start_us: base + offset_us,
            end_us: base + offset_us + dur_us,
            parent,
            run: self.run,
        });
    }

    /// Adds `n` to the count `name`.
    pub fn count(&mut self, name: &'static str, n: f64) {
        *self.counts.entry(name).or_insert(0.0) += n;
    }

    pub fn count_of(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every recorded count, by name.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.counts.iter().map(|(name, n)| (*name, *n))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Total duration (µs) of every span named `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum()
    }

    /// Self time (µs) per span: its duration minus the part its direct
    /// children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.dur_us();
            }
        }
        own
    }

    /// Serializes spans (`[name, start_us, end_us, parent, run]` rows)
    /// and counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from(
            "{\"columns\":[\"name\",\"start_us\",\"end_us\",\"parent\",\"run\"],\"spans\":[",
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n[\"{}\",{:.3},{:.3},{},{}]",
                s.name, s.start_us, s.end_us, parent, s.run
            ));
        }
        out.push_str("\n],\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{n}"));
        }
        out.push_str("}}\n");
        out
    }

    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new();
        t.span("outer", |t| {
            t.child_of_open("a", 0.0, 30.0);
            t.child_of_open("b", 30.0, 20.0);
            t.span("c", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let outer = &t.spans()[0];
        assert!(outer.dur_us() >= 2000.0);
        let own = t.self_times_us();
        let c = t.total_us("c");
        assert!((own[0] - (outer.dur_us() - 50.0 - c)).abs() < 1e-6);
        assert_eq!(t.spans()[3].parent, Some(0));
        perils_util::json::parse(&t.to_json()).expect("trace JSON parses");
    }
}
