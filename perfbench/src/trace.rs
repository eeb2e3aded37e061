//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent span and a request id.
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends. A span's self time is its duration minus
//! that of its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent value of a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-6
    }
}

/// A span recorder. Each thread records into its own tracer; tracers
/// that share an epoch merge at the end.
pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            on: true,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// A tracer that records nothing, for untraced runs.
    pub fn off() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: false,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.on {
            return ROOT;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Starts a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: usize, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends a span started with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Times `f` as a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.record(name, parent, request, t0, Instant::now());
        r
    }

    /// Appends another tracer's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Durations of every span called `name`, milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times of every span called `name`, milliseconds.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ms[s.parent] += s.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - child_ms[i])
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut tr = Tracer::new(t0);
        let root = tr.record("drain", ROOT, 0, at(0), at(10));
        tr.record("engine", root, 0, at(1), at(7));
        let mut other = Tracer::new(t0);
        let r2 = other.record("drain", ROOT, 1, at(10), at(14));
        other.record("engine", r2, 1, at(11), at(13));
        tr.merge(other);
        assert_eq!(tr.durations_ms("engine"), vec![6.0, 2.0]);
        assert_eq!(tr.self_times_ms("drain"), vec![4.0, 2.0]);
    }
}
