//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer of
//! the program (the program itself is not instrumented). Each span has a
//! name, a start, an end and a parent; `trace` groups the spans of one run
//! round or one control tick. Spans stay in memory and are written out as
//! JSON lines when the benchmark ends.

use std::io::Write;
use std::time::Instant;

/// One recorded span, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. Several tracers sharing one origin (one per thread)
/// merge into one timeline with [`Tracer::absorb`].
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    id_base: u64,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            id_base: 0,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// A tracer for another thread: same origin, disjoint span ids.
    pub fn fork(&self, lane: u64) -> Self {
        Tracer {
            origin: self.origin,
            id_base: lane << 40,
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Moves another tracer's spans into this one.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Allocates a span id ahead of recording, so children recorded
    /// first can name their parent.
    pub fn reserve(&mut self) -> u64 {
        let id = self.id_base | self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, trace, start, end);
        id
    }

    /// Records a span under an id from [`Tracer::reserve`].
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64)
            .collect()
    }

    /// Self times in nanoseconds of every span called `name`: its duration
    /// minus the part of its interval that its direct children cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| {
                let mut children: Vec<(u64, u64)> = self
                    .spans
                    .iter()
                    .filter(|child| child.parent == Some(span.id))
                    .map(|child| {
                        (
                            child.start_ns.max(span.start_ns),
                            child.end_ns.min(span.end_ns),
                        )
                    })
                    .filter(|(start, end)| start < end)
                    .collect();
                children.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for (start, end) in children {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered) as f64
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |parent| parent.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.trace, span.id, parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut tracer = Tracer::new();
        let t = tracer.origin;
        let at = |ms: u64| t + Duration::from_millis(ms);
        let root = tracer.record("root", None, 0, at(0), at(10));
        tracer.record("child", Some(root), 0, at(1), at(4));
        tracer.record("child", Some(root), 0, at(3), at(5));
        tracer.record("child", Some(root), 0, at(8), at(12));
        let self_ms = tracer.self_times_ns("root")[0] / 1e6;
        assert!((self_ms - 4.0).abs() < 1e-9, "self time {self_ms}");
    }
}
