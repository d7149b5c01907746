//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by this benchmark's own code, around the public
//! calls it makes into each layer. Each span has a name, an optional label
//! (codesign or channel kind), an operation id shared by the spans of one
//! compile or one Monte-Carlo point, a parent, and start/end times in seconds
//! since the tracer was created. Nothing is written until the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Thread-safe span store; span ids are indices into it.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result. `f` receives the new
    /// span's id so it can parent child spans on it.
    pub fn span<R>(
        &self,
        name: &'static str,
        label: &str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                label: label.to_string(),
                op,
                parent,
                start: self.now(),
                end: f64::NAN,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Writes the spans of several tracers (one per traced rep) as JSON lines.
pub fn write_jsonl(tracers: &[&Tracer], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (rep, tracer) in tracers.iter().enumerate() {
        for (id, s) in tracer.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"rep\":{rep},\"id\":{id},\"name\":\"{}\",\"label\":\"{}\",\"op\":{},\"parent\":{parent},\"start\":{},\"end\":{}}}",
                s.name, s.label, s.op, s.start, s.end
            )?;
        }
    }
    out.flush()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span self time: the span's duration minus the part of it that its
/// child spans cover (children on other threads may overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.secs() - covered(kids, s.start, s.end))
        .collect()
}

/// Seconds of span `root`'s duration that none of its descendants covers.
pub fn uncovered(spans: &[Span], root: usize) -> f64 {
    let intervals = (0..spans.len())
        .filter(|&i| i != root && descends_from(spans, i, root))
        .map(|i| (spans[i].start, spans[i].end))
        .collect();
    let r = &spans[root];
    r.secs() - covered(intervals, r.start, r.end)
}

/// Whether span `i` is `root` or one of its descendants.
pub fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    loop {
        if i == root {
            return true;
        }
        match spans[i].parent {
            Some(p) => i = p,
            None => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: "x",
            label: String::new(),
            op: 0,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children (as from two pool threads) cover [1, 4].
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 3.0),
            span(Some(0), 2.0, 4.0),
            span(Some(1), 1.5, 2.5),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 7.0).abs() < 1e-12);
        assert!((t[1] - 1.0).abs() < 1e-12);
        assert!((uncovered(&spans, 0) - 7.0).abs() < 1e-12);
        assert!(descends_from(&spans, 3, 0));
        assert!(!descends_from(&spans, 2, 1));
    }
}
