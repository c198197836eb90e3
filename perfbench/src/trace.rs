//! In-memory span recorder for the traced run. Each span carries its
//! name, start, end, parent span and the id of the workload run it
//! belongs to; spans are kept in memory and written out once, when the
//! run ends. A layer's self time is its span minus its child spans.
//!
//! Spans are recorded from the benchmark's side, around each public call
//! it makes into the product — there are no spans inside the program.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    on: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for workload run `run_id`, recording only when `on`.
    pub fn new(on: bool, run_id: u64) -> Self {
        Self {
            on,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Total duration of every span named `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover, summed by name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"run\":{},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 1);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        t.enter("parent");
        t.span("child", || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        let own = t.self_ns();
        let child = t.total_ns("child");
        assert!(child >= 3e6);
        assert!(own["parent"] < t.total_ns("parent"));
        assert!((own["parent"] + own["child"] - t.total_ns("parent")).abs() < 1.0);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        assert_eq!(t.span("x", || 7), 7);
        assert_eq!(t.len(), 0);
        assert!(t.self_ns().is_empty());
    }
}
