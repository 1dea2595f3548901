//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only by the benchmark's own code, at the boundary
//! of a public call (`Scenario::build`, `ScenarioRun::run_until_secs`,
//! `exec::run_cells`, one served op). Nothing is written while the run
//! measures; [`Tracer::write`] dumps the spans when it ends. A disabled
//! tracer records nothing, so untraced runs pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder. Spans nest: `begin` makes the innermost open span
/// the parent.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: impl Into<String>) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        self.spans[id].end_ns = self.now_ns();
        if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
            self.open.truncate(pos);
        }
    }

    /// Records a span measured elsewhere (e.g. on another thread), as a
    /// child of the innermost open span.
    pub fn record(&mut self, name: impl Into<String>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_ns: rel(start),
            end_ns: rel(end),
        });
    }

    /// Per span name: (count, inclusive ns, self ns), where self time is
    /// a span's duration minus the part its children cover.
    pub fn by_name(&self) -> Vec<(String, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: Vec<(String, u64, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let own = total.saturating_sub(child_ns[i]);
            match out.iter_mut().find(|(n, ..)| *n == s.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => out.push((s.name.clone(), 1, total, own)),
            }
        }
        out
    }

    /// Renders the span table: name, count, inclusive and self ms, and
    /// self share of all recorded self time.
    pub fn table(&self) -> String {
        let rows = self.by_name();
        let all_self: u64 = rows.iter().map(|r| r.3).sum::<u64>().max(1);
        let mut out = format!(
            "{:<34} {:>6} {:>12} {:>12} {:>7}\n",
            "span", "count", "incl ms", "self ms", "share"
        );
        for (name, count, total, own) in rows {
            let _ = writeln!(
                out,
                "{name:<34} {count:>6} {:>12.3} {:>12.3} {:>6.1}%",
                total as f64 / 1e6,
                own as f64 / 1e6,
                100.0 * own as f64 / all_self as f64
            );
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let rows = t.by_name();
        let outer_row = rows.iter().find(|r| r.0 == "outer").unwrap();
        let inner_row = rows.iter().find(|r| r.0 == "inner").unwrap();
        assert!(inner_row.2 >= 2_000_000);
        assert_eq!(outer_row.3, outer_row.2 - inner_row.2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x");
        t.end(s);
        assert!(t.by_name().is_empty());
    }
}
