//! In-memory spans around the benchmark's calls into each layer, and
//! the self time derived from them.
//!
//! A disabled tracer records nothing, so the untraced passes pay one
//! branch per call site. Spans are written out once, at the end of the
//! run.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span: a named call, its interval in nanoseconds since
/// the tracer started, the span that enclosed it, and the pass it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub pass: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), pass: 0 }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts a new pass: later spans carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Runs `f` inside a span named `name` (a no-op wrapper when
    /// disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line, followed by one
    /// `self_time` line per span name.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"pass\":{}}}",
                s.name, s.start_ns, s.end_ns, s.pass
            )?;
        }
        for (name, t) in self_times(&self.spans) {
            writeln!(
                out,
                "{{\"self_time\":\"{name}\",\"calls\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.calls, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

/// Per span name: how many spans, their summed duration, and their
/// summed self time.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time is its duration minus the part its children
/// cover. Children of one span never overlap (the passes run on one
/// thread), so that part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += dur(s);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += dur(s);
        t.self_ns += dur(s).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, pass: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("run", 10, 40, Some(0)),
            span("run", 50, 90, Some(0)),
            span("inner", 55, 65, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["pass"], SelfTime { calls: 1, total_ns: 100, self_ns: 30 });
        assert_eq!(t["run"], SelfTime { calls: 2, total_ns: 70, self_ns: 60 });
        assert_eq!(t["inner"], SelfTime { calls: 1, total_ns: 10, self_ns: 10 });
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |t| t.span("y", |_| 7)), 7);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        on.next_pass();
        on.span("x", |t| t.span("y", |_| ()));
        let s = on.spans();
        assert_eq!((s.len(), s[1].parent, s[1].pass), (2, Some(0), 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
