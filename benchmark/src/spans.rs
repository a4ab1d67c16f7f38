//! Spans around calls into the repo's layers, recorded by the benchmark's own
//! code: kept in memory while measuring and written as JSONL at exit. A
//! disabled recorder still runs the closure but records nothing, so the
//! end-to-end pass and the traced pass share every code path.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval. `parent` is the id of the span that was open when
/// this one started (`None` at the top level).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for one thread of one workload.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans { enabled, origin: Instant::now(), open: Vec::new(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`; nested calls become children.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { id, parent, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// [`time`](Self::time), also returning the nanoseconds `f` took.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> (R, u64) {
        let t0 = Instant::now();
        let out = self.time(name, f);
        (out, t0.elapsed().as_nanos() as u64)
    }

    pub fn recorded(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, workload: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, workload, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times: each span's duration minus the part of it its
    /// direct children cover.
    pub self_ns: u64,
}

/// Total and self time per span name. Children of one span never overlap
/// each other (one thread, strictly nested), so the covered part is the sum
/// of the children's durations.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered[s.id as usize]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // job [0,100] holds engine [10,60] and detect [60,90]; engine holds
        // merge [20,30] twice over.
        let spans = vec![
            span(0, None, "job", 0, 100),
            span(1, Some(0), "engine", 10, 60),
            span(2, Some(1), "merge", 20, 30),
            span(3, Some(1), "merge", 40, 50),
            span(4, Some(0), "detect", 60, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["job"], NameTotal { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(t["engine"], NameTotal { count: 1, total_ns: 50, self_ns: 30 });
        assert_eq!(t["merge"], NameTotal { count: 2, total_ns: 20, self_ns: 20 });
        assert_eq!(t["detect"], NameTotal { count: 1, total_ns: 30, self_ns: 30 });
        // Grandchildren are charged to their parent only: the self times of
        // a tree add up to the root's duration.
        assert_eq!(t.values().map(|n| n.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn the_recorder_nests_and_a_disabled_one_records_nothing() {
        let mut on = Spans::new(true);
        let got = on.time("outer", |s| s.time("inner", |_| 7));
        assert_eq!(got, 7);
        let r = on.recorded();
        assert_eq!((r[0].name, r[0].parent), ("outer", None));
        assert_eq!((r[1].name, r[1].parent), ("inner", Some(0)));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);

        let mut off = Spans::new(false);
        assert_eq!(off.time("outer", |s| s.time("inner", |_| 7)), 7);
        assert!(off.recorded().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut s = Spans::new(true);
        s.time("a", |s| s.time("b", |_| ()));
        let mut buf = Vec::new();
        s.write_jsonl("w", &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = serde_json::parse(lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&serde_json::Value::Null));
        assert_eq!(first.get("workload").and_then(|v| v.as_str()), Some("w"));
        let second = serde_json::parse(lines[1]).unwrap();
        assert_eq!(second.get("parent"), Some(&serde_json::Value::UInt(0)));
    }
}
