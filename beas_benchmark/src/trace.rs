//! The benchmark's own spans.
//!
//! The product is not instrumented by this benchmark: every span wraps a
//! call the benchmark itself makes into a layer's public function.  The
//! traced pass first makes the real call (`Session::execute`,
//! `QueryService::insert_rows`), then *replays* the calls that one makes
//! inside — `prepare`, `admit_prepared`, `execute_prepared`, and below those
//! `parse_select`, `execute_ctx`, `Engine::plan` … — on the same pinned
//! snapshot, and records each replay as a child of the call it re-enacts.
//! A child therefore runs after its parent returned rather than inside it;
//! self time is computed from durations, which for spans that do nest is the
//! same number.

use crate::json::Json;
use crate::stats::median;
use beas::obs::clock;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation (one script entry or one maintenance round) this span
    /// belongs to.
    pub op_id: u32,
    /// Index of this span in the trace.
    pub id: u32,
    /// The span whose inner call this one re-enacts.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The script shape, on the span of a real submission; empty elsewhere.
    pub shape: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span, where the layer reports it (tuples
    /// fetched, rows scanned, a deduced bound); 0 otherwise.
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    op_id: u32,
    last_op: u32,
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: clock::now(),
            op_id: 0,
            last_op: 0,
            spans: Vec::new(),
        }
    }

    /// Start a new operation; spans recorded from here on carry its id.
    pub fn begin_op(&mut self) -> u32 {
        self.last_op += 1;
        self.op_id = self.last_op;
        self.op_id
    }

    /// Go back to operation `id`: its replay continues.
    pub fn resume_op(&mut self, id: u32) {
        self.op_id = id;
    }

    /// Run `f` inside a span and return its value with the span's id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = clock::now();
        let value = f();
        let end = clock::now();
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            op_id: self.op_id,
            id,
            parent,
            name,
            shape: "",
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            count: 0,
        });
        (value, id)
    }

    /// Rename span `id`, when what the call did is known only afterwards.
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Label span `id` with the script shape it submits.
    pub fn set_shape(&mut self, id: u32, shape: &'static str) {
        self.spans[id as usize].shape = shape;
    }

    /// Attach a work count to span `id`.
    pub fn set_count(&mut self, id: u32, count: u64) {
        self.spans[id as usize].count = count;
    }

    /// One JSON object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Names and shapes are identifiers of this crate; they need no
            // escaping.
            let _ = writeln!(
                out,
                "{{\"op_id\": {}, \"id\": {}, \"name\": \"{}\", \"shape\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"count\": {}}}",
                s.op_id, s.id, s.name, s.shape, parent, s.start_ns, s.end_ns, s.count
            );
        }
        out
    }
}

/// Self time of every span: its duration minus its children's, floored at 0
/// (a replayed child can come out slower than the call it re-enacts).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Median duration in microseconds of the spans called `name`.
pub fn median_dur_us(spans: &[Span], name: &str) -> Option<f64> {
    let durs: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    median(&durs)
}

/// Median self time in microseconds of the spans called `name`.
pub fn median_self_us(spans: &[Span], self_ns: &[u64], name: &str) -> Option<f64> {
    let selfs: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect();
    median(&selfs)
}

/// Nanoseconds per unit of work over all spans called `name`: their total
/// duration over their total count.  `None` when the count is zero.
pub fn ns_per_count(spans: &[Span], name: &str) -> Option<f64> {
    let (ns, count) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(ns, count), s| {
            (ns + s.dur_ns(), count + s.count)
        });
    (count > 0).then(|| ns as f64 / count as f64)
}

/// `--breakdown`: read a trace file back and print, per script shape, the
/// median total of its real submissions and the median self time of every
/// stage replayed under them.  This is the table that answers "where does a
/// query's time go".
pub fn breakdown(jsonl: &str) -> Result<String, String> {
    struct Rec {
        op_id: u64,
        name: String,
        shape: String,
        parent: Option<usize>,
        dur_ns: u64,
    }
    let mut recs = Vec::new();
    for (n, line) in jsonl.lines().enumerate() {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: no {k}", n + 1))
        };
        let text = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        recs.push(Rec {
            op_id: num("op_id")? as u64,
            name: text("name"),
            shape: text("shape"),
            parent: v.get("parent").and_then(Json::as_f64).map(|p| p as usize),
            dur_ns: (num("end_ns")? - num("start_ns")?) as u64,
        });
    }
    let mut children = vec![0u64; recs.len()];
    for r in &recs {
        if let Some(slot) = r.parent.and_then(|p| children.get_mut(p)) {
            *slot += r.dur_ns;
        }
    }
    // shape of each operation, from the span of its real submission
    let shape_of: std::collections::HashMap<u64, &str> = recs
        .iter()
        .filter(|r| !r.shape.is_empty())
        .map(|r| (r.op_id, r.shape.as_str()))
        .collect();
    // (shape, stage) -> self times in microseconds; stage "" is the total
    let mut cells: std::collections::BTreeMap<(&str, &str), Vec<f64>> = Default::default();
    for (r, c) in recs.iter().zip(&children) {
        let Some(shape) = shape_of.get(&r.op_id) else {
            continue;
        };
        let own = r.dur_ns.saturating_sub(*c) as f64 / 1e3;
        cells.entry((shape, r.name.as_str())).or_default().push(own);
        if !r.shape.is_empty() {
            cells
                .entry((shape, ""))
                .or_default()
                .push(r.dur_ns as f64 / 1e3);
        }
    }
    let mut out = format!(
        "{:<22} {:<24} {:>6} {:>12}\n",
        "shape", "stage", "n", "self p50 us"
    );
    for ((shape, stage), values) in &cells {
        let stage = if stage.is_empty() {
            "(total of the real call)"
        } else {
            stage
        };
        let p50 = median(values).expect("a cell has a value");
        let _ = writeln!(
            out,
            "{shape:<22} {stage:<24} {:>6} {p50:>12.2}",
            values.len()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            op_id: 1,
            id,
            parent,
            name,
            shape: "",
            start_ns: start,
            end_ns: end,
            count: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "execute", 0, 100),
            // replays run after the parent returned
            span(1, Some(0), "prepare", 100, 130),
            span(2, Some(0), "run", 130, 190),
            span(3, Some(2), "fetch", 190, 230),
            // a replay slower than its parent floors the parent at 0
            span(4, Some(3), "probe", 230, 300),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![10, 30, 20, 0, 70]);
        // the self times of a subtree add up to its root when nothing floors
        assert_eq!(selfs[..3].iter().sum::<u64>() + spans[3].dur_ns(), 100);
    }

    #[test]
    fn medians_by_name() {
        let mut spans = vec![
            span(0, None, "a", 0, 1_000),
            span(1, None, "a", 0, 3_000),
            span(2, None, "a", 0, 2_000),
            span(3, None, "b", 0, 500),
        ];
        spans[0].count = 10;
        spans[1].count = 10;
        assert_eq!(median_dur_us(&spans, "a"), Some(2.0));
        assert_eq!(median_dur_us(&spans, "missing"), None);
        let selfs = self_times_ns(&spans);
        assert_eq!(median_self_us(&spans, &selfs, "b"), Some(0.5));
        assert_eq!(ns_per_count(&spans, "a"), Some(300.0));
        assert_eq!(ns_per_count(&spans, "b"), None);
    }

    #[test]
    fn tracer_records_parents_ops_and_jsonl() {
        let mut t = Tracer::new();
        let first = t.begin_op();
        let (v, root) = t.time("outer", None, || 7);
        assert_eq!(v, 7);
        let (_, child) = t.time("inner", Some(root), || ());
        t.set_count(child, 42);
        assert_eq!(t.begin_op(), 2);
        t.time("outer", None, || ());
        t.resume_op(first);
        t.time("late", Some(root), || ());
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].op_id, 2);
        assert_eq!(t.spans[3].op_id, 1);
        assert_eq!(t.begin_op(), 3);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let lines: Vec<String> = t.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(lines.len(), 4);
        let table = breakdown(&t.to_jsonl()).unwrap();
        assert!(
            table.is_empty() || table.lines().count() == 1,
            "no shape was labelled: {table}"
        );
        t.set_shape(root, "Q2");
        let table = breakdown(&t.to_jsonl()).unwrap();
        assert!(
            table.contains("(total of the real call)") && table.contains("late"),
            "{table}"
        );
        assert!(breakdown("not json").is_err());
        let parsed = crate::json::Json::parse(&lines[1]).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("inner"));
        assert_eq!(parsed.get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(parsed.get("count").unwrap().as_f64(), Some(42.0));
    }
}
