//! The recording observer: span tree, counters, funnel records, and the
//! human/JSON renderers.

use crate::{FunnelRecord, Observer, SpanId};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Time source for span stamps. Production traces use the monotonic clock;
/// tests drive a manual clock so rendered traces are byte-reproducible.
#[derive(Debug, Clone, Copy)]
enum Clock {
    Monotonic(Instant),
    Manual(u64),
}

#[derive(Debug, Clone)]
struct SpanNode {
    name: String,
    depth: usize,
    start_ns: u64,
    /// `None` while the span is still open.
    duration_ns: Option<u64>,
    children: Vec<usize>,
}

/// One recorded span, flattened out of the trace tree — the shape the
/// aggregation layer ([`crate::MetricsRegistry`]) folds over.
#[derive(Debug, Clone, PartialEq, Eq)]
// lint: allow(dead_api): record type returned by the collector's drain API
pub struct SpanRecord {
    /// Span name as passed to [`Observer::span_start`].
    pub name: String,
    /// Nesting depth at start time (roots are 0).
    pub depth: usize,
    /// Start stamp relative to the collector's epoch.
    pub start_ns: u64,
    /// Wall time, or `None` while the span is still open.
    pub duration_ns: Option<u64>,
}

#[derive(Debug)]
struct Inner {
    clock: Clock,
    spans: Vec<SpanNode>,
    roots: Vec<usize>,
    stack: Vec<usize>,
    counters: BTreeMap<String, u64>,
    funnel: Vec<FunnelRecord>,
}

impl Inner {
    fn now_ns(&self) -> u64 {
        match self.clock {
            Clock::Monotonic(epoch) => {
                u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            Clock::Manual(now) => now,
        }
    }
}

/// An [`Observer`] that records everything it sees: a nested span tree with
/// monotonic-clock durations, summed counters, and funnel records in
/// arrival order.
///
/// The collector uses interior mutability and is intended for the
/// single-threaded orchestration path of an analysis (the pipeline's
/// stages run sequentially on the calling thread); it is deliberately not
/// `Sync`.
#[derive(Debug)]
pub struct TraceCollector {
    inner: RefCell<Inner>,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A collector stamping spans with the system monotonic clock.
    pub fn new() -> Self {
        // lint: allow(nondet_time): span timestamps are observability metadata; certified payloads go through manual()
        Self::with_clock(Clock::Monotonic(Instant::now()))
    }

    /// A collector with a manually advanced clock starting at 0 ns — spans
    /// get deterministic stamps, so rendered traces are byte-reproducible
    /// (used by the golden-file tests).
    pub fn manual() -> Self {
        Self::with_clock(Clock::Manual(0))
    }

    fn with_clock(clock: Clock) -> Self {
        Self {
            inner: RefCell::new(Inner {
                clock,
                spans: Vec::new(),
                roots: Vec::new(),
                stack: Vec::new(),
                counters: BTreeMap::new(),
                funnel: Vec::new(),
            }),
        }
    }

    /// Advances the manual clock by `ns`. No effect on a monotonic-clock
    /// collector.
    pub fn advance_ns(&self, ns: u64) {
        let mut inner = self.inner.borrow_mut();
        if let Clock::Manual(now) = &mut inner.clock {
            *now = now.saturating_add(ns);
        }
    }

    /// Current value of a counter, if it was ever incremented.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.inner.borrow().counters.get(name).copied()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner.borrow().counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// All funnel records, in arrival order. (Named to stay clear of the
    /// `Observer::funnel` recording method.)
    pub fn funnel_records(&self) -> Vec<FunnelRecord> {
        self.inner.borrow().funnel.clone()
    }

    /// Number of spans started so far (open or closed).
    pub fn span_count(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// All recorded spans in start order, flattened out of the tree.
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.inner
            .borrow()
            .spans
            .iter()
            .map(|s| SpanRecord {
                name: s.name.clone(),
                depth: s.depth,
                start_ns: s.start_ns,
                duration_ns: s.duration_ns,
            })
            .collect()
    }

    /// Renders the schema-stable JSON trace:
    ///
    /// ```json
    /// {
    ///   "version": 1,
    ///   "spans": [
    ///     {"name": "...", "start_ns": 0, "duration_ns": 10, "children": [...]}
    ///   ],
    ///   "counters": [{"name": "...", "value": 1}],
    ///   "funnel": [
    ///     {"stage": "...", "in": 7, "kept": 5,
    ///      "dropped": [{"reason": "...", "count": 2}]}
    ///   ]
    /// }
    /// ```
    ///
    /// Key order is fixed, counters are sorted by name, spans and funnel
    /// records appear in recording order, and a still-open span renders
    /// `"duration_ns": null`. The schema carries a `version` field so
    /// downstream consumers (CI validation, `--trace` files kept across
    /// runs) can evolve with it.
    pub fn render_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("{\n  \"version\": 1,\n  \"spans\": [");
        render_span_list(&mut out, &inner.spans, &inner.roots, 2);
        out.push_str("],\n  \"counters\": [");
        for (i, (name, value)) in inner.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"name\": {}, \"value\": {value}}}", json_string(name));
        }
        if !inner.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"funnel\": [");
        for (i, rec) in inner.funnel.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"stage\": {}, \"in\": {}, \"kept\": {}, \"dropped\": [",
                json_string(&rec.stage),
                rec.events_in,
                rec.kept
            );
            for (j, (reason, count)) in rec.dropped.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{{\"reason\": {}, \"count\": {count}}}", json_string(reason));
            }
            out.push_str("]}");
        }
        if !inner.funnel.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the human summary: the span tree with wall times, the
    /// per-stage funnel, and the counters.
    pub fn render_human(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::from("trace\n");
        let now = inner.now_ns();
        for &root in &inner.roots {
            render_human_span(&mut out, &inner.spans, root, now);
        }
        if !inner.funnel.is_empty() {
            out.push_str("funnel\n");
            for rec in &inner.funnel {
                // Zero-count reasons stay in the JSON (a stage that *could*
                // drop is information) but would only be noise here.
                let parts: Vec<String> = rec
                    .dropped
                    .iter()
                    .filter(|(_, n)| *n > 0)
                    .map(|(r, n)| format!("{r} {n}"))
                    .collect();
                let drops = if parts.is_empty() { String::from("-") } else { parts.join(", ") };
                let _ = writeln!(
                    out,
                    "  {:<12} in {:>5}  kept {:>5}  dropped: {}",
                    rec.stage, rec.events_in, rec.kept, drops
                );
            }
        }
        if !inner.counters.is_empty() {
            out.push_str("counters\n");
            for (name, value) in &inner.counters {
                let _ = writeln!(out, "  {name:<36} {value:>12}");
            }
        }
        out
    }
}

impl Observer for TraceCollector {
    fn span_start(&self, name: &str) -> SpanId {
        let mut inner = self.inner.borrow_mut();
        let start_ns = inner.now_ns();
        let id = inner.spans.len();
        let depth = inner.stack.len();
        inner.spans.push(SpanNode {
            name: name.to_string(),
            depth,
            start_ns,
            duration_ns: None,
            children: Vec::new(),
        });
        match inner.stack.last().copied() {
            Some(parent) => inner.spans[parent].children.push(id),
            None => inner.roots.push(id),
        }
        inner.stack.push(id);
        SpanId(u64::try_from(id).unwrap_or(u64::MAX))
    }

    fn span_end(&self, id: SpanId) {
        let mut inner = self.inner.borrow_mut();
        let Ok(target) = usize::try_from(id.0) else { return };
        if !inner.stack.contains(&target) {
            return; // already closed, or a foreign id — ignore
        }
        let now = inner.now_ns();
        // Unwind to the target: any span left open below it closes with it.
        while let Some(open) = inner.stack.pop() {
            let node = &mut inner.spans[open];
            node.duration_ns = Some(now.saturating_sub(node.start_ns));
            if open == target {
                break;
            }
        }
    }

    fn counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn funnel(&self, record: FunnelRecord) {
        self.inner.borrow_mut().funnel.push(record);
    }
}

/// Renders `ids` as a JSON array body (without the surrounding brackets'
/// first `[`/last `]`), indented `indent` levels deep.
fn render_span_list(out: &mut String, spans: &[SpanNode], ids: &[usize], indent: usize) {
    let pad = "  ".repeat(indent);
    for (i, &id) in ids.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let node = &spans[id];
        let _ = write!(
            out,
            "\n{pad}{{\"name\": {}, \"start_ns\": {}, \"duration_ns\": ",
            json_string(&node.name),
            node.start_ns
        );
        match node.duration_ns {
            Some(d) => {
                let _ = write!(out, "{d}");
            }
            None => out.push_str("null"),
        }
        out.push_str(", \"children\": [");
        render_span_list(out, spans, &node.children, indent + 1);
        out.push_str("]}");
    }
    if !ids.is_empty() {
        let _ = write!(out, "\n{}", "  ".repeat(indent - 1));
    }
}

fn render_human_span(out: &mut String, spans: &[SpanNode], id: usize, now: u64) {
    // lint: allow(reachable_panic): ids come from the collector's own span table
    let node = &spans[id];
    let label = format!("{}{}", "  ".repeat(node.depth + 1), node.name);
    let time = match node.duration_ns {
        Some(d) => format_ns(d),
        None => format!("{} (open)", format_ns(now.saturating_sub(node.start_ns))),
    };
    let _ = writeln!(out, "{label:<48} {time:>12}");
    for &child in &node.children {
        render_human_span(out, spans, child, now);
    }
}

/// Formats a nanosecond count at a human scale.
fn format_ns(ns: u64) -> String {
    let v = ns as f64;
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} µs", v / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", v / 1e6)
    } else {
        format!("{:.3} s", v / 1e9)
    }
}

/// Escapes `s` as a JSON string literal, including the quotes. (Shared
/// with the exposition and diff renderers.)
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    #[test]
    fn spans_nest_by_call_order() {
        let t = TraceCollector::manual();
        let obs: &dyn Observer = &t;
        {
            let _root = Span::enter(obs, "root");
            t.advance_ns(10);
            {
                let _child = Span::enter(obs, "child");
                t.advance_ns(5);
            }
            {
                let _child = Span::enter(obs, "sibling");
                t.advance_ns(1);
            }
        }
        assert_eq!(t.span_count(), 3);
        let json = t.render_json();
        let root_at = json.find("\"root\"").unwrap();
        let child_at = json.find("\"child\"").unwrap();
        assert!(child_at > root_at, "child rendered inside root");
        assert!(json.contains("\"duration_ns\": 16"), "{json}");
        assert!(json.contains("\"duration_ns\": 5"), "{json}");
    }

    #[test]
    fn unclosed_span_renders_null_duration() {
        let t = TraceCollector::manual();
        let id = t.span_start("open");
        t.advance_ns(3);
        let json = t.render_json();
        assert!(json.contains("\"duration_ns\": null"), "{json}");
        t.span_end(id);
        assert!(!t.render_json().contains("null"));
    }

    #[test]
    fn dropping_a_parent_closes_orphaned_children() {
        let t = TraceCollector::manual();
        let parent = t.span_start("parent");
        let _child = t.span_start("child");
        t.advance_ns(7);
        t.span_end(parent); // child was never ended explicitly
        let json = t.render_json();
        assert!(!json.contains("null"), "unwind closed the child: {json}");
    }

    #[test]
    fn double_end_is_ignored() {
        let t = TraceCollector::manual();
        let a = t.span_start("a");
        t.span_end(a);
        t.span_end(a);
        t.span_end(SpanId(999));
        assert_eq!(t.span_count(), 1);
    }

    #[test]
    fn counters_sum_and_sort() {
        let t = TraceCollector::new();
        t.counter("b", 2);
        t.counter("a", 1);
        t.counter("b", 3);
        assert_eq!(t.counters(), vec![("a".into(), 1), ("b".into(), 5)]);
        assert_eq!(t.counter_value("b"), Some(5));
        assert_eq!(t.counter_value("missing"), None);
    }

    #[test]
    fn human_rendering_has_all_sections() {
        let t = TraceCollector::manual();
        {
            let _s = Span::enter(&t, "stage");
            t.advance_ns(1_500);
        }
        t.counter("solves", 4);
        t.funnel(FunnelRecord::new("stage", 3, 2).dropped("noisy", 1));
        let human = t.render_human();
        assert!(human.contains("trace\n"));
        assert!(human.contains("stage"));
        assert!(human.contains("1.5 µs"));
        assert!(human.contains("funnel"));
        assert!(human.contains("noisy 1"));
        assert!(human.contains("counters"));
        assert!(human.contains("solves"));
    }

    #[test]
    fn zero_count_drop_reasons_stay_out_of_the_human_tree() {
        let t = TraceCollector::manual();
        t.funnel(FunnelRecord::new("select", 4, 4).dropped("dependent", 0));
        t.funnel(FunnelRecord::new("noise", 5, 4).dropped("noisy", 1).dropped("zero", 0));
        let human = t.render_human();
        assert!(!human.contains("dependent"), "{human}");
        assert!(!human.contains("zero 0"), "{human}");
        assert!(human.contains("dropped: -"), "all-zero stage renders a dash: {human}");
        assert!(human.contains("noisy 1"), "{human}");
        // The JSON keeps every reason, zero counts included.
        let json = t.render_json();
        assert!(json.contains("\"reason\": \"dependent\", \"count\": 0"), "{json}");
    }

    #[test]
    fn span_records_flatten_the_tree_in_start_order() {
        let t = TraceCollector::manual();
        {
            let obs: &dyn Observer = &t;
            let _root = Span::enter(obs, "root");
            t.advance_ns(2);
            let _child = Span::enter(obs, "child");
            t.advance_ns(3);
        }
        let open = t.span_start("open");
        let records = t.span_records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "root");
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[0].duration_ns, Some(5));
        assert_eq!(records[1].name, "child");
        assert_eq!(records[1].depth, 1);
        assert_eq!(records[1].start_ns, 2);
        assert_eq!(records[1].duration_ns, Some(3));
        assert_eq!(records[2].duration_ns, None, "still open");
        t.span_end(open);
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("n\nl"), "\"n\\nl\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(12), "12 ns");
        assert_eq!(format_ns(1_500), "1.5 µs");
        assert_eq!(format_ns(2_500_000), "2.50 ms");
        assert_eq!(format_ns(3_200_000_000), "3.200 s");
    }
}
