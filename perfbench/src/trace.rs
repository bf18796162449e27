//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span: name,
//! start, end, parent span and the op the call belongs to. Spans stay in
//! memory until the run ends and are then written out as one JSON file.
//! A disabled recorder runs the wrapped closure and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of calls made during set-up, before the measured phase.
pub const SETUP_OP: u64 = 0;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Dotted name; the part before the first `.` is the layer.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this call belongs to ([`SETUP_OP`] for set-up).
    pub op: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; single-threaded by design (every benchmark
/// call is issued from the main thread).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let mut open = self.open.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: open.last().copied(),
                op,
            });
            open.push(spans.len() - 1);
            spans.len() - 1
        };
        let value = f();
        let end = self.now_ns();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = end;
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Each span's self time: its duration minus the part of it that its child
/// spans cover. Overlapping children count once, and a child reaching past
/// its parent counts only inside the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time.
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration per call in milliseconds (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / 1e6 / self.calls as f64
        }
    }
}

/// Per-name totals over the spans that `include` accepts, keyed by span
/// name (self times still account for every child).
pub fn totals_by_name(
    spans: &[Span],
    include: impl Fn(&Span) -> bool,
) -> BTreeMap<String, NameTotals> {
    let mut totals: BTreeMap<String, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if !include(span) {
            continue;
        }
        let entry = totals.entry(span.name.clone()).or_default();
        entry.calls += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    totals
}

/// Self time per layer, over the spans of measured ops only (set-up spans
/// are excluded).
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut layers: BTreeMap<String, u64> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        if span.op != SETUP_OP {
            *layers.entry(span.layer().to_string()).or_default() += self_ns;
        }
    }
    layers
}

/// The spans as one JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
            span.name, span.start_ns, span.end_ns, span.op
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span("op", 0, 100, None),
            span("a.x", 10, 30, Some(0)),
            span("b.y", 50, 60, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("op", 0, 100, None),
            span("a.x", 10, 50, Some(0)),
            span("a.y", 30, 70, Some(0)),
            span("a.z", 40, 45, Some(0)),
        ];
        // Children cover 10..70 once: 60 ns.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span("op", 20, 80, None),
            span("a.x", 0, 40, Some(0)),
            span("a.y", 70, 120, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span("op", 0, 100, None),
            span("a.x", 0, 60, Some(0)),
            span("b.y", 10, 40, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 30]);
        let layers = self_ns_by_layer(&spans);
        assert_eq!(layers["op"], 40);
        assert_eq!(layers["a"], 30);
        assert_eq!(layers["b"], 30);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_ops() {
        let tracer = Tracer::new(true);
        let value = tracer.span("op", 3, || tracer.span("layout.route", 3, || 7));
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let totals = totals_by_name(&spans, |_| true);
        assert_eq!(totals["layout.route"].calls, 1);
        assert!(totals_by_name(&spans, |s| s.op == SETUP_OP).is_empty());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("op", 1, || 5), 5);
        assert!(tracer.spans().is_empty());
    }
}
