//! The flight recorder: nested virtual-time spans in a bounded ring.
//!
//! A [`TraceRecorder`] holds two structures: a stack of *open* spans
//! (the current nesting path — request → engine op → engine phase →
//! filesystem I/O → device command) and a bounded ring buffer of
//! *completed* spans in completion order (children always complete
//! before their parents, so a parent's children precede it in the
//! ring). Span ids are sequential from 1, timestamps are whatever
//! virtual clock the caller passes — the recorder is strictly passive
//! and fully deterministic.
//!
//! [`Tracer`] is the handle the stack's layers hold: a cheap clonable
//! wrapper that is a no-op when tracing is off, so trace-off runs pay
//! one `Option` branch per call site and nothing else.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::cause::Cause;
use crate::Ns;

/// Default ring capacity (completed spans retained).
///
/// Sized so the `fig_anatomy` shapes (a few thousand requests, tens of
/// spans each) fit with a wide margin; when a run overflows it, the
/// oldest spans fall off and [`TraceRecorder::dropped`] counts them.
pub(crate) const DEFAULT_SPAN_CAPACITY: usize = 1 << 18;

/// One completed (or still-open) span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Sequential id, from 1, in begin order.
    pub id: u64,
    /// The enclosing span open at begin time (`None` for roots).
    pub parent: Option<u64>,
    /// Static phase name (`"req.get"`, `"lsm.compaction"`, `"dev.write"`, ...).
    pub name: &'static str,
    /// Cause tag current when the span began.
    pub cause: Cause,
    /// Virtual-time start.
    pub start: Ns,
    /// Virtual-time end (`>= start`).
    pub end: Ns,
}

impl Span {
    /// Span duration in virtual nanoseconds.
    pub fn duration(&self) -> Ns {
        self.end - self.start
    }
}

/// Opaque handle returned by [`Tracer::begin`]; carries nothing when
/// tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<u64>);

impl SpanId {
    /// The no-op id (tracing off).
    pub fn none() -> Self {
        SpanId(None)
    }

    /// The raw recorder id, when tracing was on.
    pub fn raw(self) -> Option<u64> {
        self.0
    }
}

/// Per-root rollup: one measured request/op and the total virtual time
/// spent in each distinctly named phase beneath it.
#[derive(Debug, Clone)]
pub struct OpBreakdown {
    /// The root span (the request or foreground op).
    pub root: Span,
    /// Summed duration of proper-descendant spans, grouped by name,
    /// sorted by name for determinism. Nested phases each report their
    /// own full duration (a `dev.write` inside `lsm.compaction` counts
    /// toward both names).
    pub by_name: Vec<(&'static str, Ns)>,
}

impl OpBreakdown {
    /// Total time under descendant spans with this name.
    pub fn time_in(&self, name: &str) -> Ns {
        self.by_name
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .sum()
    }
}

/// Bounded flight recorder of nested virtual-time spans.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    done: VecDeque<Span>,
    open: Vec<Span>,
    next_id: u64,
    dropped: u64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// A recorder with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// A recorder retaining at most `capacity` completed spans.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "recorder needs room for at least one span");
        Self {
            capacity,
            done: VecDeque::new(),
            open: Vec::new(),
            next_id: 1,
            dropped: 0,
        }
    }

    /// Opens a nested span at virtual time `now`; returns its id.
    pub fn begin(&mut self, name: &'static str, cause: Cause, now: Ns) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(Span {
            id,
            parent: self.open.last().map(|s| s.id),
            name,
            cause,
            start: now,
            end: now,
        });
        id
    }

    /// Closes span `id` at virtual time `now`. Any spans opened after
    /// it and never closed (a bug in the instrumented layer, not the
    /// recorder) are closed at `now` too, preserving nesting.
    ///
    /// A span's end is floored by its children's ends: device
    /// completions land in the *future* of the issuing layer's clock
    /// (background writes), and the parent stretches to cover them so
    /// nesting (`child.end <= parent.end`) always holds.
    pub fn end(&mut self, id: u64, now: Ns) {
        while let Some(mut span) = self.open.pop() {
            let found = span.id == id;
            span.end = span.end.max(now).max(span.start);
            self.push_done(span);
            if found {
                return;
            }
        }
    }

    /// Records a completed leaf span parented to the innermost open
    /// span.
    pub fn leaf(&mut self, name: &'static str, cause: Cause, start: Ns, end: Ns) {
        let id = self.next_id;
        self.next_id += 1;
        let span = Span {
            id,
            parent: self.open.last().map(|s| s.id),
            name,
            cause,
            start,
            end: end.max(start),
        };
        self.push_done(span);
    }

    fn push_done(&mut self, span: Span) {
        // Propagate the completion horizon: the enclosing span must end
        // no earlier than any child (open spans reuse `end` as that
        // floor until they close).
        if let Some(parent) = self.open.last_mut() {
            parent.end = parent.end.max(span.end);
        }
        if self.done.len() == self.capacity {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(span);
    }

    /// Clears all spans and restarts ids from 1 (the
    /// `reset_observability` step between experiment phases).
    pub fn clear(&mut self) {
        self.done.clear();
        self.open.clear();
        self.next_id = 1;
        self.dropped = 0;
    }

    /// Completed spans, in completion order (children before parents).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.done.iter()
    }

    /// Number of completed spans retained.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// Whether no completed span is retained.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// Completed spans evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current nesting depth of open spans.
    pub fn open_depth(&self) -> usize {
        self.open.len()
    }

    /// Total duration and span count per phase name, sorted by total
    /// duration descending then name (deterministic).
    pub fn time_by_name(&self) -> Vec<(&'static str, Ns, u64)> {
        let mut agg: HashMap<&'static str, (Ns, u64)> = HashMap::new();
        for s in &self.done {
            let e = agg.entry(s.name).or_insert((0, 0));
            e.0 += s.duration();
            e.1 += 1;
        }
        let mut rows: Vec<(&'static str, Ns, u64)> =
            agg.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        rows
    }

    /// Rolls completed spans up to their roots: one [`OpBreakdown`] per
    /// root span whose ancestry is fully retained, in root completion
    /// order. Spans whose parent chain was evicted from the ring are
    /// skipped (count them via [`TraceRecorder::dropped`]).
    pub fn op_breakdowns(&self) -> Vec<OpBreakdown> {
        // id -> span index, for parent-chain walks.
        let by_id: HashMap<u64, usize> = self
            .done
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        // Resolve each span to its root id (None when the chain is
        // broken by ring eviction).
        let mut root_of: HashMap<u64, Option<u64>> = HashMap::new();
        for s in &self.done {
            let mut chain = Vec::new();
            let mut cur = s.id;
            let root = loop {
                if let Some(&cached) = root_of.get(&cur) {
                    break cached;
                }
                chain.push(cur);
                let Some(&idx) = by_id.get(&cur) else {
                    break None;
                };
                match self.done[idx].parent {
                    None => break Some(cur),
                    Some(p) => cur = p,
                }
            };
            for id in chain {
                root_of.insert(id, root);
            }
        }
        // Group descendant time by (root, name).
        let mut grouped: HashMap<u64, HashMap<&'static str, Ns>> = HashMap::new();
        for s in &self.done {
            if s.parent.is_none() {
                continue;
            }
            if let Some(Some(root)) = root_of.get(&s.id) {
                *grouped.entry(*root).or_default().entry(s.name).or_insert(0) += s.duration();
            }
        }
        self.done
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|root| {
                let mut by_name: Vec<(&'static str, Ns)> = grouped
                    .remove(&root.id)
                    .map(|m| m.into_iter().collect())
                    .unwrap_or_default();
                by_name.sort_by(|a, b| a.0.cmp(b.0));
                OpBreakdown {
                    root: *root,
                    by_name,
                }
            })
            .collect()
    }

    /// Exports the retained spans as Chrome trace-event JSON (the
    /// `chrome://tracing` / Perfetto "complete event" format, `ph: "X"`,
    /// timestamps in microseconds). Deterministic: integer microsecond
    /// math with a fixed 3-digit nanosecond fraction.
    pub fn export_chrome(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.done.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let dur = s.duration();
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\
                 \"dur\":{}.{:03},\"pid\":0,\"tid\":0,\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.cause.label(),
                s.start / 1000,
                s.start % 1000,
                dur / 1000,
                dur % 1000,
                s.id,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }

    /// A fixed-width per-phase table: span count, total, mean and max
    /// virtual time per phase name, widest totals first.
    pub fn phase_table(&self) -> String {
        let mut agg: HashMap<&'static str, (u64, Ns, Ns)> = HashMap::new();
        for s in &self.done {
            let e = agg.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.duration();
            e.2 = e.2.max(s.duration());
        }
        let mut rows: Vec<(&'static str, u64, Ns, Ns)> =
            agg.into_iter().map(|(n, (c, t, m))| (n, c, t, m)).collect();
        rows.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)));
        let mut out = format!(
            "{:<18} {:>9} {:>15} {:>12} {:>12}\n",
            "phase", "spans", "total(ns)", "mean(ns)", "max(ns)"
        );
        for (name, count, total, max) in rows {
            out.push_str(&format!(
                "{:<18} {:>9} {:>15} {:>12} {:>12}\n",
                name,
                count,
                total,
                total.checked_div(count).unwrap_or(0),
                max
            ));
        }
        out
    }
}

/// A shared, lockable recorder handle: one per shard, threaded through
/// device, filesystem and engine.
pub type SharedTraceRecorder = Arc<parking_lot::Mutex<TraceRecorder>>;

/// The handle the stack's layers hold. Off by default; every method is
/// a no-op branch when off.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    rec: Option<SharedTraceRecorder>,
}

impl Tracer {
    /// The disabled tracer (the default everywhere).
    pub fn off() -> Self {
        Self::default()
    }

    /// A fresh recording tracer with the default ring capacity.
    pub fn recording() -> Self {
        Self::from_shared(Arc::new(parking_lot::Mutex::new(TraceRecorder::new())))
    }

    /// Wraps an existing shared recorder.
    pub(crate) fn from_shared(rec: SharedTraceRecorder) -> Self {
        Self { rec: Some(rec) }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.rec.is_some()
    }

    /// The shared recorder, when recording.
    pub fn shared(&self) -> Option<SharedTraceRecorder> {
        self.rec.clone()
    }

    /// Opens a nested span (no-op id when off).
    pub fn begin(&self, name: &'static str, cause: Cause, now: Ns) -> SpanId {
        SpanId(self.rec.as_ref().map(|r| r.lock().begin(name, cause, now)))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&self, id: SpanId, now: Ns) {
        if let (Some(rec), Some(id)) = (self.rec.as_ref(), id.0) {
            rec.lock().end(id, now);
        }
    }

    /// Records a completed leaf span.
    pub fn leaf(&self, name: &'static str, cause: Cause, start: Ns, end: Ns) {
        if let Some(rec) = self.rec.as_ref() {
            rec.lock().leaf(name, cause, start, end);
        }
    }

    /// Clears the recorder (no-op when off).
    pub fn clear(&self) {
        if let Some(rec) = self.rec.as_ref() {
            rec.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_complete_children_first() {
        let mut r = TraceRecorder::new();
        let req = r.begin("req.get", Cause::Get, 100);
        let op = r.begin("op.get", Cause::Get, 110);
        r.leaf("dev.read", Cause::Get, 115, 120);
        r.end(op, 130);
        r.end(req, 140);
        let spans: Vec<Span> = r.spans().copied().collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "dev.read");
        assert_eq!(spans[1].name, "op.get");
        assert_eq!(spans[2].name, "req.get");
        assert_eq!(spans[0].parent, Some(op));
        assert_eq!(spans[1].parent, Some(req));
        assert_eq!(spans[2].parent, None);
        assert!(spans.iter().all(|s| s.start <= s.end));
        assert_eq!(r.open_depth(), 0);
    }

    #[test]
    fn ids_are_sequential_and_deterministic() {
        let mut r = TraceRecorder::new();
        let a = r.begin("a", Cause::Other, 0);
        let b = r.begin("b", Cause::Other, 1);
        r.end(b, 2);
        r.end(a, 3);
        assert_eq!((a, b), (1, 2));
        r.clear();
        assert_eq!(r.begin("a", Cause::Other, 0), 1, "ids restart after clear");
    }

    #[test]
    fn ring_bound_drops_oldest_and_counts() {
        let mut r = TraceRecorder::with_capacity(2);
        r.leaf("a", Cause::Other, 0, 1);
        r.leaf("b", Cause::Other, 1, 2);
        r.leaf("c", Cause::Other, 2, 3);
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 1);
        let names: Vec<&str> = r.spans().map(|s| s.name).collect();
        assert_eq!(names, ["b", "c"]);
    }

    #[test]
    fn parents_stretch_to_cover_async_children() {
        // A background write's device completion lands after the layer
        // that issued it returns; every ancestor must cover it.
        let mut r = TraceRecorder::new();
        let req = r.begin("req.put", Cause::Put, 0);
        let flush = r.begin("lsm.flush", Cause::Compaction, 10);
        r.leaf("dev.write", Cause::Compaction, 12, 500);
        r.end(flush, 20); // issuing layer's clock is still at 20
        r.end(req, 30);
        let spans: Vec<Span> = r.spans().copied().collect();
        assert_eq!(spans[0].end, 500);
        assert_eq!(spans[1].end, 500, "flush stretched over its child");
        assert_eq!(spans[2].end, 500, "request stretched transitively");
    }

    #[test]
    fn end_closes_abandoned_children() {
        let mut r = TraceRecorder::new();
        let a = r.begin("a", Cause::Other, 0);
        let _leaked = r.begin("leaked", Cause::Other, 5);
        r.end(a, 10);
        assert_eq!(r.open_depth(), 0);
        let spans: Vec<Span> = r.spans().copied().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "leaked");
        assert_eq!(spans[0].end, 10);
    }

    #[test]
    fn op_breakdowns_group_descendants_by_root() {
        let mut r = TraceRecorder::new();
        let req = r.begin("req.put", Cause::Put, 0);
        let comp = r.begin("lsm.compaction", Cause::Compaction, 10);
        r.leaf("dev.write", Cause::Compaction, 12, 20);
        r.end(comp, 50);
        r.end(req, 60);
        let req2 = r.begin("req.get", Cause::Get, 100);
        r.end(req2, 110);
        let rollup = r.op_breakdowns();
        assert_eq!(rollup.len(), 2);
        assert_eq!(rollup[0].root.name, "req.put");
        assert_eq!(rollup[0].time_in("lsm.compaction"), 40);
        assert_eq!(rollup[0].time_in("dev.write"), 8);
        assert_eq!(rollup[0].time_in("missing"), 0);
        assert!(rollup[1].by_name.is_empty());
    }

    #[test]
    fn chrome_export_is_valid_shape_and_deterministic() {
        let mut r = TraceRecorder::new();
        let a = r.begin("req.get", Cause::Get, 1_234_567);
        r.leaf("dev.read", Cause::Get, 1_234_600, 1_240_000);
        r.end(a, 1_250_000);
        let json = r.export_chrome();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"cat\":\"get\""));
        assert!(json.contains("\"parent\":1"));
        assert_eq!(json, r.export_chrome());
        // Braces balance (a cheap structural parse).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn phase_table_aggregates_and_orders_by_total() {
        let mut r = TraceRecorder::new();
        r.leaf("small", Cause::Other, 0, 10);
        r.leaf("big", Cause::Other, 0, 1000);
        r.leaf("small", Cause::Other, 10, 30);
        let table = r.phase_table();
        let big_at = table.find("big").expect("big row");
        let small_at = table.find("small").expect("small row");
        assert!(big_at < small_at, "largest total first:\n{table}");
        assert!(table.contains("phase"));
        assert_eq!(table, r.phase_table());
    }

    #[test]
    fn tracer_off_is_a_no_op() {
        let t = Tracer::off();
        assert!(!t.is_on());
        let id = t.begin("x", Cause::Other, 0);
        assert_eq!(id.raw(), None);
        t.end(id, 10);
        t.leaf("y", Cause::Other, 0, 1);
        t.clear();
        assert!(t.shared().is_none());
    }

    #[test]
    fn tracer_on_records_through_the_shared_handle() {
        let t = Tracer::recording();
        assert!(t.is_on());
        let id = t.begin("x", Cause::Get, 0);
        t.end(id, 5);
        let rec = t.shared().expect("recording");
        assert_eq!(rec.lock().len(), 1);
        let clone = t.clone();
        clone.leaf("y", Cause::Get, 5, 6);
        assert_eq!(rec.lock().len(), 2, "clones share the recorder");
        t.clear();
        assert_eq!(rec.lock().len(), 0);
    }

    #[test]
    fn time_by_name_sums_durations() {
        let mut r = TraceRecorder::new();
        r.leaf("a", Cause::Other, 0, 5);
        r.leaf("a", Cause::Other, 5, 7);
        r.leaf("b", Cause::Other, 0, 100);
        let rows = r.time_by_name();
        assert_eq!(rows[0], ("b", 100, 1));
        assert_eq!(rows[1], ("a", 7, 2));
    }
}
