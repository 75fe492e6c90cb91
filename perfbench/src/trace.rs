//! In-memory tracing for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into each
//! layer: name, start, end, parent span and request id, kept in a
//! per-thread [`SpanLog`] and written out once the run ends. Boundaries
//! that fire tens of thousands of times per operation (model calls) are
//! not spans but per-thread [`Tally`] slots holding a call count and a
//! total time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether timing probes are armed. Counts are always kept; clocks are
/// read only while tracing.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms or disarms the timing probes.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One recorded span. Times are ns since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `"serve.wait"`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request (or profile) id shared by every span of one operation.
    pub rid: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Recorded spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log measuring from `epoch` (shared by every thread's log
    /// so their times are comparable).
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        rid: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            rid,
        });
        self.spans.len() - 1
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals over a span log.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus the time covered by their
    /// children), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, µs.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Self time per span name. Children of one span never overlap (each
/// thread records its own sequential spans), so a span's self time is its
/// duration minus the sum of its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(kids);
    }
    out
}

/// Writes the spans as JSON lines, then one summary line per layer.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"rid\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.rid
        );
    }
    for (name, t) in self_times(spans) {
        let _ = writeln!(
            text,
            "{{\"layer\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
            t.count, t.total_ns, t.self_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// A per-thread counter slot for a hot boundary. Only its owning thread
/// writes it, so updates are plain load/store pairs; readers on other
/// threads see a recent value, which is all a between-operations snapshot
/// needs (the pool's task hand-off orders the final writes before the
/// generator returns).
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
}

impl Tally {
    /// Adds one call of `ns` nanoseconds (0 when untimed).
    pub fn add(&self, ns: u64) {
        self.calls
            .store(self.calls.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        if ns > 0 {
            self.ns
                .store(self.ns.load(Ordering::Relaxed) + ns, Ordering::Relaxed);
        }
    }

    /// `(calls, ns)` so far.
    pub fn read(&self) -> (u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.ns.load(Ordering::Relaxed),
        )
    }
}

/// All threads' slots for one boundary.
#[derive(Debug, Default)]
pub struct TallySet {
    slots: Mutex<Vec<Arc<Tally>>>,
}

impl TallySet {
    /// Registers a new slot for the calling thread.
    pub fn register(&self) -> Arc<Tally> {
        let slot = Arc::new(Tally::default());
        self.slots
            .lock()
            .expect("tally registry lock is never poisoned")
            .push(Arc::clone(&slot));
        slot
    }

    /// `(calls, ns)` summed over every thread.
    pub fn total(&self) -> (u64, u64) {
        let slots = self
            .slots
            .lock()
            .expect("tally registry lock is never poisoned");
        slots.iter().fold((0, 0), |(c, n), s| {
            let (sc, sn) = s.read();
            (c + sc, n + sn)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut log = SpanLog::new(epoch);
        let root = log.record("request", None, 7, at(0), at(100));
        log.record("encode", Some(root), 7, at(0), at(10));
        log.record("wait", Some(root), 7, at(10), at(90));
        let t = self_times(&log.spans);
        assert_eq!(t["request"].self_ns, 10_000);
        assert_eq!(t["wait"].self_ns, 80_000);
        assert_eq!(t["encode"].count, 1);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch);
        a.record("x", None, 0, epoch, epoch);
        let mut b = SpanLog::new(epoch);
        let r = b.record("y", None, 1, epoch, epoch);
        b.record("z", Some(r), 1, epoch, epoch);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
