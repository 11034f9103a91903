//! Operation spans: per-op contexts minted at client op start and marked
//! with sim-time phase transitions as the op moves through the control
//! plane, the fabric, NIC handlers, and storage completion.
//!
//! A span's phase marks *telescope*: each mark's duration is the time since
//! the previous mark (the first since span start), and closing a span
//! appends a final `completed`/`rejected` mark at the end time. The phase
//! durations therefore sum exactly — in sim-clock picoseconds, not
//! approximately — to the op's end-to-end latency.

use std::collections::{BTreeMap, VecDeque};

use crate::hash::IdMap;
use crate::time::{Dur, Time};

/// Identifier of one operation span. `0` is the invalid/no-op id (what a
/// disabled book hands out).
pub type SpanId = u64;

/// Canonical phase-mark names. Call sites may add their own, but the
/// standard lifecycle uses these so exports and tests agree on naming.
pub mod phase {
    /// Control-plane placement/resolve finished.
    pub const RESOLVED: &str = "resolved";
    /// Request(s) handed to the NIC / fanned out to storage nodes.
    pub const FANNED_OUT: &str = "fanned-out";
    /// A storage NIC authenticated the request (sPIN header handler or
    /// read-path capability check).
    pub const NIC_VALIDATED: &str = "nic-validated";
    /// A storage host CPU validated an RPC-path request.
    pub const CPU_VALIDATED: &str = "cpu-validated";
    /// All fan-in pieces arrived back and were stitched together.
    pub const REASSEMBLED: &str = "reassembled";
    /// Read served from the client cache without touching the network.
    pub const CACHE_HIT: &str = "cache-hit";
    /// A stripe needed erasure-coded reconstruction on the read path.
    pub const DEGRADED: &str = "degraded";
    /// The last survivor packet of a degraded gather reached its
    /// coordinator NIC.
    pub const GATHERED: &str = "gathered";
    /// The last rebuilt packet of a degraded gather left the coordinator's
    /// EC engine.
    pub const NIC_RECONSTRUCTED: &str = "nic-reconstructed";
    /// One packet moved through a NIC handler pipeline (recorded per
    /// packet, not per op — fine-grained pipeline phase accounting).
    pub const NIC_PKT: &str = "nic-pkt";
    /// A gather responder pushed one DMA batch of response packets, or a
    /// degraded gather sent its last rebuilt one.
    pub const STREAMED: &str = "streamed";
    /// The readahead tail was split off into a background fill; the
    /// miss-critical span excludes it from this point on.
    pub const READAHEAD: &str = "readahead";
    /// The op was re-issued after a Busy/NACK.
    pub const RETRIED: &str = "retried";
    /// Repair reconstructed the lost shard.
    pub const REBUILT: &str = "rebuilt";
    /// Control-plane commit (write/repair) done.
    pub const COMMITTED: &str = "committed";
    /// Terminal mark of a successful span.
    pub(crate) const COMPLETED: &str = "completed";
    /// Terminal mark of a failed/rejected span.
    pub(crate) const REJECTED: &str = "rejected";
}

/// What kind of client operation a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Write,
    Read,
    Repair,
    Meta,
    /// One span covering a whole batch of metadata ops (a `MetaWorkload`
    /// storm): op-count attribution in the label instead of one span per
    /// op, so storms do not saturate the completed ring.
    MetaBulk,
}

impl OpKind {
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Read => "read",
            OpKind::Repair => "repair",
            OpKind::Meta => "meta",
            OpKind::MetaBulk => "meta-bulk",
        }
    }
}

/// One operation's recorded lifecycle.
#[derive(Clone, Debug)]
pub struct OpSpan {
    pub id: SpanId,
    pub kind: OpKind,
    /// Export track this span renders on (e.g. `client-0`).
    pub track: String,
    /// Human-readable label (e.g. `write f3 64KiB`).
    pub label: String,
    pub start: Time,
    /// Meaningful once closed; equals `start` while open.
    pub end: Time,
    pub ok: bool,
    /// Time-ordered phase marks; closing appends the terminal mark.
    pub marks: Vec<(&'static str, Time)>,
}

impl OpSpan {
    pub fn e2e(&self) -> Dur {
        self.end.since(self.start)
    }

    /// Per-phase latency breakdown. Each entry is a mark name and the time
    /// elapsed since the previous mark (span start for the first), so the
    /// durations sum exactly to [`OpSpan::e2e`].
    pub fn phase_durations(&self) -> Vec<(&'static str, Dur)> {
        let mut out = Vec::with_capacity(self.marks.len());
        let mut prev = self.start;
        for &(name, at) in &self.marks {
            out.push((name, at.since(prev)));
            prev = at;
        }
        out
    }

    /// Time of the first mark with this name.
    pub fn mark_time(&self, name: &str) -> Option<Time> {
        self.marks.iter().find(|(n, _)| *n == name).map(|&(_, t)| t)
    }

    pub fn has_mark(&self, name: &str) -> bool {
        self.mark_time(name).is_some()
    }
}

/// The span registry: open spans by id, a bounded ring of completed spans,
/// and a correlation table mapping wire-level request ids (`greq`) to open
/// spans so storage-side components can mark phases without carrying span
/// ids through the packet format.
pub struct SpanBook {
    enabled: bool,
    next_id: SpanId,
    open: BTreeMap<SpanId, OpSpan>,
    done: VecDeque<OpSpan>,
    cap: usize,
    dropped: u64,
    corr: IdMap<u64, SpanId>,
}

impl SpanBook {
    /// An enabled book retaining the most recent `cap` completed spans.
    pub(crate) fn new(cap: usize) -> SpanBook {
        SpanBook {
            enabled: true,
            next_id: 1,
            open: BTreeMap::new(),
            done: VecDeque::new(),
            cap: cap.max(1),
            dropped: 0,
            corr: IdMap::default(),
        }
    }

    /// A disabled book: `begin` returns the invalid id and everything else
    /// is a cheap no-op.
    pub(crate) fn disabled() -> SpanBook {
        let mut b = SpanBook::new(1);
        b.enabled = false;
        b
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a new span. Returns `0` when the book is disabled.
    pub fn begin(
        &mut self,
        kind: OpKind,
        track: impl Into<String>,
        label: impl Into<String>,
        at: Time,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(
            id,
            OpSpan {
                id,
                kind,
                track: track.into(),
                label: label.into(),
                start: at,
                end: at,
                ok: false,
                marks: Vec::new(),
            },
        );
        id
    }

    /// Record a phase mark on an open span. Unknown/closed ids are ignored
    /// (late marks can legitimately race span completion, e.g. a storage
    /// ack arriving after a client-side retry already closed the op).
    ///
    /// Mark times are clamped monotonic: concurrent sub-flows of one op
    /// (e.g. two gather responders streaming to the same span) may record
    /// phases stamped at *future* ready-times in arrival order, so a
    /// later append can carry an earlier stamp. The telescoping
    /// invariant (phase durations sum exactly to e2e) requires
    /// nondecreasing marks, and clamping preserves the total.
    pub fn mark(&mut self, id: SpanId, name: &'static str, at: Time) {
        if let Some(sp) = self.open.get_mut(&id) {
            sp.marks.push((name, Self::monotonic(sp, at)));
        }
    }

    fn monotonic(sp: &OpSpan, at: Time) -> Time {
        match sp.marks.last() {
            Some(&(_, last)) if at < last => last,
            _ => at,
        }
    }

    /// Replace an open span's label (e.g. a bulk span stamping its final
    /// op count at completion time).
    pub fn relabel(&mut self, id: SpanId, label: impl Into<String>) {
        if let Some(sp) = self.open.get_mut(&id) {
            sp.label = label.into();
        }
    }

    /// Associate a wire-level correlation key (e.g. `greq`) with a span.
    pub fn correlate(&mut self, key: u64, id: SpanId) {
        if id != 0 {
            self.corr.insert(key, id);
        }
    }

    /// Drop a correlation (op finished or re-keyed on retry).
    pub fn decorrelate(&mut self, key: u64) -> Option<SpanId> {
        self.corr.remove(&key)
    }

    /// Correlation keys that still point at an open span on `track`. A
    /// component with nothing in flight should hold none (leak check).
    pub fn correlated_on(&self, track: &str) -> usize {
        let open_on_track = |id| self.open.get(id).is_some_and(|sp| sp.track == track);
        self.corr.values().filter(|id| open_on_track(id)).count()
    }

    /// Mark a phase on the span correlated with `key`.
    pub fn mark_corr(&mut self, key: u64, name: &'static str, at: Time) {
        if let Some(id) = self.corr.get(&key).copied() {
            self.mark(id, name, at);
        }
    }

    /// Like [`SpanBook::mark_corr`] but records only the first occurrence
    /// of `name` (fan-out ops validate once per target).
    pub fn mark_corr_once(&mut self, key: u64, name: &'static str, at: Time) {
        if let Some(id) = self.corr.get(&key).copied() {
            if let Some(sp) = self.open.get_mut(&id) {
                if !sp.has_mark(name) {
                    sp.marks.push((name, Self::monotonic(sp, at)));
                }
            }
        }
    }

    /// Close a span: append the terminal mark and move it to the completed
    /// ring. Returns the closed span (None for unknown/invalid ids).
    pub fn end(&mut self, id: SpanId, at: Time, ok: bool) -> Option<&OpSpan> {
        let mut sp = self.open.remove(&id)?;
        // Same monotonic clamp as `mark`: a future-stamped phase (DMA
        // ready-time) may sit past the completion time.
        let at = Self::monotonic(&sp, at);
        sp.end = at;
        sp.ok = ok;
        sp.marks.push((
            if ok {
                phase::COMPLETED
            } else {
                phase::REJECTED
            },
            at,
        ));
        if self.done.len() == self.cap {
            self.done.pop_front();
            self.dropped += 1;
        }
        self.done.push_back(sp);
        self.done.back()
    }

    /// Open spans (should be 0 at quiesce — asserted by lifecycle tests).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Completed spans, oldest first.
    pub fn done(&self) -> impl Iterator<Item = &OpSpan> {
        self.done.iter()
    }

    pub fn done_count(&self) -> usize {
        self.done.len()
    }

    /// Drain every completed span out of the ring, oldest first.
    ///
    /// Long-horizon harnesses call this at checkpoints so the ring never
    /// reaches `cap` and the `dropped == 0` invariant holds at arbitrary
    /// horizon. Metrics are folded at `end()` time, so draining loses no
    /// histogram data; only on-demand exporters (e.g. Chrome trace) see a
    /// window instead of the full history. Does not touch `dropped`.
    pub fn drain_closed(&mut self) -> Vec<OpSpan> {
        self.done.drain(..).collect()
    }

    /// Completed spans evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_telescope_to_e2e() {
        let mut b = SpanBook::new(16);
        let id = b.begin(OpKind::Write, "client-0", "write f1", Time(1_000));
        b.mark(id, phase::RESOLVED, Time(1_500));
        b.mark(id, phase::FANNED_OUT, Time(2_000));
        b.mark(id, phase::NIC_VALIDATED, Time(4_000));
        b.end(id, Time(9_000), true);
        let sp = b.done().next().expect("closed span");
        assert_eq!(sp.e2e(), Dur(8_000));
        let phases = sp.phase_durations();
        assert_eq!(phases.len(), 4);
        let total: u64 = phases.iter().map(|&(_, d)| d.0).sum();
        assert_eq!(total, sp.e2e().0);
        assert_eq!(phases[0], (phase::RESOLVED, Dur(500)));
        assert_eq!(phases[3], (phase::COMPLETED, Dur(5_000)));
        assert_eq!(b.open_count(), 0);
    }

    #[test]
    fn correlation_marks_open_span_only() {
        let mut b = SpanBook::new(16);
        let id = b.begin(OpKind::Read, "client-1", "read f2", Time(0));
        b.correlate(77, id);
        b.mark_corr(77, phase::NIC_VALIDATED, Time(10));
        b.mark_corr_once(77, phase::CPU_VALIDATED, Time(20));
        b.mark_corr_once(77, phase::CPU_VALIDATED, Time(30));
        b.end(id, Time(40), true);
        // Late mark after close: ignored, no panic.
        b.mark_corr(77, phase::NIC_VALIDATED, Time(50));
        let sp = b.done().next().expect("span");
        assert_eq!(sp.marks.len(), 3); // nic + one cpu + completed
        assert_eq!(sp.mark_time(phase::CPU_VALIDATED), Some(Time(20)));
    }

    #[test]
    fn disabled_book_is_inert() {
        let mut b = SpanBook::disabled();
        let id = b.begin(OpKind::Meta, "client-0", "stat", Time(0));
        assert_eq!(id, 0);
        b.mark(id, phase::RESOLVED, Time(5));
        assert!(b.end(id, Time(10), true).is_none());
        assert_eq!(b.open_count(), 0);
        assert_eq!(b.done_count(), 0);
    }

    #[test]
    fn done_ring_is_bounded() {
        let mut b = SpanBook::new(2);
        for i in 0..5 {
            let id = b.begin(OpKind::Write, "c", format!("w{i}"), Time(i));
            b.end(id, Time(i + 1), true);
        }
        assert_eq!(b.done_count(), 2);
        assert_eq!(b.dropped(), 3);
        assert_eq!(b.done().next().expect("span").label, "w3");
    }

    #[test]
    fn periodic_drain_prevents_drops() {
        let mut b = SpanBook::new(4);
        let mut drained = Vec::new();
        for i in 0..64 {
            let id = b.begin(OpKind::Write, "c", format!("w{i}"), Time(i));
            b.end(id, Time(i + 1), true);
            if i % 3 == 2 {
                drained.extend(b.drain_closed());
            }
        }
        drained.extend(b.drain_closed());
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.done_count(), 0);
        assert_eq!(drained.len(), 64);
        assert_eq!(drained[0].label, "w0");
        assert_eq!(drained[63].label, "w63");
    }

    #[test]
    fn rejected_span_gets_rejected_mark() {
        let mut b = SpanBook::new(4);
        let id = b.begin(OpKind::Repair, "client-0", "repair", Time(0));
        b.end(id, Time(7), false);
        let sp = b.done().next().expect("span");
        assert!(!sp.ok);
        assert!(sp.has_mark(phase::REJECTED));
        assert!(!sp.has_mark(phase::COMPLETED));
    }
}
