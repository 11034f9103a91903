//! Lightweight event tracing: a bounded ring of timestamped annotations
//! shared across components, for debugging simulations and for tests that
//! assert on event interleavings.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::packet::NodeId;
use crate::time::Time;

/// One trace record.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct TraceEntry {
    pub(crate) at: Time,
    /// Component or subsystem that emitted the record.
    pub(crate) who: &'static str,
    /// Node instance for per-node subsystems (`nic`, `storage`); exports
    /// render `who-node` as the track name.
    pub(crate) node: Option<NodeId>,
    pub(crate) what: String,
}

/// A bounded, shareable trace sink. Disabled traces cost one branch.
pub struct Trace {
    enabled: bool,
    cap: usize,
    entries: VecDeque<TraceEntry>,
}

pub type SharedTrace = Rc<RefCell<Trace>>;

impl Trace {
    /// An enabled trace retaining the most recent `cap` entries.
    pub fn new(cap: usize) -> SharedTrace {
        Rc::new(RefCell::new(Trace {
            enabled: true,
            cap: cap.max(1),
            entries: VecDeque::new(),
        }))
    }

    /// A disabled trace (records nothing, cheap to pass around).
    pub fn disabled() -> SharedTrace {
        Rc::new(RefCell::new(Trace {
            enabled: false,
            cap: 1,
            entries: VecDeque::new(),
        }))
    }

    /// Lazy emit: `what` is only built when the trace is enabled, so a
    /// disabled trace costs one branch and zero allocations at call sites.
    pub fn emit_with<F: FnOnce() -> String>(&mut self, at: Time, who: &'static str, what: F) {
        if !self.enabled {
            return;
        }
        self.push(at, who, None, what());
    }

    /// Lazy emit attributed to a specific node instance (renders on the
    /// `who-node` track in exports).
    pub fn emit_from<F: FnOnce() -> String>(
        &mut self,
        at: Time,
        who: &'static str,
        node: Option<NodeId>,
        what: F,
    ) {
        if !self.enabled {
            return;
        }
        self.push(at, who, node, what());
    }

    fn push(&mut self, at: Time, who: &'static str, node: Option<NodeId>, what: String) {
        if self.entries.len() == self.cap {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry {
            at,
            who,
            node,
            what,
        });
    }

    /// Entries oldest-first.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let t = Trace::new(10);
        t.borrow_mut()
            .emit_with(Time(100), "nic-0", || "tx pkt 1".to_owned());
        t.borrow_mut()
            .emit_with(Time(200), "fabric", || "deliver".to_owned());
        let tr = t.borrow();
        let v: Vec<_> = tr.entries().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].who, "nic-0");
        assert_eq!(v[1].at, Time(200));
    }

    #[test]
    fn ring_bound_drops_oldest() {
        let t = Trace::new(3);
        for i in 0..5 {
            t.borrow_mut().emit_with(Time(i), "x", || format!("e{i}"));
        }
        let tr = t.borrow();
        assert_eq!(tr.entries.len(), 3);
        assert_eq!(tr.entries().next().expect("entry").what, "e2");
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        t.borrow_mut()
            .emit_with(Time(1), "x", || "ignored".to_owned());
        assert!(t.borrow().entries.is_empty());
    }

    #[test]
    fn emit_with_is_lazy_when_disabled() {
        let t = Trace::disabled();
        let mut built = false;
        t.borrow_mut().emit_with(Time(1), "x", || {
            built = true;
            "never".to_owned()
        });
        assert!(!built, "closure must not run when trace is disabled");
        assert!(t.borrow().entries.is_empty());

        let t = Trace::new(4);
        t.borrow_mut()
            .emit_from(Time(2), "nic", Some(3), || "tx".to_owned());
        let tr = t.borrow();
        let e = tr.entries().next().expect("entry");
        assert_eq!(e.node, Some(3));
        assert_eq!(e.who, "nic");
    }
}
