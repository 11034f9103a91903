//! Credit gates: bounded-capacity admission control shared between a
//! producer and a consumer component.
//!
//! A [`Gate`] models a finite buffer. Producers call [`Gate::try_take`]
//! before injecting work; when it fails they register themselves as waiters
//! and retry when woken. Consumers call [`Gate::release`] as they drain,
//! which wakes every registered waiter ([`Component::wake`](crate::Component::wake)).
//!
//! A consumer that knows, when it admits work, the instant the credit
//! will come back returns it right away with [`Gate::release_at`], timed
//! for that instant: a timed credit. A take at or after that instant
//! counts it; a waiter, whether it registered before the timed release or
//! while the credit is pending, is woken once, at the instant the earliest
//! credit comes back. The consumer spends no event on the release; the
//! producer needs to learn of the credit only when it has run dry.
//!
//! This is the mechanism behind all lossless-network backpressure in the
//! simulator (PFC-like pause, PsPIN packet-buffer admission, NIC egress
//! queues): senders never drop, they stall.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::{ComponentId, Ctx};
use crate::time::Time;

#[derive(Debug)]
pub struct Gate {
    credits: usize,
    capacity: usize,
    /// Timed credits not yet back, by the instant each comes back.
    pending: Vec<Time>,
    waiters: Vec<Waiter>,
    /// Wakes scheduled for a timed credit and not yet due: a waiter that
    /// registers again before one is due needs no other.
    scheduled: Vec<(ComponentId, u64, Time)>,
    /// Diagnostics: how many times a take failed (stall events).
    pub(crate) stalls: u64,
}

#[derive(Debug)]
struct Waiter {
    who: ComponentId,
    token: u64,
    /// The instant its wake is due, once one is scheduled. A waiter whose
    /// wake is due by now has been woken, or is being woken this instant.
    due: Option<Time>,
}

/// Shared handle to a gate. The simulator is single-threaded; `Rc<RefCell>`
/// keeps sharing explicit and cheap.
pub type SharedGate = Rc<RefCell<Gate>>;

impl Gate {
    pub(crate) fn new(capacity: usize) -> SharedGate {
        Rc::new(RefCell::new(Gate {
            credits: capacity,
            capacity,
            pending: Vec::new(),
            waiters: Vec::new(),
            scheduled: Vec::new(),
            stalls: 0,
        }))
    }

    /// Count the timed credits that are back by `now`.
    fn settle(&mut self, now: Time) {
        let before = self.pending.len();
        self.pending.retain(|&t| t > now);
        self.credits += before - self.pending.len();
    }

    /// Take one credit at `now`. Returns false (and counts a stall) if
    /// exhausted.
    pub fn try_take(&mut self, now: Time) -> bool {
        self.settle(now);
        if self.credits > 0 {
            self.credits -= 1;
            true
        } else {
            self.stalls += 1;
            false
        }
    }

    /// Number of credits available at `now`.
    pub fn available(&self, now: Time) -> usize {
        self.credits + self.pending.iter().filter(|&&t| t <= now).count()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Register to be woken when a credit comes back. The wake carries
    /// `token`, so one component can wait on several gates and tell the
    /// wake-ups apart. While a timed credit is pending the wake is
    /// scheduled at once, for the instant the earliest one comes back,
    /// unless a wake this gate scheduled for the waiter earlier is due by
    /// then; registering again before the wake changes nothing.
    pub fn register_waiter(&mut self, ctx: &mut Ctx<'_>, who: ComponentId, token: u64) {
        let now = ctx.now();
        self.waiters.retain(|w| w.due.is_none_or(|t| t > now));
        self.scheduled.retain(|&(.., t)| t > now);
        if self
            .waiters
            .iter()
            .any(|w| w.who == who && w.token == token)
        {
            return;
        }
        self.settle(now);
        let due = self.pending.iter().min().map(|&first| {
            let earlier = (self.scheduled.iter())
                .filter(|&&(c, k, t)| (c, k) == (who, token) && t <= first)
                .map(|&(.., t)| t)
                .min();
            earlier.unwrap_or_else(|| {
                ctx.wake_at(first, who, token);
                self.scheduled.push((who, token, first));
                first
            })
        });
        self.waiters.push(Waiter { who, token, due });
    }

    /// Return one credit now and wake all waiters.
    ///
    /// Waking everyone is a deliberate simplification: waiters re-attempt
    /// `try_take` and re-register on failure, so fairness is FIFO-by-event
    /// order, which is deterministic.
    pub fn release(&mut self, ctx: &mut Ctx<'_>) {
        self.release_at(ctx, ctx.now());
    }

    /// Return one credit at `at` (now, if that has passed): a take from
    /// then on counts it. Every waiter whose wake is not already due by
    /// `at` is woken at `at`.
    pub fn release_at(&mut self, ctx: &mut Ctx<'_>, at: Time) {
        assert!(
            self.credits + self.pending.len() < self.capacity,
            "gate over-released: credits {} pending {} capacity {}",
            self.credits,
            self.pending.len(),
            self.capacity
        );
        let now = ctx.now();
        let at = at.max(now);
        if at == now {
            self.credits += 1;
        } else {
            self.pending.push(at);
        }
        let scheduled = &mut self.scheduled;
        self.waiters.retain_mut(|w| {
            if w.due.is_none_or(|t| t > at) {
                ctx.wake_at(at, w.who, w.token);
                w.due = Some(at);
                if at > now {
                    scheduled.push((w.who, w.token, at));
                }
            }
            w.due.is_some_and(|t| t > now)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Component, Engine};
    use crate::time::Dur;
    use std::any::Any;

    /// A consumer that returns one credit per `Drain` event it receives:
    /// now, or after the delay the event carries.
    struct Drainer {
        gate: SharedGate,
    }
    struct Drain(Option<Dur>);
    impl Component for Drainer {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let Ok(d) = ev.downcast::<Drain>() else {
                panic!("drainer: unknown event");
            };
            let mut gate = self.gate.borrow_mut();
            match d.0 {
                None => gate.release(ctx),
                Some(after) => gate.release_at(ctx, ctx.now() + after),
            }
        }
    }

    /// A producer that takes credits as fast as it can, logging the
    /// instants of its takes and of its wakes.
    struct Producer {
        gate: SharedGate,
        taken: Rc<RefCell<Vec<u64>>>,
        woken: Rc<RefCell<Vec<u64>>>,
        want: usize,
    }
    struct Go;
    impl Producer {
        fn take_all(&mut self, ctx: &mut Ctx<'_>) {
            while self.want > 0 {
                let ok = self.gate.borrow_mut().try_take(ctx.now());
                if ok {
                    self.want -= 1;
                    self.taken.borrow_mut().push(ctx.now().ps());
                } else {
                    self.gate.borrow_mut().register_waiter(ctx, ctx.self_id, 0);
                    break;
                }
            }
        }
    }
    impl Component for Producer {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            assert!(ev.downcast::<Go>().is_ok(), "producer: unknown event");
            self.take_all(ctx);
        }
        fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 0, "registered with token 0");
            self.woken.borrow_mut().push(ctx.now().ps());
            self.take_all(ctx);
        }
    }

    /// A gate of `capacity`, a producer that wants `want` credits and a
    /// drainer, all on one engine.
    struct Rig {
        e: Engine,
        gate: SharedGate,
        producer: ComponentId,
        drainer: ComponentId,
        taken: Rc<RefCell<Vec<u64>>>,
        woken: Rc<RefCell<Vec<u64>>>,
    }

    fn rig(capacity: usize, want: usize) -> Rig {
        let mut e = Engine::new();
        let gate = Gate::new(capacity);
        let (taken, woken) = (Rc::default(), Rc::default());
        let producer = e.add_component(Box::new(Producer {
            gate: gate.clone(),
            taken: Rc::clone(&taken),
            woken: Rc::clone(&woken),
            want,
        }));
        let drainer = e.add_component(Box::new(Drainer { gate: gate.clone() }));
        Rig {
            e,
            gate,
            producer,
            drainer,
            taken,
            woken,
        }
    }

    impl Rig {
        fn go(&mut self, at_ns: u64) {
            self.e
                .schedule(Dur::from_ns(at_ns), self.producer, Box::new(Go));
        }
        /// At `at_ns`, return a credit now (`None`) or `after_ns` later.
        fn drain(&mut self, at_ns: u64, after_ns: Option<u64>) {
            let ev = Drain(after_ns.map(Dur::from_ns));
            self.e
                .schedule(Dur::from_ns(at_ns), self.drainer, Box::new(ev));
        }
    }

    const NS: u64 = 1_000;

    #[test]
    fn take_until_empty_then_wake_on_release() {
        let mut r = rig(2, 4);
        r.go(0);
        r.drain(100, None);
        r.drain(200, None);
        r.e.run_to_completion();
        assert_eq!(*r.taken.borrow(), [0, 0, 100 * NS, 200 * NS]);
        // Stalled once initially and once after the first wake (only one
        // credit was available then, but two takes were attempted).
        assert_eq!(r.gate.borrow().stalls, 2);
        assert_eq!(r.gate.borrow().available(r.e.now()), 0);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_panics() {
        let mut r = rig(1, 0);
        r.drain(0, None);
        r.e.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_counts_pending_credits() {
        // One credit out: the timed return makes the gate whole, so a
        // second return, due earlier, is one too many.
        let mut r = rig(1, 1);
        r.go(0);
        r.drain(10, Some(100));
        r.drain(20, Some(10));
        r.e.run_to_completion();
    }

    #[test]
    fn occupancy_accounting() {
        let gate = Gate::new(3);
        assert!(gate.borrow_mut().try_take(Time::ZERO));
        assert!(gate.borrow_mut().try_take(Time::ZERO));
        assert_eq!(gate.borrow().available(Time::ZERO), 1);
        assert_eq!(gate.borrow().capacity(), 3);
    }

    #[test]
    fn timed_credit_counts_from_its_instant() {
        // The credit returned at 10 ns comes back at 110 ns: gone from
        // the books before then, there from then on.
        let mut r = rig(1, 1);
        r.go(0);
        r.drain(10, Some(100));
        r.e.run_to_completion();
        let mut gate = r.gate.borrow_mut();
        assert_eq!(gate.available(Time(110 * NS - 1)), 0);
        assert_eq!(gate.available(Time(110 * NS)), 1);
        assert!(!gate.try_take(Time(110 * NS - 1)));
        assert!(gate.try_take(Time(110 * NS)));
    }

    #[test]
    fn waiter_is_woken_once_at_the_credits_instant() {
        // Registered at 0, before the timed return at 10 ns: woken at
        // 110 ns, not at 10, and only then.
        let mut r = rig(1, 2);
        r.go(0);
        r.drain(10, Some(100));
        r.e.run_to_completion();
        assert_eq!(*r.woken.borrow(), [110 * NS]);
        assert_eq!(*r.taken.borrow(), [0, 110 * NS]);

        // Registering at 20, 30 and 40 ns, while the credit is pending:
        // one wake, at 110 ns.
        let mut r = rig(1, 2);
        r.go(0);
        r.drain(10, Some(100));
        for at in [20, 30, 40] {
            r.go(at);
        }
        r.e.run_to_completion();
        assert_eq!(*r.woken.borrow(), [110 * NS]);
        assert_eq!(*r.taken.borrow(), [0, 110 * NS]);
    }

    #[test]
    fn waiter_is_woken_by_the_earliest_credit() {
        // Two timed returns, the later one released first: the waiter
        // wakes for the earlier, then registers again and wakes for the
        // later.
        let mut r = rig(2, 4);
        r.go(0);
        r.drain(10, Some(300));
        r.drain(20, Some(100));
        r.e.run_to_completion();
        assert_eq!(*r.taken.borrow(), [0, 0, 120 * NS, 310 * NS]);
        assert_eq!(*r.woken.borrow(), [120 * NS, 310 * NS]);
    }

    #[test]
    fn immediate_and_timed_credits_mix() {
        // A timed return due at 210 ns, then an immediate one at 50 ns:
        // the waiter takes at 50 ns, waits again, and takes the timed
        // credit at 210 ns.
        let mut r = rig(2, 4);
        r.go(0);
        r.drain(10, Some(200));
        r.drain(50, None);
        r.e.run_to_completion();
        assert_eq!(*r.taken.borrow(), [0, 0, 50 * NS, 210 * NS]);
        assert_eq!(*r.woken.borrow(), [50 * NS, 210 * NS]);
        assert_eq!(r.gate.borrow().available(r.e.now()), 0);
    }
}
