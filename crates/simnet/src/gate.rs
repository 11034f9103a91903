//! Credit gates: bounded-capacity admission control shared between a
//! producer and a consumer component.
//!
//! A [`Gate`] models a finite buffer. Producers call [`Gate::try_take`]
//! before injecting work; when it fails they register themselves as waiters
//! and retry when woken. Consumers call [`Gate::release`] as they drain,
//! which wakes every registered waiter ([`Component::wake`](crate::Component::wake)).
//!
//! This is the mechanism behind all lossless-network backpressure in the
//! simulator (PFC-like pause, PsPIN packet-buffer admission, NIC egress
//! queues): senders never drop, they stall.

use std::cell::RefCell;
use std::rc::Rc;

use crate::engine::{ComponentId, Ctx};

#[derive(Debug)]
pub struct Gate {
    credits: usize,
    capacity: usize,
    waiters: Vec<(ComponentId, u64)>,
    /// Diagnostics: how many times a take failed (stall events).
    pub(crate) stalls: u64,
}

/// Shared handle to a gate. The simulator is single-threaded; `Rc<RefCell>`
/// keeps sharing explicit and cheap.
pub type SharedGate = Rc<RefCell<Gate>>;

impl Gate {
    pub(crate) fn new(capacity: usize) -> SharedGate {
        Rc::new(RefCell::new(Gate {
            credits: capacity,
            capacity,
            waiters: Vec::new(),
            stalls: 0,
        }))
    }

    /// Take one credit. Returns false (and counts a stall) if exhausted.
    pub fn try_take(&mut self) -> bool {
        if self.credits > 0 {
            self.credits -= 1;
            true
        } else {
            self.stalls += 1;
            false
        }
    }

    /// Number of credits currently available.
    pub fn available(&self) -> usize {
        self.credits
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Register to be woken when a credit is released. The wake carries
    /// `token`, so one component can wait on several gates and tell the
    /// wake-ups apart.
    pub fn register_waiter(&mut self, who: ComponentId, token: u64) {
        if !self.waiters.iter().any(|&(c, t)| c == who && t == token) {
            self.waiters.push((who, token));
        }
    }

    /// Return one credit and wake all waiters.
    ///
    /// Waking everyone is a deliberate simplification: waiters re-attempt
    /// `try_take` and re-register on failure, so fairness is FIFO-by-event
    /// order, which is deterministic.
    pub fn release(&mut self, ctx: &mut Ctx<'_>) {
        assert!(
            self.credits < self.capacity,
            "gate over-released: credits {} capacity {}",
            self.credits,
            self.capacity
        );
        self.credits += 1;
        for (who, token) in self.waiters.drain(..) {
            ctx.wake(who, token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Component, Engine};
    use crate::time::Dur;
    use std::any::Any;

    /// A consumer that releases one credit per `Drain` event it receives.
    struct Drainer {
        gate: SharedGate,
    }
    struct Drain;
    impl Component for Drainer {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            if ev.downcast::<Drain>().is_ok() {
                self.gate.borrow_mut().release(ctx);
            }
        }
    }

    /// A producer that takes credits as fast as it can, logging takes.
    struct Producer {
        gate: SharedGate,
        taken: Rc<RefCell<Vec<u64>>>,
        want: usize,
    }
    struct Go;
    impl Producer {
        fn take_all(&mut self, ctx: &mut Ctx<'_>) {
            while self.want > 0 {
                let ok = self.gate.borrow_mut().try_take();
                if ok {
                    self.want -= 1;
                    self.taken.borrow_mut().push(ctx.now().ps());
                } else {
                    self.gate.borrow_mut().register_waiter(ctx.self_id, 0);
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
            self.take_all(ctx);
        }
    }

    #[test]
    fn take_until_empty_then_wake_on_release() {
        let mut e = Engine::new();
        let gate = Gate::new(2);
        let taken = Rc::new(RefCell::new(vec![]));
        let p = e.add_component(Box::new(Producer {
            gate: gate.clone(),
            taken: taken.clone(),
            want: 4,
        }));
        let d = e.add_component(Box::new(Drainer { gate: gate.clone() }));
        e.schedule(Dur::ZERO, p, Box::new(Go));
        e.schedule(Dur::from_ns(100), d, Box::new(Drain));
        e.schedule(Dur::from_ns(200), d, Box::new(Drain));
        e.run_to_completion();
        let t = taken.borrow();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], 0);
        assert_eq!(t[1], 0);
        assert_eq!(t[2], 100_000);
        assert_eq!(t[3], 200_000);
        // Stalled once initially and once after the first wake (only one
        // credit was available then, but two takes were attempted).
        assert_eq!(gate.borrow().stalls, 2);
        assert_eq!(gate.borrow().available(), 0);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_panics() {
        let mut e = Engine::new();
        let gate = Gate::new(1);
        let d = e.add_component(Box::new(Drainer { gate: gate.clone() }));
        e.schedule(Dur::ZERO, d, Box::new(Drain));
        e.run_to_completion();
    }

    #[test]
    fn occupancy_accounting() {
        let gate = Gate::new(3);
        assert!(gate.borrow_mut().try_take());
        assert!(gate.borrow_mut().try_take());
        assert_eq!(gate.borrow().available(), 1);
        assert_eq!(gate.borrow().capacity(), 3);
    }
}
