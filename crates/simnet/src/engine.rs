//! The discrete-event engine: a time-ordered event queue dispatching boxed
//! events and wakes to registered [`Component`]s.
//!
//! Determinism: events are ordered by `(time, sequence)` where the sequence
//! number is assigned at scheduling time, so same-timestamp events run in
//! FIFO order and every run with the same inputs is bit-identical.

use std::any::Any;

use crate::hash::fold;
use crate::queue::{Event, EventQueue, Scheduled};
use crate::time::{Dur, Time};

/// Index of a component registered with the [`Engine`].
pub type ComponentId = usize;

/// A simulated hardware or software entity that reacts to events.
pub trait Component {
    /// Handle one event addressed to this component.
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>);
    /// Handle a wake with the `token` it was scheduled with: a credit came
    /// back to a [`Gate`](crate::Gate) this component waits on, or work it
    /// deferred with [`Ctx::wake_at`] is due. A component that registers
    /// on a gate or defers work must implement this.
    fn wake(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
        panic!(
            "{} was woken (token {token}) but does not implement `wake`",
            self.name()
        );
    }
    /// Human-readable name used in traces and panics.
    fn name(&self) -> String {
        "component".to_owned()
    }
}

/// The part of the engine visible to components while they handle an event.
pub struct Ctx<'a> {
    sched: &'a mut Sched,
    /// The component currently executing.
    pub self_id: ComponentId,
}

impl Ctx<'_> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.sched.now
    }

    /// Schedule `ev` for `target` after `delay` (a packet's next hop).
    pub fn schedule(&mut self, delay: Dur, target: ComponentId, ev: Box<dyn Any>) {
        self.sched
            .push(self.sched.now + delay, target, Event::Boxed(ev));
    }

    /// Wake `target` with `token` at `at`, or now if that has passed
    /// ([`Component::wake`]). A wake is an event like any other, ordered
    /// by `(time, seq)`, but it needs no box: it is how a gate wakes its
    /// waiters, and how a component defers its own work, which stays with
    /// the component, in a slot `token` names.
    pub fn wake_at(&mut self, at: Time, target: ComponentId, token: u64) {
        let at = at.max(self.sched.now);
        self.sched.push(at, target, Event::Wake(token));
    }
}

struct Sched {
    now: Time,
    seq: u64,
    dispatched: u64,
    /// Of `dispatched`, the wakes ([`Component::wake`]).
    wakes: u64,
    /// Rolling digest of every dispatched `(time, target, seq)`.
    order_digest: u64,
    queue: EventQueue,
}

impl Sched {
    fn push(&mut self, at: Time, target: ComponentId, ev: Event) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        let seq = self.seq;
        self.seq += 1;
        let s = Scheduled {
            at,
            seq,
            target,
            ev,
        };
        self.queue.push(self.now, s);
    }
}

/// Fold one dispatched event into the dispatch-order digest.
#[inline]
fn fold_order(digest: u64, at: Time, target: ComponentId, seq: u64) -> u64 {
    [at.0, target as u64, seq].into_iter().fold(digest, fold)
}

/// Per-component dispatch profile (see [`Engine::enable_profiling`]).
///
/// `busy_host_ns` is *host* wall-clock time spent inside `handle` — sim
/// time never advances during a handler, so host time is the only
/// meaningful measure of dispatch overhead (it is the measured baseline
/// for the per-packet `Box<dyn Any>` boxing cost). Profiling never
/// affects simulated behavior; results vary with host load like any
/// wall-clock measurement.
#[derive(Clone, Debug, Default)]
pub struct ComponentProfile {
    pub name: String,
    pub dispatches: u64,
    pub busy_host_ns: u64,
}

/// The simulation engine: owns all components and the event queue.
pub struct Engine {
    sched: Sched,
    components: Vec<Option<Box<dyn Component>>>,
    profiling: bool,
    profiles: Vec<ComponentProfile>,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    pub fn new() -> Engine {
        Engine {
            sched: Sched {
                now: Time::ZERO,
                seq: 0,
                dispatched: 0,
                wakes: 0,
                order_digest: 0,
                queue: EventQueue::new(),
            },
            components: Vec::new(),
            profiling: false,
            profiles: Vec::new(),
        }
    }

    /// Turn on per-component dispatch profiling (off by default: it adds
    /// two host-clock reads per event, which perturbs wall-clock benches).
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// Profiles aggregated by component *kind* — the name with any
    /// trailing `-<digits>` instance suffix stripped, so `nic-0..nic-7`
    /// fold into one `nic` row. Sorted by kind.
    pub fn profiles_by_kind(&self) -> Vec<ComponentProfile> {
        let mut by_kind: std::collections::BTreeMap<String, ComponentProfile> =
            std::collections::BTreeMap::new();
        for p in &self.profiles {
            if p.dispatches == 0 {
                continue;
            }
            let kind = match p.name.rfind('-') {
                Some(i) if p.name[i + 1..].chars().all(|c| c.is_ascii_digit()) => &p.name[..i],
                _ => p.name.as_str(),
            };
            let e = by_kind.entry(kind.to_owned()).or_default();
            e.name = kind.to_owned();
            e.dispatches += p.dispatches;
            e.busy_host_ns += p.busy_host_ns;
        }
        by_kind.into_values().collect()
    }

    /// Register a component; its id is stable for the life of the engine.
    pub fn add_component(&mut self, c: Box<dyn Component>) -> ComponentId {
        self.components.push(Some(c));
        self.components.len() - 1
    }

    /// Reserve an id before the component exists (for wiring cycles).
    /// Must be filled with [`Engine::install`] before any event reaches it.
    pub fn reserve_id(&mut self) -> ComponentId {
        self.components.push(None);
        self.components.len() - 1
    }

    /// Install a component into a reserved slot.
    pub fn install(&mut self, id: ComponentId, c: Box<dyn Component>) {
        assert!(self.components[id].is_none(), "slot {id} already installed");
        self.components[id] = Some(c);
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.sched.now
    }

    /// Total events dispatched.
    pub fn events_dispatched(&self) -> u64 {
        self.sched.dispatched
    }

    /// Of [`Self::events_dispatched`], the wakes: the rest were boxed.
    pub fn wakes_dispatched(&self) -> u64 {
        self.sched.wakes
    }

    /// Rolling 64-bit digest of the dispatch order so far: every event's
    /// `(time, target, seq)` folded in as it is dispatched. Two runs of
    /// one seeded scenario must agree on it bit for bit — determinism as
    /// an assertion rather than an assumption.
    pub fn order_digest(&self) -> u64 {
        self.sched.order_digest
    }

    /// Schedule an event from outside any component (e.g. test or driver).
    pub fn schedule(&mut self, delay: Dur, target: ComponentId, ev: Box<dyn Any>) {
        self.sched
            .push(self.sched.now + delay, target, Event::Boxed(ev));
    }

    /// Wake `target` with `token` after `delay`, from outside any
    /// component (a test or harness starting one).
    pub fn wake(&mut self, delay: Dur, target: ComponentId, token: u64) {
        self.sched
            .push(self.sched.now + delay, target, Event::Wake(token));
    }

    /// Dispatch a single event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(s) = self.sched.queue.pop(self.sched.now) else {
            return false;
        };
        debug_assert!(s.at >= self.sched.now, "time went backwards");
        self.sched.now = s.at;
        self.sched.dispatched += 1;
        self.sched.order_digest = fold_order(self.sched.order_digest, s.at, s.target, s.seq);
        let comp = self.components[s.target]
            .as_deref_mut()
            .unwrap_or_else(|| panic!("event for missing component {}", s.target));
        let t0 = self.profiling.then(std::time::Instant::now);
        {
            let mut ctx = Ctx {
                sched: &mut self.sched,
                self_id: s.target,
            };
            match s.ev {
                Event::Boxed(ev) => comp.handle(&mut ctx, ev),
                Event::Wake(token) => {
                    ctx.sched.wakes += 1;
                    comp.wake(&mut ctx, token)
                }
            }
        }
        if let Some(t0) = t0 {
            if self.profiles.len() <= s.target {
                self.profiles
                    .resize(s.target + 1, ComponentProfile::default());
            }
            let p = &mut self.profiles[s.target];
            if p.name.is_empty() {
                p.name = comp.name();
            }
            p.dispatches += 1;
            p.busy_host_ns += t0.elapsed().as_nanos() as u64;
        }
        true
    }

    /// Run until the event queue drains.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run until the queue drains or simulated time exceeds `deadline`.
    /// Returns true if the queue drained; otherwise the clock is left at
    /// `deadline` (it never moves backwards).
    pub fn run_until(&mut self, deadline: Time) -> bool {
        loop {
            let Some(next) = self.sched.queue.next_time(self.sched.now) else {
                return true;
            };
            if next > deadline {
                self.sched.now = self.sched.now.max(deadline);
                return false;
            }
            self.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    struct Tick(u32);
    struct Probe {
        log: Rc<RefCell<Vec<(u64, u32)>>>,
        echo_to: Option<ComponentId>,
    }
    impl Component for Probe {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let t = ev.downcast::<Tick>().expect("unexpected event type");
            self.log.borrow_mut().push((ctx.now().ps(), t.0));
            if let Some(peer) = self.echo_to {
                if t.0 < 3 {
                    ctx.schedule(Dur::from_ns(10), peer, Box::new(Tick(t.0 + 1)));
                }
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let a = e.add_component(Box::new(Probe {
            log: log.clone(),
            echo_to: None,
        }));
        e.schedule(Dur::from_ns(30), a, Box::new(Tick(3)));
        e.schedule(Dur::from_ns(10), a, Box::new(Tick(1)));
        e.schedule(Dur::from_ns(20), a, Box::new(Tick(2)));
        e.run_to_completion();
        assert_eq!(*log.borrow(), vec![(10_000, 1), (20_000, 2), (30_000, 3)]);
    }

    #[test]
    fn same_time_events_are_fifo() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let a = e.add_component(Box::new(Probe {
            log: log.clone(),
            echo_to: None,
        }));
        for i in 0..100 {
            e.schedule(Dur::from_ns(5), a, Box::new(Tick(i)));
        }
        e.run_to_completion();
        let order: Vec<u32> = log.borrow().iter().map(|&(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ping_pong_between_components() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let a = e.reserve_id();
        let b = e.add_component(Box::new(Probe {
            log: log.clone(),
            echo_to: Some(a),
        }));
        e.install(
            a,
            Box::new(Probe {
                log: log.clone(),
                echo_to: Some(b),
            }),
        );
        e.schedule(Dur::ZERO, a, Box::new(Tick(0)));
        e.run_to_completion();
        assert_eq!(log.borrow().len(), 4);
        assert_eq!(e.now().ps(), 30_000);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let a = e.add_component(Box::new(Probe {
            log: log.clone(),
            echo_to: None,
        }));
        e.schedule(Dur::from_us(1), a, Box::new(Tick(1)));
        e.schedule(Dur::from_us(3), a, Box::new(Tick(2)));
        let drained = e.run_until(Time(2_000_000));
        assert!(!drained);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(e.now(), Time(2_000_000));
        assert!(e.run_until(Time(u64::MAX)));
        assert_eq!(log.borrow().len(), 2);
    }

    #[test]
    fn profiling_counts_dispatches_and_aggregates_by_kind() {
        let mut e = Engine::new();
        assert!(!e.profiling);
        e.enable_profiling();
        let log = Rc::new(RefCell::new(vec![]));
        struct Named(Probe, &'static str);
        impl Component for Named {
            fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
                self.0.handle(ctx, ev);
            }
            fn name(&self) -> String {
                self.1.to_owned()
            }
        }
        let a = e.add_component(Box::new(Named(
            Probe {
                log: log.clone(),
                echo_to: None,
            },
            "nic-0",
        )));
        let b = e.add_component(Box::new(Named(
            Probe {
                log: log.clone(),
                echo_to: None,
            },
            "nic-1",
        )));
        for i in 0..3 {
            e.schedule(Dur::from_ns(i), a, Box::new(Tick(i as u32)));
        }
        e.schedule(Dur::from_ns(9), b, Box::new(Tick(9)));
        e.run_to_completion();
        assert_eq!(e.profiles[a].dispatches, 3);
        assert_eq!(e.profiles[a].name, "nic-0");
        assert_eq!(e.profiles[b].dispatches, 1);
        let kinds = e.profiles_by_kind();
        assert_eq!(kinds.len(), 1);
        assert_eq!(kinds[0].name, "nic");
        assert_eq!(kinds[0].dispatches, 4);
    }

    /// Logs boxed ticks and wakes; each tick below 2 wakes itself, then
    /// schedules the next tick, both for now.
    struct Waking {
        log: Rc<RefCell<Vec<(&'static str, u64)>>>,
    }
    impl Component for Waking {
        fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
            let t = ev.downcast::<Tick>().expect("a tick").0;
            self.log.borrow_mut().push(("tick", t.into()));
            if t < 2 {
                ctx.wake_at(ctx.now(), ctx.self_id, t.into());
                ctx.schedule(Dur::ZERO, ctx.self_id, Box::new(Tick(t + 1)));
            }
        }
        fn wake(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
            self.log.borrow_mut().push(("wake", token));
        }
    }

    #[test]
    fn wakes_reach_wake_in_fifo_order_with_boxed_events() {
        let mut e = Engine::new();
        let log = Rc::new(RefCell::new(vec![]));
        let a = e.add_component(Box::new(Waking { log: log.clone() }));
        e.schedule(Dur::from_ns(5), a, Box::new(Tick(0)));
        e.run_to_completion();
        let expect = [
            ("tick", 0),
            ("wake", 0),
            ("tick", 1),
            ("wake", 1),
            ("tick", 2),
        ];
        assert_eq!(*log.borrow(), expect);
        assert_eq!(e.events_dispatched(), 5, "a wake is one event");
        assert_eq!(e.wakes_dispatched(), 2);
        assert_eq!(e.now(), Time(5_000));
    }

    #[test]
    #[should_panic(expected = "component was woken (token 7) but does not implement `wake`")]
    fn waking_a_component_without_wake_panics() {
        struct Waker(ComponentId);
        impl Component for Waker {
            fn handle(&mut self, ctx: &mut Ctx<'_>, _ev: Box<dyn Any>) {
                ctx.wake_at(ctx.now(), self.0, 7);
            }
        }
        let mut e = Engine::new();
        let probe = e.add_component(Box::new(Probe {
            log: Rc::new(RefCell::new(vec![])),
            echo_to: None,
        }));
        let waker = e.add_component(Box::new(Waker(probe)));
        e.schedule(Dur::ZERO, waker, Box::new(Tick(0)));
        e.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "missing component")]
    fn event_to_reserved_but_uninstalled_slot_panics() {
        let mut e = Engine::new();
        let a = e.reserve_id();
        e.schedule(Dur::ZERO, a, Box::new(Tick(0)));
        e.run_to_completion();
    }
}
