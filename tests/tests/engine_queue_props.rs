//! The engine's tiered event queue against a reference
//! `BinaryHeap<(time, seq)>`: under random interleavings of `schedule`,
//! `schedule_at`, `Ctx::wake`, `step` and `run_until` — zero-delay
//! bursts, unboxed wakes among boxed events, equal
//! timestamps, delays straddling the calendar's slot and horizon
//! boundaries, timers a millisecond out, deadlines exactly on an event
//! time — both dispatch the same events in the same order at the same
//! times, and agree on `now()` after every operation.

use std::any::Any;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use nadfs_simnet::{Component, Ctx, Dur, Engine, Time};
use proptest::prelude::*;

/// A follow-up a handled event schedules: relative (`schedule`),
/// absolute (`schedule_at`, clamped to now), or a wake (`Ctx::wake`,
/// due now and unboxed).
#[derive(Clone, Copy, Debug, PartialEq)]
enum When {
    After(u64),
    At(u64),
    Wake,
}

#[derive(Clone, Debug)]
struct Ev {
    id: u32,
    spawn: Vec<(When, u32)>,
}

type Log = Rc<RefCell<Vec<(u64, u32)>>>;

struct Probe {
    log: Log,
}

impl Component for Probe {
    fn handle(&mut self, ctx: &mut Ctx<'_>, ev: Box<dyn Any>) {
        let ev = ev.downcast::<Ev>().expect("probe event");
        self.log.borrow_mut().push((ctx.now().ps(), ev.id));
        for &(when, id) in &ev.spawn {
            let child = || {
                Box::new(Ev {
                    id,
                    spawn: Vec::new(),
                })
            };
            match when {
                When::After(d) => ctx.schedule_self(Dur::from_ps(d), child()),
                When::At(t) => ctx.schedule_at(Time(t), ctx.self_id, child()),
                When::Wake => ctx.wake(ctx.self_id, id.into()),
            }
        }
    }

    fn wake(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let id = u32::try_from(token).expect("tokens are event ids");
        self.log.borrow_mut().push((ctx.now().ps(), id));
    }
}

/// The reference: one heap ordered by `(time, seq)`; entry payloads ride
/// in a side table keyed by `seq`.
#[derive(Default)]
struct Model {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: std::collections::HashMap<u64, Ev>,
    log: Vec<(u64, u32)>,
}

impl Model {
    fn push(&mut self, at: u64, id: u32, spawn: Vec<(When, u32)>) {
        self.heap.push(Reverse((at, self.seq)));
        self.events.insert(self.seq, Ev { id, spawn });
        self.seq += 1;
    }

    fn step(&mut self) -> bool {
        let Some(Reverse((at, seq))) = self.heap.pop() else {
            return false;
        };
        let ev = self.events.remove(&seq).expect("queued event");
        self.now = at;
        self.log.push((at, ev.id));
        for (when, child) in ev.spawn {
            let at = match when {
                When::After(d) => self.now + d,
                When::At(t) => t.max(self.now),
                When::Wake => self.now,
            };
            self.push(at, child, Vec::new());
        }
        true
    }

    fn next_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _))| *at)
    }

    fn run_until(&mut self, deadline: u64) -> bool {
        loop {
            let Some(next) = self.next_time() else {
                return true;
            };
            if next > deadline {
                self.now = self.now.max(deadline);
                return false;
            }
            self.step();
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Schedule from outside, with follow-ups to schedule when handled.
    Schedule(u64, Vec<When>),
    Step(u8),
    /// Deadline `now + dt`.
    RunFor(u64),
    /// Deadline exactly on the next event's time.
    RunToNext,
    /// A deadline already in the past.
    RunToPast(u64),
}

/// Delays that land in every tier and on the boundaries between them:
/// the calendar has 4096 ps slots and a 1024-slot horizon.
fn delay() -> impl Strategy<Value = u64> {
    (0u8..10, 0u64..5_000).prop_map(|(class, r)| match class {
        0 | 1 => 0,                     // zero-delay
        2 => 20_000,                    // equal timestamps
        3 => r,                         // within a slot or two
        4 => 4_096 - 2 + r % 5,         // a slot boundary
        5 => r * 200,                   // sub-microsecond
        6 => (1024 << 12) - 4_100 + r,  // the horizon, either side
        7 => 1_000_000_000,             // 1 ms timers, equal
        8 => 1_000_000_000 + r * 1_000, // 1 ms timers
        _ => r * 1_000_000,             // up to 5 ms
    })
}

fn when() -> impl Strategy<Value = When> {
    (0u8..5, delay(), 0u64..3_000_000).prop_map(|(kind, d, abs)| match kind {
        0 => When::At(abs), // often in the past: clamps to now
        1 => When::Wake,
        _ => When::After(d),
    })
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..10,
        delay(),
        proptest::collection::vec(when(), 0..4),
        1u8..6,
    )
        .prop_map(|(kind, d, spawn, n)| match kind {
            0..=4 => Op::Schedule(d, spawn),
            5 | 6 => Op::Step(n),
            7 => Op::RunFor(d),
            8 => Op::RunToNext,
            _ => Op::RunToPast(d),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tiered_queue_matches_a_single_heap(ops in proptest::collection::vec(op(), 1..120)) {
        let mut engine = Engine::new();
        let log: Log = Rc::new(RefCell::new(Vec::new()));
        let probe = engine.add_component(Box::new(Probe { log: log.clone() }));
        let mut model = Model::default();
        let mut next_id = 0u32;
        let mut id = || {
            next_id += 1;
            next_id
        };
        for op in ops {
            match op {
                Op::Schedule(d, spawn) => {
                    let ev_id = id();
                    let spawn: Vec<(When, u32)> = spawn.into_iter().map(|w| (w, id())).collect();
                    model.push(model.now + d, ev_id, spawn.clone());
                    engine.schedule(Dur::from_ps(d), probe, Box::new(Ev { id: ev_id, spawn }));
                }
                Op::Step(n) => {
                    for _ in 0..n {
                        prop_assert_eq!(engine.step(), model.step());
                    }
                }
                Op::RunFor(dt) => {
                    let deadline = model.now + dt;
                    prop_assert_eq!(engine.run_until(Time(deadline)), model.run_until(deadline));
                }
                Op::RunToNext => {
                    let deadline = model.next_time().unwrap_or(model.now);
                    prop_assert_eq!(engine.run_until(Time(deadline)), model.run_until(deadline));
                }
                Op::RunToPast(dt) => {
                    let deadline = model.now.saturating_sub(dt);
                    prop_assert_eq!(engine.run_until(Time(deadline)), model.run_until(deadline));
                }
            }
            prop_assert_eq!(engine.now().ps(), model.now);
            prop_assert_eq!(&*log.borrow(), &model.log);
        }
        // Drain: everything scheduled is dispatched, in the same order.
        engine.run_to_completion();
        while model.step() {}
        prop_assert_eq!(engine.now().ps(), model.now);
        prop_assert_eq!(&*log.borrow(), &model.log);
        prop_assert_eq!(engine.events_dispatched(), model.log.len() as u64);
    }
}
