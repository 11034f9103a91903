//! The engine's event queue: exact `(time, seq)` order, split by how far
//! ahead of the clock an event lands.
//!
//! The three bands behave nothing alike (measured on the packet
//! workloads): 10-24 % of pushes are zero-delay and need no ordering work
//! at all; about 75 % land within a few hundred nanoseconds and pop
//! almost at once; and the few timers parked a millisecond out (one
//! cleanup check per open message, for its whole timeout) are nearly all
//! of the standing depth — hundreds to thousands of entries a single heap
//! would sift every packet event through.
//!
//! * `due_now` — a FIFO for events scheduled at the current instant.
//! * `wheel` — a calendar of 4 ns slots covering the next ~4 us: insert
//!   and pop touch one short slot and an occupancy bitmap. Every slot is
//!   a list linked through one arena of nodes, and a popped node goes on
//!   a free list that the next insert takes from, so a fresh engine grows
//!   one vector a logarithmic number of times instead of a buffer per
//!   slot (1,024 of them), and a warm one allocates nothing.
//! * `far` — a binary heap for everything beyond the wheel, touched once
//!   per timer.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::engine::ComponentId;
use crate::time::Time;

/// What a queued entry delivers: a boxed event for
/// [`Component::handle`](crate::Component::handle), or a gate wake for
/// [`Component::wake`](crate::Component::wake), which needs no box.
pub(crate) enum Event {
    Boxed(Box<dyn Any>),
    Wake(u64),
}

// The wake rides in the fat pointer's niche: queue entries stay as small
// as when every event was boxed.
const _: () = assert!(std::mem::size_of::<Event>() == 16);

pub(crate) struct Scheduled {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) target: ComponentId,
    pub(crate) ev: Event,
}

impl Scheduled {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// log2 of a wheel slot's width in picoseconds (4.096 ns).
const SLOT_SHIFT: u32 = 12;
/// Slots on the wheel: a 4.19 us horizon.
const SLOTS: usize = 1024;
const WORDS: usize = SLOTS / 64;

#[inline]
fn slot_no(t: Time) -> u64 {
    t.0 >> SLOT_SHIFT
}

/// No node: the end of a slot's list, of the free list, or an empty slot.
const NIL: u32 = u32::MAX;

/// One arena entry: a queued event, or `None` on the free list.
struct Node {
    s: Option<Scheduled>,
    next: u32,
}

/// A slot's list in the arena, first and last node.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// Calendar of the near future. Holds only events whose slot number is
/// less than [`SLOTS`] ahead of the clock's, so each slot holds events of
/// one slot number and the first occupied slot at or after the clock's
/// holds the earliest.
struct Wheel {
    /// Every slot's entries, linked through `next`; popped nodes go on
    /// the free list and the next insert takes the last one freed.
    nodes: Vec<Node>,
    free: u32,
    /// Each slot's list ascending by `(at, seq)`; `head` is [`NIL`] when
    /// the slot is empty (`tail` is then stale).
    slots: [Slot; SLOTS],
    occupied: [u64; WORDS],
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            nodes: Vec::new(),
            free: NIL,
            slots: [Slot {
                head: NIL,
                tail: NIL,
            }; SLOTS],
            occupied: [0; WORDS],
        }
    }

    fn covers(now: Time, at: Time) -> bool {
        slot_no(at) - slot_no(now) < SLOTS as u64
    }

    fn node(&self, n: u32) -> &Scheduled {
        self.nodes[n as usize].s.as_ref().expect("queued node")
    }

    fn insert(&mut self, s: Scheduled) {
        let idx = slot_no(s.at) as usize % SLOTS;
        let at = s.at;
        let n = self.free;
        let n = if n == NIL {
            self.nodes.push(Node {
                s: Some(s),
                next: NIL,
            });
            u32::try_from(self.nodes.len() - 1).expect("fewer than 2^32 events on the wheel")
        } else {
            let node = &mut self.nodes[n as usize];
            self.free = node.next;
            node.s = Some(s);
            node.next = NIL;
            n
        };
        let slot = self.slots[idx];
        if slot.head == NIL {
            self.slots[idx] = Slot { head: n, tail: n };
            self.occupied[idx / 64] |= 1 << (idx % 64);
        } else if self.node(slot.tail).at <= at {
            // Later-scheduled events mostly land later: append.
            self.nodes[slot.tail as usize].next = n;
            self.slots[idx].tail = n;
        } else {
            // Before the first entry due later; one due at the same
            // instant was scheduled earlier and stays ahead.
            let (mut prev, mut cur) = (NIL, slot.head);
            while self.node(cur).at <= at {
                (prev, cur) = (cur, self.nodes[cur as usize].next);
            }
            self.nodes[n as usize].next = cur;
            if prev == NIL {
                self.slots[idx].head = n;
            } else {
                self.nodes[prev as usize].next = n;
            }
        }
    }

    /// Index of the first occupied slot at or after the clock's, wrapping.
    fn head_slot(&self, now: Time) -> Option<usize> {
        let start = slot_no(now) as usize % SLOTS;
        let (w0, b0) = (start / 64, start % 64);
        let from_start = !0u64 << b0;
        let first = self.occupied[w0] & from_start;
        if first != 0 {
            return Some(w0 * 64 + first.trailing_zeros() as usize);
        }
        // The rest of the wheel in order, ending with the low bits of
        // word `w0` (slots that wrapped around).
        for k in 1..=WORDS {
            let w = (w0 + k) % WORDS;
            let mask = if k == WORDS { !from_start } else { !0 };
            let bits = self.occupied[w] & mask;
            if bits != 0 {
                return Some(w * 64 + bits.trailing_zeros() as usize);
            }
        }
        None
    }

    fn peek(&self, idx: usize) -> &Scheduled {
        self.node(self.slots[idx].head)
    }

    fn pop(&mut self, idx: usize) -> Scheduled {
        let n = self.slots[idx].head;
        let node = &mut self.nodes[n as usize];
        let s = node.s.take().expect("occupied slot");
        self.slots[idx].head = std::mem::replace(&mut node.next, self.free);
        self.free = n;
        if self.slots[idx].head == NIL {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        s
    }
}

/// Where the next event sits.
enum Tier {
    DueNow,
    Wheel(usize),
    Far,
}

/// What [`EventQueue::pop`] found.
pub(crate) enum Popped {
    /// The next event in `(time, seq)` order, now removed.
    Event(Scheduled),
    /// The next event is due after the deadline; nothing was removed.
    Later,
    Empty,
}

pub(crate) struct EventQueue {
    /// Events scheduled for the current instant, in scheduling order.
    /// Anything timed for the same instant was scheduled before the clock
    /// got there, so it carries a lower `seq` and runs first; after that
    /// this queue drains front to back before time can advance.
    due_now: VecDeque<Scheduled>,
    wheel: Wheel,
    far: BinaryHeap<Reverse<Scheduled>>,
}

impl EventQueue {
    pub(crate) fn new() -> EventQueue {
        EventQueue {
            due_now: VecDeque::new(),
            wheel: Wheel::new(),
            far: BinaryHeap::new(),
        }
    }

    /// Queue `s`; `now` is the clock (`s.at >= now`).
    pub(crate) fn push(&mut self, now: Time, s: Scheduled) {
        if s.at == now {
            self.due_now.push_back(s);
        } else if Wheel::covers(now, s.at) {
            self.wheel.insert(s);
        } else {
            self.far.push(Reverse(s));
        }
    }

    /// The earliest timed (not `due_now`) event's tier and time.
    fn timed_head(&self, now: Time) -> Option<(Tier, Time)> {
        let wheel = self.wheel.head_slot(now).map(|i| (i, self.wheel.peek(i)));
        match (wheel, self.far.peek()) {
            (None, None) => None,
            (Some((i, w)), Some(Reverse(f))) if w < f => Some((Tier::Wheel(i), w.at)),
            (Some((i, w)), None) => Some((Tier::Wheel(i), w.at)),
            (_, Some(Reverse(f))) => Some((Tier::Far, f.at)),
        }
    }

    /// Remove and return the next event in `(time, seq)` order if it is
    /// due by `deadline`, finding it with one look at the tiers' heads.
    pub(crate) fn pop(&mut self, now: Time, deadline: Time) -> Popped {
        let (tier, at) = match self.timed_head(now) {
            Some((tier, at)) if at == now || self.due_now.is_empty() => (tier, at),
            _ if !self.due_now.is_empty() => (Tier::DueNow, now),
            _ => return Popped::Empty,
        };
        if at > deadline {
            return Popped::Later;
        }
        Popped::Event(match tier {
            Tier::DueNow => self.due_now.pop_front().expect("non-empty"),
            Tier::Wheel(i) => self.wheel.pop(i),
            Tier::Far => self.far.pop().expect("peeked").0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Dur;

    /// The next event, however far ahead.
    fn pop_any(q: &mut EventQueue, now: Time) -> Option<Scheduled> {
        match q.pop(now, Time(u64::MAX)) {
            Popped::Event(s) => Some(s),
            Popped::Later | Popped::Empty => None,
        }
    }

    /// Odd `seq`s are wakes carrying their `seq` as the token, even ones
    /// boxed events carrying it as the payload.
    fn entry(at: Time, seq: u64) -> Scheduled {
        let ev = match seq % 2 {
            1 => Event::Wake(seq),
            _ => Event::Boxed(Box::new(seq)),
        };
        Scheduled {
            at,
            seq,
            target: 0,
            ev,
        }
    }

    /// Within one slot an insert due earlier than the slot's tail goes
    /// before the first entry due later and after those due at its
    /// instant; a pop frees its node for the next insert.
    #[test]
    fn a_slot_keeps_time_then_seq_order_and_reuses_popped_nodes() {
        let now = Time(1 << 30);
        let mut q = EventQueue::new();
        // One slot (4.096 ns wide): 3.0, 1.0, 2.0, 1.0 and 3.0 ns ahead.
        for (seq, ps) in [3_000, 1_000, 2_000, 1_000, 3_000].into_iter().enumerate() {
            q.push(now, entry(now + Dur::from_ps(ps), seq as u64));
        }
        assert_eq!(q.wheel.nodes.len(), 5);
        let first = pop_any(&mut q, now).expect("queued");
        assert_eq!((first.at, first.seq), (now + Dur::from_ps(1_000), 1));
        q.push(now, entry(now + Dur::from_ps(2_000), 5));
        assert_eq!(q.wheel.nodes.len(), 5, "the freed node was reused");
        let mut order = vec![];
        while let Some(s) = pop_any(&mut q, now) {
            order.push(s.seq);
        }
        assert_eq!(order, [3, 2, 5, 0, 4]);
    }

    #[test]
    fn wakes_and_boxed_events_at_one_instant_pop_in_seq_order_from_every_tier() {
        let now = Time(1 << 30);
        for ahead in [Dur::ZERO, Dur::from_ns(100), Dur::from_ms(1)] {
            let at = now + ahead;
            let mut q = EventQueue::new();
            for seq in 0..6 {
                q.push(now, entry(at, seq));
            }
            let (due_now, far) = (q.due_now.len(), q.far.len());
            match ahead.ps() {
                0 => assert_eq!((due_now, far), (6, 0), "due now"),
                100_000 => assert_eq!((due_now, far), (0, 0), "on the wheel"),
                _ => assert_eq!((due_now, far), (0, 6), "in the far heap"),
            }
            let mut clock = now;
            let mut order = Vec::new();
            while let Some(s) = pop_any(&mut q, clock) {
                assert_eq!(s.at, at);
                clock = s.at;
                let carried = match s.ev {
                    Event::Wake(token) => token,
                    Event::Boxed(ev) => *ev.downcast::<u64>().expect("boxed seq"),
                };
                assert_eq!(carried, s.seq, "payload stays with its entry");
                order.push(s.seq);
            }
            assert_eq!(order, (0..6).collect::<Vec<_>>(), "{ahead:?} ahead");
        }
    }

    /// An event due after the deadline stays queued, from every tier;
    /// one due at the deadline pops.
    #[test]
    fn pop_stops_at_the_deadline_and_removes_nothing_there() {
        let now = Time(1 << 30);
        let mut q = EventQueue::new();
        assert!(matches!(q.pop(now, now), Popped::Empty));
        q.push(now, entry(now, 0));
        assert!(
            matches!(q.pop(now, Time(now.ps() - 1)), Popped::Later),
            "due now, but the deadline is behind the clock"
        );
        for (seq, ahead) in [(1, Dur::from_ns(100)), (2, Dur::from_ms(1))] {
            q.push(now, entry(now + ahead, seq));
        }
        let mut clock = now;
        for (seq, ahead) in [(0, Dur::ZERO), (1, Dur::from_ns(100)), (2, Dur::from_ms(1))] {
            let at = now + ahead;
            if ahead > Dur::ZERO {
                let before = Time(at.ps() - 1);
                assert!(matches!(q.pop(clock, before), Popped::Later), "{seq}");
            }
            match q.pop(clock, at) {
                Popped::Event(s) => assert_eq!((s.at, s.seq), (at, seq)),
                _ => panic!("entry {seq} due at the deadline did not pop"),
            }
            clock = at;
        }
        assert!(matches!(q.pop(clock, Time(u64::MAX)), Popped::Empty));
    }
}
