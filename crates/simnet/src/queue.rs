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
//!   and pop touch one short slot and an occupancy bitmap.
//! * `far` — a binary heap for everything beyond the wheel, touched once
//!   per timer.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::engine::ComponentId;
use crate::time::Time;

pub(crate) struct Scheduled {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) target: ComponentId,
    pub(crate) ev: Box<dyn Any>,
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

/// Calendar of the near future. Holds only events whose slot number is
/// less than [`SLOTS`] ahead of the clock's, so each slot holds events of
/// one slot number and the first occupied slot at or after the clock's
/// holds the earliest.
struct Wheel {
    /// Each slot ascending by `(at, seq)`. Empty until first use.
    slots: Vec<VecDeque<Scheduled>>,
    occupied: [u64; WORDS],
}

impl Wheel {
    fn new() -> Wheel {
        Wheel {
            slots: Vec::new(),
            occupied: [0; WORDS],
        }
    }

    fn covers(now: Time, at: Time) -> bool {
        slot_no(at) - slot_no(now) < SLOTS as u64
    }

    fn insert(&mut self, s: Scheduled) {
        if self.slots.is_empty() {
            self.slots.resize_with(SLOTS, VecDeque::new);
        }
        let idx = slot_no(s.at) as usize % SLOTS;
        let slot = &mut self.slots[idx];
        // Later-scheduled events mostly land later: search from the back.
        let mut i = slot.len();
        while i > 0 && slot[i - 1].at > s.at {
            i -= 1;
        }
        if i == slot.len() {
            slot.push_back(s); // what `insert` would do, minus its generality
        } else {
            slot.insert(i, s);
        }
        self.occupied[idx / 64] |= 1 << (idx % 64);
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
        self.slots[idx].front().expect("occupied slot")
    }

    fn pop(&mut self, idx: usize) -> Scheduled {
        let slot = &mut self.slots[idx];
        let s = slot.pop_front().expect("occupied slot");
        if slot.is_empty() {
            self.occupied[idx / 64] &= !(1 << (idx % 64));
        }
        s
    }
}

/// Where the earliest timed (not `due_now`) event sits.
enum Timed {
    Wheel(usize),
    Far,
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

    fn timed_head(&self, now: Time) -> Option<(Timed, Time)> {
        let wheel = self.wheel.head_slot(now).map(|i| (i, self.wheel.peek(i)));
        match (wheel, self.far.peek()) {
            (None, None) => None,
            (Some((i, w)), Some(Reverse(f))) if w < f => Some((Timed::Wheel(i), w.at)),
            (Some((i, w)), None) => Some((Timed::Wheel(i), w.at)),
            (_, Some(Reverse(f))) => Some((Timed::Far, f.at)),
        }
    }

    /// Time of the next event in `(time, seq)` order.
    pub(crate) fn next_time(&self, now: Time) -> Option<Time> {
        if !self.due_now.is_empty() {
            return Some(now);
        }
        self.timed_head(now).map(|(_, at)| at)
    }

    /// Remove and return the next event in `(time, seq)` order.
    pub(crate) fn pop(&mut self, now: Time) -> Option<Scheduled> {
        match self.timed_head(now) {
            Some((tier, at)) if at == now || self.due_now.is_empty() => Some(match tier {
                Timed::Wheel(i) => self.wheel.pop(i),
                Timed::Far => self.far.pop().expect("peeked").0,
            }),
            _ => self.due_now.pop_front(),
        }
    }
}
