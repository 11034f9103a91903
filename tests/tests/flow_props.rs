//! Property tests for the credit-based flow-control layer: under
//! arbitrary submit/complete/ack interleavings a closed-loop
//! sender/receiver pair never over-draws a credit budget, never drops a
//! work request, and — once the loop drains — every queued WR has
//! completed and every credit has returned to its configured budget.
//!
//! The harness mirrors the NIC's discipline exactly: acquire-or-queue on
//! submit, per-class pending FIFOs, local credit back at completion,
//! remote credit back via grants the receiver accumulates and ships
//! (piggybacked or standalone at the half-budget threshold).

use std::collections::VecDeque;

use nadfs_simnet::{CreditConfig, CreditGrant, FlowController, TenantScheduler, WrClass};
use proptest::prelude::*;

const PEER: usize = 7;

#[derive(Clone, Debug)]
enum Op {
    // Submit one WR of the given class (0..4 → Data/Imm/Read/Write).
    Submit(u8),
    // Complete the oldest in-flight WR (no-op when none is in flight).
    Deliver,
    // Receiver ships its accumulated grant; sender applies it.
    Ack,
}

fn op() -> impl Strategy<Value = Op> {
    // Weighted 3:2:1 submit/deliver/ack mix.
    (0u8..6, 0u8..4).prop_map(|(kind, class)| match kind {
        0..=2 => Op::Submit(class),
        3 | 4 => Op::Deliver,
        _ => Op::Ack,
    })
}

fn class_of(i: u8) -> WrClass {
    WrClass::ALL[i as usize % 4]
}

/// The closed loop: one sender posting WRs to one receiver, with the
/// same queue-or-post discipline the NIC uses.
struct Loop {
    cfg: CreditConfig,
    sender: FlowController,
    receiver: FlowController,
    // WRs that found no credit, FIFO per class (the NIC's pending_wrs).
    pending: [VecDeque<WrClass>; 4],
    // Posted WRs not yet completed, in post order.
    inflight: VecDeque<WrClass>,
    submitted: u64,
    completed: u64,
}

impl Loop {
    fn new(cfg: CreditConfig) -> Loop {
        Loop {
            cfg,
            sender: FlowController::new(cfg),
            receiver: FlowController::new(cfg),
            pending: Default::default(),
            inflight: VecDeque::new(),
            submitted: 0,
            completed: 0,
        }
    }

    fn submit(&mut self, class: WrClass) {
        self.submitted += 1;
        if self.sender.try_acquire(PEER, class) {
            self.inflight.push_back(class);
        } else {
            self.sender.note_queued();
            self.pending[class.index()].push_back(class);
        }
    }

    // Oldest in-flight WR reaches the wire/peer: local credit returns;
    // two-sided classes consume a recv buffer at the receiver, which
    // may force a standalone credit ack at the threshold.
    fn deliver(&mut self) {
        let Some(class) = self.inflight.pop_front() else {
            return;
        };
        self.completed += 1;
        self.sender.on_local_complete(PEER, class);
        if class.consumes_remote() && self.receiver.on_recv(PEER, class) {
            self.ack(true);
        }
        self.release_pending();
    }

    fn ack(&mut self, standalone: bool) {
        let g = self.receiver.take_grant(PEER, standalone);
        self.sender.on_grant(PEER, g);
        self.release_pending();
    }

    fn release_pending(&mut self) {
        for class in WrClass::ALL {
            while !self.pending[class.index()].is_empty() && self.sender.can_post(PEER, class) {
                assert!(
                    self.sender.try_acquire(PEER, class),
                    "can_post implies try_acquire succeeds"
                );
                self.sender.note_released();
                self.pending[class.index()].pop_front();
                self.inflight.push_back(class);
            }
        }
    }

    fn pending_len(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }

    // Budget conservation at every step: credit on hand plus credit
    // held by in-flight WRs equals the configured budget, per class —
    // the "credits never go negative / never mint" invariant.
    fn check_conservation(&self) {
        let mut inflight_by_class = [0u16; 4];
        for &c in &self.inflight {
            inflight_by_class[c.index()] += 1;
        }
        for class in WrClass::ALL {
            let budget = self.cfg.max_for(class);
            let local = self.sender.local_credit(PEER, class);
            let held = inflight_by_class[class.index()];
            assert!(local <= budget, "{class:?}: local credit above budget");
            assert_eq!(
                local + held,
                budget,
                "{class:?}: local credit + in-flight ≠ budget"
            );
        }
        // Remote (recv) credit: spent credit is either held by an
        // in-flight two-sided WR or pending return at the receiver.
        for (class, gi) in [(WrClass::Data, 0usize), (WrClass::Imm, 1usize)] {
            let budget = self.cfg.max_for(class);
            let remote = self.sender.remote_credit(PEER, class);
            let pend = self.receiver.pending_grant(PEER);
            let pend = if gi == 0 { pend.data } else { pend.imm };
            let held = inflight_by_class[class.index()];
            assert!(remote <= budget, "{class:?}: remote credit above budget");
            assert_eq!(
                remote + held + pend,
                budget,
                "{class:?}: remote + in-flight + pending-grant ≠ budget"
            );
        }
        // Accounting: nothing vanished between the queues and the wire.
        assert_eq!(
            self.submitted,
            self.completed + self.inflight.len() as u64 + self.pending_len() as u64,
            "a WR was dropped"
        );
    }

    // Drain to quiescence: deliver everything, ship grants, release.
    // Bounded iterations prove every queued WR eventually completes.
    fn drain(&mut self) {
        let mut rounds = 0;
        while !self.inflight.is_empty() || self.pending_len() > 0 {
            rounds += 1;
            assert!(
                rounds <= 10_000,
                "drain did not converge: {} in flight, {} pending",
                self.inflight.len(),
                self.pending_len()
            );
            while !self.inflight.is_empty() {
                self.deliver();
            }
            self.ack(true);
        }
        self.ack(true); // flush the last pending grant
    }
}

fn small_cfg() -> impl Strategy<Value = CreditConfig> {
    (1u16..5, 1u16..5, 1u16..5, 1u16..5).prop_map(|(d, i, r, w)| CreditConfig {
        max_send_data: d,
        max_send_imm: i,
        max_send_read: r,
        max_send_write: w,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Under arbitrary interleavings: budgets conserved at every step,
    // no WR dropped, and the final drain completes every submission
    // with all credits restored to their configured budgets.
    #[test]
    fn credit_loop_conserves_budgets_and_drains(
        cfg in small_cfg(),
        ops in proptest::collection::vec(op(), 1..200),
    ) {
        let mut l = Loop::new(cfg);
        for o in &ops {
            match *o {
                Op::Submit(c) => l.submit(class_of(c)),
                Op::Deliver => l.deliver(),
                Op::Ack => l.ack(false),
            }
            l.check_conservation();
        }
        l.drain();
        l.check_conservation();
        prop_assert_eq!(l.completed, l.submitted, "every WR completes");
        for class in WrClass::ALL {
            prop_assert_eq!(l.sender.local_credit(PEER, class), cfg.max_for(class));
            if class.consumes_remote() {
                prop_assert_eq!(
                    l.sender.remote_credit(PEER, class),
                    cfg.max_for(class)
                );
            }
        }
        // Counter coherence: the stats agree with the model.
        let s = *l.sender.stats_handle().borrow();
        prop_assert_eq!(s.posted.iter().sum::<u64>(), l.submitted);
        prop_assert_eq!(s.completed.iter().sum::<u64>(), l.submitted);
        prop_assert_eq!(s.queued, s.released, "every queued WR was released");
    }

    // The DRR scheduler never loses an item, stays FIFO within each
    // tenant, and drains completely regardless of push order and costs.
    #[test]
    fn drr_loses_nothing_and_keeps_tenant_fifo(
        items in proptest::collection::vec((0u16..5, 1u64..200_000), 1..300),
        quantum in 1u64..100_000,
        weights in proptest::collection::vec(1u32..8, 5),
    ) {
        let weights: Vec<(u16, u32)> = (0..).zip(weights).collect();
        let mut s: TenantScheduler<usize> = TenantScheduler::new(quantum, &weights, usize::MAX);
        for (seq, &(t, cost)) in items.iter().enumerate() {
            s.push(t, cost, seq);
        }
        prop_assert_eq!(s.len(), items.len());
        let mut last_seq = [None::<usize>; 5];
        let mut popped = 0;
        while let Some((t, seq)) = s.admit() {
            popped += 1;
            prop_assert_eq!(items[seq].0, t, "item came back under its tenant");
            if let Some(prev) = last_seq[t as usize] {
                prop_assert!(prev < seq, "FIFO order broken within tenant {}", t);
            }
            last_seq[t as usize] = Some(seq);
        }
        prop_assert_eq!(popped, items.len(), "an item was dropped");
        prop_assert!(s.is_empty());
        for t in 0u16..5 {
            let l = s.ledger(t);
            prop_assert_eq!(l.enqueued, l.dispatched, "tenant {} starved", t);
        }
    }

    // Flooded DRR service converges to the weight ratio: with two
    // backlogged tenants pushing unit-cost items, the service counts in
    // any long-enough prefix track the configured weights.
    #[test]
    fn drr_service_tracks_weight_ratio(w1 in 1u32..8, w2 in 1u32..8) {
        let mut s: TenantScheduler<u32> = TenantScheduler::new(1024, &[(1, w1), (2, w2)], usize::MAX);
        let rounds = 200 * (w1 + w2) as usize;
        for i in 0..rounds {
            s.push(1, 1024, i as u32);
            s.push(2, 1024, i as u32);
        }
        let take = 50 * (w1 + w2) as usize;
        let mut got = [0f64; 2];
        for _ in 0..take {
            let (t, _) = s.admit().expect("backlogged");
            got[t as usize - 1] += 1.0;
        }
        let expect1 = take as f64 * w1 as f64 / (w1 + w2) as f64;
        let err = (got[0] - expect1).abs() / expect1;
        prop_assert!(
            err < 0.25,
            "weighted share off by {:.0}%: got {:?}, expected {:.0}/{:.0}",
            err * 100.0,
            got,
            expect1,
            take as f64 - expect1
        );
    }

    // Grants saturate: replaying a grant (a duplicated ack) cannot mint
    // recv credit past the budget, and spurious completions cannot mint
    // send credit.
    #[test]
    fn replayed_grants_and_completions_cannot_mint_credit(
        cfg in small_cfg(),
        spends in 0u16..8,
    ) {
        let mut f = FlowController::new(cfg);
        let n = spends.min(cfg.max_send_data);
        for _ in 0..n {
            prop_assert!(f.try_acquire(PEER, WrClass::Data));
        }
        for _ in 0..3 {
            f.on_grant(PEER, CreditGrant { data: u16::MAX, imm: u16::MAX });
            f.on_local_complete(PEER, WrClass::Imm);
        }
        prop_assert_eq!(f.remote_credit(PEER, WrClass::Data), cfg.max_send_data);
        prop_assert_eq!(f.local_credit(PEER, WrClass::Imm), cfg.max_send_imm);
    }
}
