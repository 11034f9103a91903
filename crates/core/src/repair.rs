//! The background repair driver: drains the control plane's prioritized
//! repair queue by executing one [`Job::Repair`] at a time through a
//! client node's NIC.
//!
//! This is the paper's building-block thesis applied to recovery: the
//! repair traffic is ordinary data-path traffic — capability-validated
//! one-sided reads for the surviving shards, NIC-validated writes for the
//! re-protected chunks — decoupled from the clients that take the
//! degraded-read hits (Lustre OST recovery / AsyncFS-style asynchronous
//! background work). The driver is deliberately synchronous per task so
//! fault-injection harnesses can kill nodes *between* tasks and observe
//! convergence deterministically.

use std::cell::RefCell;
use std::rc::Rc;

use nadfs_simnet::{Dur, IdMap, Time};
use nadfs_wire::Status;

use crate::client::{Job, RepairOutcome, RepairResult, RepairSlot};
use crate::cluster::SimCluster;
use crate::control::RepairTask;

/// Attempt budget per task: transient aborts requeue until it is spent.
const MAX_ATTEMPTS: u32 = 3;

/// What a full drain of the repair queue did.
#[derive(Clone, Debug, Default)]
pub struct RepairReport {
    /// Every task completion, in execution order (retries appear once per
    /// attempt).
    pub outcomes: Vec<RepairResult>,
    /// Tasks whose extent was re-protected (rebuilt or cloned).
    pub repaired: usize,
    /// Tasks that found every shard healthy (transient failure, or an
    /// earlier repair already covered them).
    pub already_healthy: usize,
    /// Tasks with a typed unrepairable reason (no redundancy left, no
    /// spare node). These are dropped, not retried.
    pub unrepairable: usize,
    /// Attempts that aborted on a data-path failure (each may have been
    /// retried up to the driver's attempt budget).
    pub aborted_attempts: usize,
    /// Tasks abandoned after exhausting the attempt budget.
    pub gave_up: usize,
    /// Total data-path bytes moved by committed repairs.
    pub bytes_moved: u64,
    /// Simulated milliseconds the driver idled to honor its bandwidth
    /// cap (zero when no cap is configured or the cap never bound).
    pub throttled_ms: u64,
}

impl RepairReport {
    /// True when the drain left nothing behind: no task gave up, so every
    /// queued extent is either re-protected, healthy, or provably
    /// unrepairable.
    pub fn converged(&self) -> bool {
        self.gave_up == 0
    }
}

/// Drains the repair queue through one client's driver.
pub struct RepairDriver {
    client: usize,
    /// Per-operation simulation deadline in simulated milliseconds.
    pub(crate) op_deadline_ms: u64,
    /// Windowed bandwidth cap: at most this many committed repair bytes
    /// per [`Self::throttle_window_ms`] of simulated time. Once a window's
    /// budget is spent the driver idles the cluster to the window
    /// boundary before pulling the next task, so foreground traffic runs
    /// against at most `bandwidth_cap / window` of background repair
    /// bandwidth. `None` (the default) disables throttling.
    pub bandwidth_cap: Option<u64>,
    /// Length of the throttle window in simulated milliseconds.
    pub throttle_window_ms: u64,
    attempts: IdMap<RepairTask, u32>,
    next_token: u64,
    window_start: Option<Time>,
    window_bytes: u64,
    throttled_ms: u64,
}

impl RepairDriver {
    /// A driver that executes repairs through client `client`'s NIC.
    pub fn new(client: usize) -> RepairDriver {
        RepairDriver {
            client,
            op_deadline_ms: 10_000,
            bandwidth_cap: None,
            throttle_window_ms: 10,
            attempts: IdMap::default(),
            next_token: 0x5250_0000,
            window_start: None,
            window_bytes: 0,
            throttled_ms: 0,
        }
    }

    /// If the current throttle window's byte budget is spent, idle the
    /// cluster to the window boundary; roll the window forward either way.
    fn throttle(&mut self, cluster: &mut SimCluster) {
        let Some(cap) = self.bandwidth_cap else {
            return;
        };
        let window = Dur::from_ms(self.throttle_window_ms.max(1));
        let now = cluster.engine.now();
        let start = *self.window_start.get_or_insert(now);
        if now >= start + window {
            // The window elapsed on its own (slow repairs, foreground
            // interleaving): start a fresh one at the current time.
            self.window_start = Some(now);
            self.window_bytes = 0;
            return;
        }
        if self.window_bytes >= cap {
            let end = start + window;
            cluster.engine.run_until(end);
            let idled = cluster.engine.now().max(end);
            self.throttled_ms += (idled - now).0 / Dur::from_ms(1).0;
            self.window_start = Some(idled);
            self.window_bytes = 0;
        }
    }

    /// Pop and execute the highest-priority task, running the simulation
    /// until it completes. Transient aborts are requeued (up to the
    /// attempt budget); `None` means the queue is empty.
    pub fn step(&mut self, cluster: &mut SimCluster) -> Option<RepairResult> {
        self.throttle(cluster);
        let task = cluster.control.borrow_mut().pop_repair()?;
        let token = self.next_token;
        self.next_token += 1;
        let slot: RepairSlot = Rc::new(RefCell::new(None));
        cluster.submit(
            self.client,
            Job::Repair {
                task,
                token,
                slot: slot.clone(),
            },
        );
        cluster.start();
        let result = cluster
            .run_until_slot(&slot, self.op_deadline_ms)
            .unwrap_or_else(|| RepairResult {
                // The simulation drained without completing the task
                // (e.g. a dead cluster): synthesize a typed abort so the
                // caller still sees the attempt.
                token,
                task,
                status: Status::Rejected,
                outcome: RepairOutcome::Aborted(Status::Rejected),
                start: cluster.engine.now(),
                end: cluster.engine.now(),
                bytes_moved: 0,
            });
        self.window_bytes += result.bytes_moved;
        if matches!(result.outcome, RepairOutcome::Aborted(_)) {
            let n = self.attempts.entry(task).or_insert(0);
            *n += 1;
            if *n < MAX_ATTEMPTS {
                cluster.control.borrow_mut().requeue_repair(task);
            } else {
                // Attempt budget exhausted: the task is dead — release
                // its compaction pin so the extent map can shrink again.
                cluster.control.borrow_mut().abandon_repair(task);
            }
        }
        Some(result)
    }

    /// Drain the queue to empty, aggregating a report. The queue can grow
    /// mid-drain (new failures, degraded-read promotions, requeues); the
    /// attempt budget bounds the loop.
    pub fn drain(&mut self, cluster: &mut SimCluster) -> RepairReport {
        let mut report = RepairReport::default();
        let throttled_before = self.throttled_ms;
        while let Some(r) = self.step(cluster) {
            self.tally(&mut report, r);
        }
        report.throttled_ms = self.throttled_ms - throttled_before;
        report
    }

    /// Count a completion of [`Self::step`] into `report`: an aborted
    /// attempt gave up once its task spent the attempt budget.
    pub fn tally(&self, report: &mut RepairReport, r: RepairResult) {
        match &r.outcome {
            RepairOutcome::Rebuilt { .. } | RepairOutcome::Cloned { .. } => {
                report.repaired += 1;
                report.bytes_moved += r.bytes_moved;
            }
            RepairOutcome::AlreadyHealthy => report.already_healthy += 1,
            RepairOutcome::Unrepairable(_) => report.unrepairable += 1,
            RepairOutcome::Aborted(_) => {
                report.aborted_attempts += 1;
                if self.attempts.get(&r.task).copied().unwrap_or(0) >= MAX_ATTEMPTS {
                    report.gave_up += 1;
                }
            }
        }
        report.outcomes.push(r);
    }

    /// Total simulated milliseconds this driver has idled for throttling.
    pub fn throttled_ms(&self) -> u64 {
        self.throttled_ms
    }
}
