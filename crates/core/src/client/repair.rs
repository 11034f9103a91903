//! The repair op: fetch surviving shards, rebuild, write the re-protected
//! shards to their spares, commit the extent-map update. Its one timer is
//! the reconstruction cost between the fetch and write phases.

use bytes::Bytes;
use nadfs_host::POLL_NOTIFY;
use nadfs_rdma::NicCore;
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{Ctx, NodeId, OpKind, SpanId, Time, TENANT_REPAIR};
use nadfs_wire::{AckPkt, DfsOp, ReadReqHeader, ReplicaCoord, Status};

use super::write::plain_wrh;
use super::{ClientApp, Event, Op, RepairOutcome, RepairResult, RepairSlot, Routes, Step};
use crate::control::{RepairPlan, RepairTask};

/// One repair task as asked for, with its open span.
struct RepairReq {
    token: u64,
    task: RepairTask,
    slot: RepairSlot,
    span: SpanId,
    start: Time,
}

enum Phase {
    /// Survivor fetches in flight.
    Fetching { left: u32 },
    /// Every survivor landed; waiting out the rebuild's CPU cost.
    Rebuilding,
    /// Spare writes in flight.
    Writing { acks_left: u32 },
}

/// One in-flight repair task: surviving shards stream into `scratch`,
/// rebuilt shards fan out as writes to their spare coordinates, and the
/// extent-map update commits once every write acknowledges.
pub(super) struct RepairOp {
    req: RepairReq,
    plan: RepairPlan,
    /// Client-memory staging base for fetched shards (fetch-slot order).
    scratch: u64,
    phase: Phase,
    /// Data-path bytes moved so far (shards fetched + written).
    bytes_moved: u64,
    routes: Routes,
}

impl ClientApp {
    /// Deliver a repair completion (success, typed unrepairable, or
    /// abort).
    fn deliver_repair(
        &mut self,
        ctx: &Ctx<'_>,
        req: RepairReq,
        outcome: RepairOutcome,
        bytes_moved: u64,
    ) {
        let status = match outcome {
            RepairOutcome::Unrepairable(_) => Status::Rejected,
            RepairOutcome::Aborted(status) => status,
            _ => Status::Ok,
        };
        let result = RepairResult {
            token: req.token,
            task: req.task,
            status,
            outcome,
            start: req.start,
            end: ctx.now() + POLL_NOTIFY,
            bytes_moved,
        };
        self.span_end(req.span, result.end, status == Status::Ok);
        *req.slot.borrow_mut() = Some(result);
    }

    /// Start one repair task: plan it against the control plane, then
    /// fan out the surviving-shard fetches over the NIC (capability-
    /// validated one-sided reads — repair traffic is data-path traffic).
    pub(super) fn start_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        task: RepairTask,
        token: u64,
        slot: RepairSlot,
    ) {
        let start = ctx.now();
        let span = self.span_begin(OpKind::Repair, nic, start, || {
            format!("repair f{}", task.file)
        });
        let req = RepairReq {
            token,
            task,
            slot,
            span,
            start,
        };
        let planned = self.control.borrow_mut().plan_repair(task);
        self.trace
            .borrow_mut()
            .emit_with(start, "control", || format!("plan-repair f{}", task.file));
        let plan = match planned {
            Ok(plan @ (RepairPlan::EcRebuild { .. } | RepairPlan::ReplicaClone { .. })) => plan,
            nothing_to_move => {
                // Already healthy (nothing to move, nothing to commit) or
                // typed unrepairable (the extent cannot be re-protected,
                // or vanished): the task dies here — release its
                // compaction pin.
                self.control.borrow_mut().abandon_repair(task);
                let outcome = match nothing_to_move {
                    Err(e) => RepairOutcome::Unrepairable(e),
                    Ok(_) => RepairOutcome::AlreadyHealthy,
                };
                self.deliver_repair(ctx, req, outcome, 0);
                return;
            }
        };
        let fetches: Vec<(ReplicaCoord, u32)> = match &plan {
            RepairPlan::EcRebuild {
                chunk_len, fetch, ..
            } => fetch.iter().map(|&(_, c)| (c, *chunk_len)).collect(),
            RepairPlan::ReplicaClone { len, src, .. } => vec![(*src, *len)],
            RepairPlan::AlreadyHealthy => vec![],
        };
        let total: u64 = fetches.iter().map(|&(_, l)| l as u64).sum();
        let scratch = nic.memory().borrow_mut().alloc(total.max(1));
        let id = self.ops.next_id();
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.dfs_header(nic, task.file, greq, DfsOp::Read);
        dfs.tenant = TENANT_REPAIR;
        let mut op = RepairOp {
            req,
            plan,
            scratch,
            phase: Phase::Fetching {
                left: fetches.len() as u32,
            },
            bytes_moved: total,
            routes: Routes::default(),
        };
        self.span_mark(span, phase::RESOLVED, ctx.now());
        self.correlate(&mut op.routes, greq, span);
        let mut off = 0u64;
        for (coord, len) in fetches {
            let sub = self.ops.fetch_token(id, &mut op.routes);
            let rrh = ReadReqHeader {
                addr: coord.addr,
                len,
            };
            let node = coord.node as NodeId;
            let msg = nic.send_read(ctx, node, rrh, Some(dfs), scratch + off, sub);
            self.ops.route_msg(id, &mut op.routes, msg);
            off += len as u64;
        }
        self.span_mark(span, phase::FANNED_OUT, ctx.now());
        self.ops.insert(id, Op::Repair(Box::new(op)));
    }

    pub(super) fn step_repair(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        mut r: Box<RepairOp>,
        ev: Event<'_>,
    ) -> Step {
        // `Err` aborts the task with that status; `Ok(true)` commits it.
        let settled = match (ev, &mut r.phase) {
            (Event::ReadDone, Phase::Fetching { left }) => {
                *left = left.saturating_sub(1);
                if *left == 0 {
                    // Model the rebuild cost: the client CPU walks every
                    // fetched byte before the re-protected shards exist.
                    let now = ctx.now();
                    let t = nic.cpu.exec(now, nic.cpu.memcpy_cost(r.bytes_moved));
                    r.phase = Phase::Rebuilding;
                    nic.set_timer(ctx, t.since(now), id);
                }
                Ok(false)
            }
            (Event::Timer, Phase::Rebuilding) => self.rebuild_and_write(nic, ctx, id, &mut r),
            (Event::Ack(ack), phase) => self.repair_acked(nic, phase, ack),
            _ => Ok(false),
        };
        match settled {
            Ok(false) => Step::Pending(Op::Repair(r)),
            Ok(true) => self.commit_repair(ctx, *r),
            Err(status) => {
                // A fetch NACKed, the rebuild failed or a spare write was
                // refused: cancel outstanding reads and deliver a typed
                // `Aborted` completion the driver can retry.
                r.routes.msgs.iter().for_each(|m| nic.cancel_read(*m));
                self.deliver_repair(ctx, r.req, RepairOutcome::Aborted(status), 0);
                Step::Done(r.routes)
            }
        }
    }

    /// One ack for a repair: a NACKed survivor fetch aborts the task;
    /// spare-write acks count down toward the extent-map commit.
    fn repair_acked(
        &mut self,
        nic: &mut NicCore,
        phase: &mut Phase,
        ack: &AckPkt,
    ) -> Result<bool, Status> {
        self.ops.by_msg.remove(&ack.msg);
        match phase {
            Phase::Writing { acks_left } if ack.status == Status::Ok => {
                *acks_left = acks_left.saturating_sub(1);
                Ok(*acks_left == 0)
            }
            Phase::Writing { .. } => Err(ack.status),
            // Before the spare writes go out the only acks are NACKs
            // (auth failure, rejected region) — the shard will never
            // stream back.
            _ => {
                nic.cancel_read(ack.msg);
                Err(match ack.status {
                    Status::Ok => Status::Rejected,
                    nack => nack,
                })
            }
        }
    }

    /// All survivors landed and the rebuild's CPU cost is paid: rebuild
    /// the lost shards and write them to their spares.
    fn rebuild_and_write(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        id: u64,
        r: &mut RepairOp,
    ) -> Result<bool, Status> {
        let task = r.req.task;
        // (dest coord, bytes) per spare write, built per plan kind.
        let writes: Vec<(ReplicaCoord, Bytes)> = match &r.plan {
            RepairPlan::AlreadyHealthy => vec![],
            RepairPlan::ReplicaClone { len, dest, .. } => {
                let data = nic.memory().borrow().read_bytes(r.scratch, *len as usize);
                dest.iter().map(|&(_, c)| (c, data.clone())).collect()
            }
            RepairPlan::EcRebuild {
                scheme,
                chunk_len,
                fetch,
                rebuild,
            } => {
                let survivors: Vec<usize> = fetch.iter().map(|&(idx, _)| idx).collect();
                let want: Vec<usize> = rebuild.iter().map(|&(s, _)| s).collect();
                // A shard-count/size mismatch is a programming error in
                // the plan, but surface it as an abort, not a panic.
                let outs = self
                    .rebuild_staged(nic, *scheme, *chunk_len, r.scratch, &survivors, &want)
                    .map_err(|_| Status::Rejected)?;
                let spares = rebuild.iter().map(|&(_, coord)| coord);
                spares.zip(outs.into_iter().map(Bytes::from)).collect()
            }
        };
        // The spare writes travel under a fresh greq: re-key the span.
        let greq = self.control.borrow_mut().alloc_greq();
        let mut dfs = self.dfs_header(nic, task.file, greq, DfsOp::Write);
        dfs.tenant = TENANT_REPAIR;
        let acks_left = writes.len() as u32;
        r.phase = Phase::Writing { acks_left };
        self.span_mark(r.req.span, phase::REBUILT, ctx.now());
        self.correlate(&mut r.routes, greq, r.req.span);
        for (coord, data) in writes {
            let wrh = plain_wrh(coord, data.len() as u32);
            r.bytes_moved += data.len() as u64;
            let msg = nic.send_write(ctx, coord.node as NodeId, Some(dfs), wrh, data);
            self.ops.route_msg(id, &mut r.routes, msg);
        }
        // Defensive: a plan with nothing to write commits directly.
        Ok(acks_left == 0)
    }

    /// Every spare write acknowledged: commit the re-homing into the
    /// extent map (generation bump + cache invalidation) and complete.
    fn commit_repair(&mut self, ctx: &Ctx<'_>, r: RepairOp) -> Step {
        let task = r.req.task;
        let committed = self.control.borrow_mut().commit_repair(
            task,
            &r.plan.replacements(),
            ctx.now().as_ns() as u64,
        );
        self.trace.borrow_mut().emit_with(ctx.now(), "control", || {
            format!("commit-repair f{}", task.file)
        });
        let outcome = match (committed, &r.plan) {
            // The file vanished mid-repair (unlink/rename-replace): the
            // moved bytes are moot, not an error worth retrying.
            (Err(e), _) => RepairOutcome::Unrepairable(e),
            (Ok(()), RepairPlan::EcRebuild { rebuild, .. }) => RepairOutcome::Rebuilt {
                shards: rebuild.iter().map(|&(s, _)| s).collect(),
            },
            (Ok(()), RepairPlan::ReplicaClone { dest, .. }) => RepairOutcome::Cloned {
                replicas: dest.iter().map(|&(s, _)| s).collect(),
            },
            (Ok(()), RepairPlan::AlreadyHealthy) => RepairOutcome::AlreadyHealthy,
        };
        if !matches!(outcome, RepairOutcome::Unrepairable(_)) {
            self.span_mark(r.req.span, phase::COMMITTED, ctx.now());
        }
        self.deliver_repair(ctx, r.req, outcome, r.bytes_moved);
        Step::Done(r.routes)
    }
}
