//! Storage-node software: the CPU-side enforcement paths the paper
//! compares the NIC offload against.
//!
//! * RPC writes (§IV "RPC"): the CPU validates the request, copies the
//!   buffered payload into the storage target, and acknowledges.
//! * RPC+RDMA writes (§IV "RPC+RDMA"): the CPU validates, then the NIC
//!   RDMA-reads the payload from the client and the CPU acknowledges.
//! * CPU-Ring / CPU-PBT replication (§V): chunks are copied out of the
//!   receive buffer and re-posted to the node's children in the broadcast
//!   schedule — two CPU copies per forwarded byte, which is exactly why
//!   the paper's CPU baselines flatten out.
//! * EC accumulator fallback (§VI-B-3): when the NIC accumulator pool was
//!   exhausted, intermediate parities were staged to host memory and the
//!   CPU finishes the XOR aggregation.
//! * Cleanup events (§VII): surfaced by the NIC after client failures.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_host::{POLL_NOTIFY, POST_SEND, RPC_DISPATCH, VALIDATE};
use nadfs_pspin::HostEvent;
use nadfs_rdma::{NicApp, NicCore};
use nadfs_simnet::telemetry::phase;
use nadfs_simnet::{
    Ctx, Dur, IdMap, NodeId, ObsHub, SharedObs, SharedTrace, Slab, TenantScheduler, Time, Trace,
};
use nadfs_wire::{
    bcast_children, checked_range, AckPkt, DfsHeader, MacKey, MsgId, ReadReqHeader, Resiliency,
    Rights, RpcBody, RsScheme, Status, WriteReqHeader,
};

/// Observable storage-node statistics (shared with tests/harnesses).
#[derive(Debug, Default)]
pub struct StorageStats {
    pub rpc_writes: u64,
    pub rpc_rdma_writes: u64,
    /// CPU-validated reads served through the RPC read protocol.
    pub rpc_reads: u64,
    pub chunks_forwarded: u64,
    pub auth_failures: u64,
    pub fallback_aggregations: u64,
    pub cleanup_events: u64,
    /// Stripe units the metadata service placed on this node (filled in
    /// by the control plane at placement time; striped plain writes
    /// only — replication/EC fan-out is counted by their own fields).
    pub stripe_chunks_placed: u64,
    /// Re-protected shards the repair pipeline committed to this node
    /// (this node was chosen as the spare).
    pub repair_chunks_hosted: u64,
    /// Gauge: extent shards currently live on this node per the extent
    /// maps (commit adds, re-home away / unlink / reclaim subtracts).
    pub chunks_hosted: u64,
    /// Gauge: payload bytes behind `chunks_hosted`.
    pub bytes_hosted: u64,
    /// Shards garbage-collected by recovery reconciliation: the extent
    /// was re-homed (or unlinked) while this node was down, so its copy
    /// came back stale and was reclaimed.
    pub stale_chunks_reclaimed: u64,
    /// Payload bytes behind `stale_chunks_reclaimed`.
    pub stale_bytes_reclaimed: u64,
}

pub type SharedStorageStats = Rc<RefCell<StorageStats>>;

/// Deferred CPU completion: what to do once the CPU finishes a task.
enum AfterCpu {
    AckClient {
        dst: NodeId,
        ack: AckPkt,
    },
    ForwardChunk {
        dst: NodeId,
        body: RpcBody,
        data: Bytes,
    },
    FetchData {
        client: NodeId,
        src_addr: u64,
        len: u32,
        local_addr: u64,
        token: u64,
    },
    /// CPU validated an RPC read: stream the bytes back to the client.
    StreamRead {
        dst: NodeId,
        msg: MsgId,
        addr: u64,
        len: u32,
    },
    /// A QoS-admitted RPC's synchronous service drained: free its
    /// concurrency slot and admit the next scheduled request.
    ServiceDone,
}

/// One in-progress RPC+RDMA write awaiting its data fetch.
struct PendingFetch {
    client: NodeId,
    /// The ack the client gets once the data is here.
    done: AckPkt,
}

/// An RPC held back by the per-tenant scheduler.
pub(crate) struct QueuedRpc {
    src: NodeId,
    msg: MsgId,
    body: RpcBody,
    data: Bytes,
}

/// The storage node software.
pub struct StorageApp {
    key: MacKey,
    pub stats: SharedStorageStats,
    /// Network line rate, used to model the receive-copy overlap: while a
    /// long SEND is still arriving, the CPU copies the already-received
    /// prefix, so only the residual is serial after the last packet.
    wire_bw: nadfs_simnet::Bandwidth,
    /// CPU continuations by slot; a continuation's timer tag is
    /// `TAG_BASE | slot`.
    deferred: Slab<AfterCpu>,
    /// RPC+RDMA writes whose data fetch is out, by slot: the slot is the
    /// fetch's read-done token.
    fetches: Slab<PendingFetch>,
    /// Bytes landed so far of each chunked replicated write, by greq.
    progress: IdMap<u64, u32>,
    /// Observability: span phase marks (greq-correlated) + trace ring.
    /// Both default disabled; the cluster build installs the live hubs.
    pub obs: SharedObs,
    pub trace: SharedTrace,
    /// Per-tenant fair queueing of RPC service (None = first-come
    /// dispatch, the pre-QoS behavior): incoming write/read RPCs drain in
    /// deficit-round-robin order, each holding a service slot until the
    /// CPU dispatch pipeline drains past it, so one tenant's burst cannot
    /// occupy the whole pipeline.
    pub(crate) qos: Option<TenantScheduler<QueuedRpc>>,
}

const TAG_BASE: u64 = 0x5347_0000_0000_0000;

impl StorageApp {
    pub fn new(key: MacKey, wire_bw: nadfs_simnet::Bandwidth) -> StorageApp {
        StorageApp {
            key,
            stats: Rc::new(RefCell::new(StorageStats::default())),
            wire_bw,
            deferred: Slab::new(),
            fetches: Slab::new(),
            progress: IdMap::default(),
            obs: ObsHub::disabled(),
            trace: Trace::disabled(),
            qos: None,
        }
    }

    /// The CPU wakes up, dispatches request `msg` from `src` and checks
    /// its capability for `rights`, and that the header's client is the
    /// capability's holder. Returns when it is done, having marked
    /// `cpu-validated` on the greq-correlated span and noted the
    /// validation on this node's storage track — or `None`, with the
    /// `AuthFailed` NACK on its way to `src`.
    fn validate(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        msg: MsgId,
        dfs: &DfsHeader,
        rights: Rights,
    ) -> Option<Time> {
        let now = ctx.now();
        let t_val = nic.cpu.exec(now + POLL_NOTIFY, RPC_DISPATCH + VALIDATE);
        let greq = dfs.greq_id;
        let cap = &dfs.capability;
        if cap.verify(&self.key, now.as_ns() as u64, rights).is_err() || dfs.client != cap.holder()
        {
            self.stats.borrow_mut().auth_failures += 1;
            let ack = AckPkt::new(msg, Some(greq), Status::AuthFailed);
            self.defer(nic, ctx, t_val, AfterCpu::AckClient { dst: src, ack });
            return None;
        }
        let spans = &mut self.obs.borrow_mut().spans;
        spans.mark_corr_once(greq, phase::CPU_VALIDATED, t_val);
        self.trace
            .borrow_mut()
            .emit_from(t_val, "storage", Some(nic.node()), || {
                format!("cpu-validate greq={greq}")
            });
        Some(t_val)
    }

    /// Serial copy time left after the last packet of an inline write:
    /// the copy overlapped reception, so only the slowdown residual (plus
    /// one pipelining granule) remains.
    fn residual_copy(&self, nic: &NicCore, len: u64) -> nadfs_simnet::Dur {
        let full = nic.cpu.memcpy_cost(len);
        let wire = self.wire_bw.tx_time(len);
        let granule = nic.cpu.memcpy_cost(len.min(16 << 10));
        if full.ps() > wire.ps() {
            (full - wire) + granule
        } else {
            granule
        }
    }

    fn defer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, at: Time, what: AfterCpu) {
        let tag = TAG_BASE | self.deferred.insert(what) as u64;
        nic.set_timer(ctx, at.since(ctx.now()), tag);
    }

    /// Post `ack` to `dst`, from `after` on the CPU.
    fn post_ack(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        after: Time,
        dst: NodeId,
        ack: AckPkt,
    ) {
        let t_ack = nic.cpu.exec(after, POST_SEND);
        self.defer(nic, ctx, t_ack, AfterCpu::AckClient { dst, ack });
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_write_req(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        msg: MsgId,
        dfs: DfsHeader,
        wrh: WriteReqHeader,
        inline_data: bool,
        src_addr: u64,
        chunk_off: u32,
        full_len: u32,
        data: Bytes,
    ) {
        let Some(t_val) = self.validate(nic, ctx, src, msg, &dfs, Rights::WRITE) else {
            return;
        };
        // Every range the request names must fit in the address space:
        // the header's, the bytes it carries, and each replica's from this
        // chunk's offset on.
        let reach = chunk_off as u64 + wrh.len as u64;
        let coords_fit = match &wrh.resiliency {
            Resiliency::Replicate { coords, .. } => coords
                .iter()
                .all(|c| checked_range(c.addr, reach).is_some()),
            _ => true,
        };
        if !wrh.in_range() || data.len() > wrh.len as usize || !coords_fit {
            let ack = AckPkt::new(msg, Some(dfs.greq_id), Status::Rejected);
            self.defer(nic, ctx, t_val, AfterCpu::AckClient { dst: src, ack });
            return;
        }
        let done = AckPkt::new(msg, Some(dfs.greq_id), Status::Ok);

        if !inline_data {
            // RPC+RDMA: fetch the payload from the client with a one-sided
            // read; completion continues in `on_read_done`.
            self.stats.borrow_mut().rpc_rdma_writes += 1;
            let fetch = PendingFetch { client: src, done };
            let token = self.fetches.insert(fetch) as u64;
            self.defer(
                nic,
                ctx,
                t_val,
                AfterCpu::FetchData {
                    client: src,
                    src_addr,
                    len: wrh.len,
                    local_addr: wrh.target_addr,
                    token,
                },
            );
            return;
        }

        // Inline RPC write: copy from the receive buffer to the target.
        self.stats.borrow_mut().rpc_writes += 1;
        let copy = match &wrh.resiliency {
            // Plain buffered write: the copy pipelines with reception.
            Resiliency::None => self.residual_copy(nic, data.len() as u64),
            // Chunked replication: chunks overlap each other instead; the
            // full store + forward copies stay serial per chunk.
            _ => nic.cpu.memcpy_cost(data.len() as u64),
        };
        let t_store = nic.cpu.exec(t_val, copy);
        nic.memory().borrow_mut().write(wrh.target_addr, &data);

        match &wrh.resiliency {
            // (CPU-side EC is not one of the paper's baselines; treat as
            // a plain store.)
            Resiliency::None | Resiliency::ErasureCode(_) => {
                self.post_ack(nic, ctx, t_store, src, done);
            }
            Resiliency::Replicate {
                strategy,
                vrank,
                coords,
            } => {
                // Ack the client once every chunk of the write landed here.
                let landed = self.progress.entry(dfs.greq_id).or_insert(0);
                *landed += data.len() as u32;
                if *landed >= full_len {
                    self.progress.remove(&dfs.greq_id);
                    self.post_ack(nic, ctx, t_store, dfs.client as NodeId, done);
                }
                // Forward the chunk to our children: a second CPU copy into
                // the send staging buffer plus a post per child.
                let children = bcast_children(*strategy, *vrank, coords.len());
                for child in children {
                    self.stats.borrow_mut().chunks_forwarded += 1;
                    let copy2 = nic.cpu.memcpy_cost(data.len() as u64);
                    let t_fwd = nic.cpu.exec(t_store, copy2 + POST_SEND);
                    let child_wrh = WriteReqHeader {
                        target_addr: coords[child as usize].addr + chunk_off as u64,
                        len: data.len() as u32,
                        resiliency: Resiliency::Replicate {
                            strategy: *strategy,
                            vrank: child,
                            coords: coords.clone(),
                        },
                    };
                    let body = RpcBody::WriteReq {
                        dfs,
                        wrh: child_wrh,
                        inline_data: true,
                        src_addr: 0,
                        chunk_off,
                        full_len,
                    };
                    self.defer(
                        nic,
                        ctx,
                        t_fwd,
                        AfterCpu::ForwardChunk {
                            dst: coords[child as usize].node as NodeId,
                            body,
                            data: data.clone(),
                        },
                    );
                }
            }
        }
    }

    /// Dispatch queued RPCs, in DRR order, while service slots are free.
    /// Each holds its slot until the CPU dispatch pipeline drains past it
    /// (the deferred `ServiceDone`).
    fn admit_rpcs(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>) {
        while let Some((_, rpc)) = self.qos.as_mut().and_then(TenantScheduler::admit) {
            self.dispatch_rpc(nic, ctx, rpc.src, rpc.msg, rpc.body, rpc.data);
            // The CPU frontier after dispatching is when this request's
            // synchronous service (validate/copy/post) ends: free the
            // slot there. Zero-cost exec reads the frontier.
            let done = nic.cpu.exec(ctx.now(), Dur::ZERO);
            self.defer(nic, ctx, done, AfterCpu::ServiceDone);
        }
    }

    fn dispatch_rpc(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        msg: MsgId,
        body: RpcBody,
        data: Bytes,
    ) {
        match body {
            RpcBody::WriteReq {
                dfs,
                wrh,
                inline_data,
                src_addr,
                chunk_off,
                full_len,
            } => self.handle_write_req(
                nic,
                ctx,
                src,
                msg,
                dfs,
                wrh,
                inline_data,
                src_addr,
                chunk_off,
                full_len,
                data,
            ),
            RpcBody::ReadReq { dfs, rrh } => {
                // CPU-validated read (the RPC baseline): the CPU wakes,
                // dispatches, verifies the capability, then posts the
                // response stream through the NIC's read responder —
                // zero-copy out of the storage target.
                let Some(t_val) = self.validate(nic, ctx, src, msg, &dfs, Rights::READ) else {
                    return;
                };
                // Same protection boundary as the one-sided path: a read
                // past the address space or outside a registered region is
                // rejected, not streamed.
                if !nic.mr_ok(rrh.addr, rrh.len as u64) {
                    let ack = AckPkt::new(msg, Some(dfs.greq_id), Status::Rejected);
                    self.defer(nic, ctx, t_val, AfterCpu::AckClient { dst: src, ack });
                    return;
                }
                self.stats.borrow_mut().rpc_reads += 1;
                let t_post = nic.cpu.exec(t_val, POST_SEND);
                self.defer(
                    nic,
                    ctx,
                    t_post,
                    AfterCpu::StreamRead {
                        dst: src,
                        msg,
                        addr: rrh.addr,
                        len: rrh.len,
                    },
                );
            }
        }
    }
}

impl NicApp for StorageApp {
    fn on_rpc(
        &mut self,
        nic: &mut NicCore,
        ctx: &mut Ctx<'_>,
        src: NodeId,
        msg: MsgId,
        body: RpcBody,
        data: Bytes,
    ) {
        // Service goes through the per-tenant scheduler when QoS is on.
        let Some(qos) = self.qos.as_mut() else {
            self.dispatch_rpc(nic, ctx, src, msg, body, data);
            return;
        };
        let (tenant, cost) = match &body {
            RpcBody::WriteReq { dfs, wrh, .. } => (dfs.tenant, wrh.len.max(1) as u64),
            RpcBody::ReadReq { dfs, rrh } => (dfs.tenant, rrh.len.max(1) as u64),
        };
        qos.push(
            tenant,
            cost,
            QueuedRpc {
                src,
                msg,
                body,
                data,
            },
        );
        self.admit_rpcs(nic, ctx);
    }

    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        // RPC+RDMA data fetch completed: acknowledge the client.
        let Some(f) = self.fetches.remove(token as usize) else {
            return;
        };
        self.post_ack(nic, ctx, ctx.now(), f.client, f.done);
    }

    fn on_host_notify(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, ev: HostEvent) {
        match ev {
            HostEvent::Cleanup => self.stats.borrow_mut().cleanup_events += 1,
            HostEvent::Aggregate {
                k,
                chunk_len,
                final_addr,
                greq,
                client,
            } => {
                // The NIC staged the stripe's intermediate parities; XOR
                // the k staged buffers into the final parity chunk.
                self.stats.borrow_mut().fallback_aggregations += 1;
                let (pool, mem) = (nic.buf_pool(), nic.memory());
                let (mut mem, mut p) = (mem.borrow_mut(), pool.borrow_mut());
                let len = chunk_len as usize;
                let (mut acc, mut staged) = (p.get(len), p.get_dirty(len));
                let slot = |j| final_addr + RsScheme::staging_slot(chunk_len, j);
                for j in 0..k {
                    mem.read_into(slot(j), &mut staged);
                    nadfs_gfec::gf256::xor_slice(&staged, &mut acc);
                }
                mem.write(final_addr, &acc);
                mem.free(slot(0), slot(k) - slot(0));
                p.put(staged);
                p.put(acc);
                let now = ctx.now();
                let xor_cost = nic.cpu.memcpy_cost(k as u64 * chunk_len as u64);
                let t = nic.cpu.exec(now + POLL_NOTIFY, xor_cost + POST_SEND);
                let msg = MsgId::new(nic.node() as u32, greq);
                let ack = AckPkt::new(msg, Some(greq), Status::Ok);
                self.defer(nic, ctx, t, AfterCpu::AckClient { dst: client, ack });
            }
        }
    }

    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        // (A tag that is not `TAG_BASE | slot` names no slot.)
        let Some(what) = self.deferred.remove((tag ^ TAG_BASE) as usize) else {
            return;
        };
        match what {
            AfterCpu::AckClient { dst, ack } => {
                nic.send_ack(ctx, dst, ack);
            }
            AfterCpu::ForwardChunk { dst, body, data } => {
                nic.send_rpc(ctx, dst, body, data);
            }
            AfterCpu::FetchData {
                client,
                src_addr,
                len,
                local_addr,
                token,
            } => {
                let rrh = ReadReqHeader {
                    addr: src_addr,
                    len,
                };
                nic.send_read(ctx, client, rrh, None, local_addr, token);
            }
            AfterCpu::StreamRead {
                dst,
                msg,
                addr,
                len,
            } => {
                nic.respond_read(ctx, dst, msg, addr, len);
            }
            AfterCpu::ServiceDone => {
                if let Some(q) = self.qos.as_mut() {
                    q.release();
                }
                self.admit_rpcs(nic, ctx);
            }
        }
    }
}
