//! The client's op table from the outside: a write in `Busy` back-off
//! keeps its window slot, events for an op that already retired are
//! ignored, a finished read or RPC+RDMA write leaves nothing in client
//! memory, a metadata-cache hit queues no one behind a shard, and an
//! `FsClient` op's completion is kept nowhere but in its slot.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use nadfs_core::client::{SharedPlan, SharedResults, KICK};
use nadfs_core::control::SharedControl;
use nadfs_core::{
    ClientApp, ClusterSpec, ControlPlane, CostModel, FilePolicy, FsClient, Job, LayoutSpec, MetaOp,
    ReadProtocol, ResultSink, SimCluster, StorageApp, StorageMode, WriteProtocol,
};
use nadfs_host::{SharedMemory, POLL_NOTIFY};
use nadfs_rdma::{Nic, NicApp, NicCore};
use nadfs_simnet::{ComponentId, Ctx, Dur, Engine, Fabric, NodeId, ObsHub, Time};
use nadfs_wire::{AckPkt, Frame, Status};

/// Four clients at window 2 against one storage NIC with two descriptors:
/// `Busy` NACKs are certain. A write waiting out its back-off is still one
/// of its client's two — the next completion must not pull a third job in.
///
/// Occupancy is read off the op spans, not `WriteResult.start`: a retried
/// write's recorded start is its last issue, while its span covers the
/// whole job, back-offs included. A slot is free from the ack on, one
/// completion poll before the op's recorded end.
#[test]
fn busy_backoff_holds_its_window_slot() {
    let mut cost = CostModel::paper();
    cost.pspin_state_bytes = cost.pspin.total_mem_bytes() - 2 * 77;
    let spec = ClusterSpec::new(4, 1, StorageMode::Spin)
        .with_cost(cost)
        .with_window(2);
    let mut c = SimCluster::build(spec);
    let file = c.control.borrow_mut().create_file(0, FilePolicy::Plain).id;
    for client in 0..4 {
        for i in 0..8u64 {
            let job = Job::Write {
                file,
                size: 256 << 10,
                protocol: WriteProtocol::Spin,
                seed: (client as u64) << 8 | i,
            };
            c.submit(client, job);
        }
    }
    c.start();
    assert_eq!(c.run_until_writes(32, 20_000), 32, "retries must converge");
    let results = c.results.borrow();
    assert!(results.writes.iter().all(|w| w.status == Status::Ok));
    let retries: u32 = results.writes.iter().map(|w| w.retries).sum();
    assert!(retries > 0, "the tiny descriptor budget must force retries");
    let obs = c.obs.borrow();
    for client in &c.client_nodes {
        let track = format!("client-{client}");
        let jobs: Vec<_> = obs.spans.done().filter(|s| s.track == track).collect();
        assert_eq!(jobs.len(), 8, "one span per job on {track}");
        let held_at = |t: Time| {
            jobs.iter()
                .filter(move |s| s.start <= t && t + POLL_NOTIFY < s.end)
        };
        let peak = jobs.iter().map(|s| held_at(s.start).count()).max();
        assert_eq!(peak, Some(2), "{track} must fill, never overfill, window 2");
    }
}

/// Timer tag that makes the probe replay stale events into the client
/// (above every op id the client hands out here).
const INJECT: u64 = 1 << 32;

/// Forwards everything to the client it wraps, remembers every ack, and on
/// [`INJECT`] hands the client events no live op is waiting for.
struct Probe {
    client: ClientApp,
    acks: Vec<(NodeId, AckPkt)>,
}

impl NicApp for Probe {
    fn on_ack(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, src: NodeId, ack: AckPkt) {
        self.acks.push((src, ack));
        self.client.on_ack(nic, ctx, src, ack);
    }

    fn on_read_done(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, token: u64) {
        self.client.on_read_done(nic, ctx, token);
    }

    fn on_timer(&mut self, nic: &mut NicCore, ctx: &mut Ctx<'_>, tag: u64) {
        if tag != INJECT {
            return self.client.on_timer(nic, ctx, tag);
        }
        // Every ack the client ever saw, again — as it came, and as the
        // NACKs that would restart or fail a live write.
        for &(src, ack) in &self.acks.clone() {
            for status in [ack.status, Status::Busy, Status::Rejected] {
                self.client.on_ack(nic, ctx, src, AckPkt { status, ..ack });
            }
        }
        // Ids are handed out from 1 and never reused: everything the
        // finished ops were known by, as a read-done token and as a timer.
        for id in 1..256 {
            self.client.on_read_done(nic, ctx, id);
            self.client.on_timer(nic, ctx, id);
        }
    }
}

struct Rig {
    engine: Engine,
    client: ComponentId,
    plan: SharedPlan,
    results: SharedResults,
}

impl Rig {
    /// Submit `jobs`, kick the client and run until the queue drains.
    fn run(&mut self, jobs: Vec<Job>) {
        self.plan.borrow_mut().extend(jobs);
        self.kick(KICK);
    }

    fn kick(&mut self, tag: u64) {
        let timer = Nic::timer_token(tag);
        self.engine.wake(Dur::ZERO, self.client, timer);
        let deadline = self.engine.now() + Dur::from_ms(50);
        assert!(self.engine.run_until(deadline), "the simulation must drain");
    }

    /// Completions delivered so far, per kind.
    fn delivered(&self) -> [usize; 4] {
        let r = self.results.borrow();
        [
            r.writes.len(),
            r.file_reads.len(),
            r.reads.len(),
            r.metas.len(),
        ]
    }
}

/// One client (inside a [`Probe`], with live spans so the op table's leak
/// check also covers correlations, and `tweak` applied) and one storage
/// node on one fabric. Also hands back the control plane and the client
/// NIC's host memory.
fn probe_rig(
    cost: &CostModel,
    tweak: impl FnOnce(&mut ClientApp),
) -> (Rig, SharedControl, SharedMemory) {
    let mut engine = Engine::new();
    let [fabric_id, client_id, storage_id] = [(); 3].map(|()| engine.reserve_id());
    let mut fabric: Fabric<Frame> = Fabric::new(cost.fabric.clone(), fabric_id);
    let client_port = fabric.register_node(client_id, None);
    let storage_port = fabric.register_node(storage_id, None);
    engine.install(fabric_id, Box::new(fabric));
    let control = ControlPlane::new(7, vec![storage_port.node]);
    let key = control.borrow().service_key();
    let results: SharedResults = Rc::new(RefCell::new(ResultSink::default()));
    let plan: SharedPlan = Rc::new(RefCell::new(VecDeque::new()));
    let mut client = ClientApp::new(control.clone(), results.clone(), plan.clone(), 1);
    client.obs = ObsHub::new(64);
    tweak(&mut client);
    let probe = Probe {
        client,
        acks: Vec::new(),
    };
    let nic = Nic::new(cost.nic.clone(), client_port, client_id, Box::new(probe));
    let client_mem = nic.core.memory();
    engine.install(client_id, Box::new(nic));
    let storage = StorageApp::new(key, cost.fabric.link_bw);
    let mut nic = Nic::new(
        cost.nic.clone(),
        storage_port,
        storage_id,
        Box::new(storage),
    );
    nic.core.install_service_key(key);
    engine.install(storage_id, Box::new(nic));
    let rig = Rig {
        engine,
        client: client_id,
        plan,
        results,
    };
    (rig, control, client_mem)
}

/// An ack, a read-done token and a timer that arrive after their op
/// retired (the "ack after cleanup-driven completion" case) find nothing:
/// no panic, no second completion, and the window neither gains nor loses
/// a slot.
#[test]
fn stale_events_for_a_retired_op_are_ignored() {
    let cost = CostModel::paper();
    let (mut rig, control, _) = probe_rig(&cost, |_| {});

    // One op of every kind runs to completion and retires.
    let file = control.borrow_mut().create_file(0, FilePolicy::Plain).id;
    let write = |protocol, seed| Job::Write {
        file,
        size: 48 << 10,
        protocol,
        seed,
    };
    let read = |token| Job::Read {
        file,
        offset: 0,
        len: 32 << 10,
        protocol: ReadProtocol::Rdma,
        token,
        slot: None,
    };
    // The second read is served from the cache the first one filled.
    rig.run(vec![
        write(WriteProtocol::Raw, 1),
        write(WriteProtocol::Rpc, 2),
        read(1),
        read(2),
    ]);
    let stored = rig.results.borrow().writes[0].placement.primary;
    let raw_read = Job::RawRead {
        node: stored.node as NodeId,
        addr: stored.addr,
        len: 4 << 10,
        token: 9,
    };
    let mkdir = Job::Meta {
        op: MetaOp::Mkdir {
            path: "/d".to_string(),
        },
        token: 3,
    };
    rig.run(vec![raw_read, mkdir]);
    let before = rig.delivered();
    assert_eq!(before, [2, 2, 1, 1], "every kind of op completed once");
    let cached: Vec<bool> = rig
        .results
        .borrow()
        .file_reads
        .iter()
        .map(|r| r.from_cache)
        .collect();
    assert_eq!(cached, [false, true], "a wire read and a cache hit");

    rig.kick(INJECT);
    assert_eq!(rig.delivered(), before, "a stale event completed something");

    // The window (1) still holds exactly one op at a time: each write
    // starts the instant its predecessor is acknowledged, one completion
    // poll before the predecessor's recorded end.
    rig.run((3..6).map(|seed| write(WriteProtocol::Rpc, seed)).collect());
    let results = rig.results.borrow();
    assert_eq!(results.writes.len(), 5);
    assert!(results.writes.iter().all(|w| w.status == Status::Ok));
    for pair in results.writes[2..].windows(2) {
        assert_eq!(pair[1].start + POLL_NOTIFY, pair[0].end);
    }
}

/// A read lands in a fresh client-memory window; once the read completes
/// the window is given back (its bytes live on in the completion), so
/// uncached reads leave no trace however many run.
#[test]
fn finished_reads_give_their_client_memory_back() {
    let cost = CostModel::paper();
    let (mut rig, control, client_mem) = probe_rig(&cost, |c| c.read_cache_enabled = false);
    let file = control.borrow_mut().create_file(0, FilePolicy::Plain).id;
    let len = 48 << 10;
    rig.run(vec![Job::Write {
        file,
        size: len,
        protocol: WriteProtocol::Raw,
        seed: 1,
    }]);
    let reads = (0..64u64).map(|token| Job::Read {
        file,
        offset: 0,
        len,
        protocol: ReadProtocol::Rdma,
        token,
        slot: None,
    });
    rig.run(reads.collect());
    let results = rig.results.borrow();
    assert_eq!(results.file_reads.len(), 64);
    assert!(results
        .file_reads
        .iter()
        .all(|r| r.status == Status::Ok && !r.from_cache));
    assert_eq!(
        client_mem.borrow().resident_pages(),
        0,
        "read windows leaked"
    );
}

/// An RPC+RDMA write stages each extent in client memory for the storage
/// CPU's one-sided read; once the write retires the region is given back.
#[test]
fn rpc_rdma_writes_give_their_staging_back() {
    let cost = CostModel::paper();
    let (mut rig, control, client_mem) = probe_rig(&cost, |_| {});
    let file = control.borrow_mut().create_file(0, FilePolicy::Plain).id;
    let before = client_mem.borrow().resident_pages();
    let writes = (0..8u64).map(|seed| Job::Write {
        file,
        size: 48 << 10,
        protocol: WriteProtocol::RpcRdma,
        seed,
    });
    rig.run(writes.collect());
    let results = rig.results.borrow();
    assert_eq!(results.writes.len(), 8);
    assert!(results.writes.iter().all(|w| w.status == Status::Ok));
    assert_eq!(
        client_mem.borrow().resident_pages(),
        before,
        "staging regions leaked"
    );
}

/// A lookup served from the metadata cache routes nothing, so it admits
/// nothing: the route another client's write left behind (placement and
/// commit are never admitted) must not occupy its shard. A routed op
/// issued beside the hit then finds the shard idle.
#[test]
fn a_metadata_cache_hit_occupies_no_shard() {
    let mut cl = SimCluster::build(ClusterSpec::new(2, 1, StorageMode::Plain).with_window(2));
    let file = {
        let mut control = cl.control.borrow_mut();
        control.mkdir_p("/d", 0).expect("mkdir");
        let created = control.create_file_at("/d/f", LayoutSpec::SINGLE, FilePolicy::Plain);
        created.expect("create").id
    };
    let lookup = |token| Job::Meta {
        op: MetaOp::Lookup {
            path: "/d/f".to_string(),
        },
        token,
    };
    // Client 0 caches the entry; client 1 then writes the file.
    cl.submit(0, lookup(1));
    cl.start();
    assert_eq!(cl.run_until_metas(1, 1_000), 1);
    let write = Job::Write {
        file,
        size: 4096,
        protocol: WriteProtocol::Raw,
        seed: 1,
    };
    cl.submit(1, write);
    cl.start();
    assert_eq!(cl.run_until_writes(1, 1_000), 1);

    // The hit and a readdir of the same (only) shard, issued together.
    let control = cl.control.clone();
    let waited = || control.borrow().shard_stats()[0].queue_wait_ps;
    let before = waited();
    cl.submit(0, lookup(2));
    let readdir = MetaOp::Readdir {
        path: "/d".to_string(),
    };
    cl.submit(
        0,
        Job::Meta {
            op: readdir,
            token: 3,
        },
    );
    cl.start();
    assert_eq!(cl.run_until_metas(3, 1_000), 3);
    let results = cl.results.borrow();
    let (hit, listed) = (&results.metas[1], &results.metas[2]);
    assert!(hit.cache_hit && !listed.cache_hit);
    assert_eq!(hit.start, listed.start, "issued together");
    assert_eq!(waited(), before, "the readdir queued behind the hit");
    assert_eq!(listed.end, listed.start + nadfs_core::config::CONTROL_RTT);
}

/// An `FsClient` op completes into its own slot only: however many ops
/// run, the shared result sink, which nothing drains in an `FsClient`
/// run, stays empty. (It used to keep a copy of every completion, a
/// read's payload included, for the cluster's life.)
#[test]
fn fs_client_ops_leave_the_result_sink_empty() {
    let cluster = SimCluster::build(ClusterSpec::new(1, 3, StorageMode::Spin));
    let mut fsc = FsClient::new(cluster);
    fsc.mkdir_p("/sink").expect("mkdir");
    let h = fsc
        .create("/sink/f", LayoutSpec::striped(3, 4096))
        .expect("create");
    let data = vec![0x5A; 10_000];
    for i in 0..8u64 {
        fsc.write_at(&h, i * 10_000, &data).expect("write");
        let r = fsc.read_at(&h, i * 10_000, 10_000).expect("read");
        assert_eq!(r.data.as_ref(), &data[..]);
    }
    let sink = fsc.cluster.results.borrow();
    let kept = [sink.writes.len(), sink.file_reads.len()];
    assert_eq!(kept, [0, 0], "completions kept in the shared sink");
}
