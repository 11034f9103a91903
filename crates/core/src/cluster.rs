//! Cluster assembly: wire clients, storage nodes, the fabric, and the
//! control plane into a runnable simulation.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use nadfs_host::{DmaEngine, SharedMemory};
use nadfs_pspin::{ExecutionContext, Telemetry};
use nadfs_rdma::{Nic, SharedNicStats};
use nadfs_simnet::telemetry::StatsOut;
use nadfs_simnet::{
    BufPool, ComponentId, CreditConfig, Dur, Engine, Fabric, FabricStats, FlowStats,
    MetricsSnapshot, NodeId, NodePort, ObsHub, PacketPool, SharedBufPool, SharedFlowStats,
    SharedObs, SharedPacketPool, SharedTenantLedgers, SharedTrace, TenantId, TenantLedger,
    TenantScheduler, Trace, DEFAULT_MAX_RETAINED_BYTES, TENANT_REPAIR,
};
use nadfs_wire::sizes::WRITE_DESCRIPTOR;
use nadfs_wire::{Frame, MacKey};

use crate::client::{ClientApp, Job, ResultSink, SharedPlan, SharedResults, KICK};
use crate::config::CostModel;
use crate::control::{ControlPlane, SharedControl};
use crate::handlers::DfsNicState;
use crate::storage::{SharedStorageStats, StorageApp};

/// How storage-node NICs are provisioned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageMode {
    /// Conventional RDMA NIC; policies (if any) run on the CPU.
    Plain,
    /// PsPIN installed with the DFS execution context (sPIN protocols).
    Spin,
    /// Conventional NIC with the INEC-style firmware EC engine.
    FirmwareEc,
}

/// Cluster blueprint.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub n_clients: usize,
    pub(crate) n_storage: usize,
    pub(crate) mode: StorageMode,
    pub cost: CostModel,
    /// Outstanding requests each client keeps in flight.
    pub(crate) client_window: usize,
    /// NIC accumulator pool entries for EC aggregation (§VI-B-3).
    pub(crate) accumulator_pool: usize,
    /// Build with live observability (op spans, metrics hub, trace ring)
    /// wired through every component. On by default: everything is
    /// bounded (span/trace rings) and costs one branch per op when idle.
    pub(crate) observability: bool,
    /// Enable DES-engine dispatch profiling (host wall-clock per handler;
    /// off by default because it perturbs wall-clock benchmarks).
    pub(crate) engine_profiling: bool,
    /// Flow control budgets + per-tenant QoS.
    pub(crate) qos: QosConfig,
    /// Metadata shards in the control plane (hash-partitioned namespace
    /// + extent maps; 1 = the unsharded seed behavior).
    pub(crate) meta_shards: usize,
}

/// Per-tenant QoS at the storage nodes: deficit-round-robin service of
/// RPC dispatch and DFS read streams, weighted by tenant. Disabled by
/// default (first-come service, the pre-QoS behavior); the credit-based
/// WR flow control on every NIC is always on and configured by `credit`.
/// A tenant `weights` does not name weighs 1, the repair pseudo-tenant
/// ([`TENANT_REPAIR`]) included.
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// Turn on the per-tenant schedulers at storage nodes.
    pub enabled: bool,
    /// Per-peer WR budgets for every NIC's credit layer.
    pub credit: CreditConfig,
    /// Concurrently serviced RPCs per storage node.
    pub rpc_concurrency: usize,
    /// DRR quantum in cost units (bytes) per visit at weight 1.
    pub quantum: u64,
    /// Explicit per-tenant weight overrides.
    pub weights: Vec<(TenantId, u32)>,
}

impl Default for QosConfig {
    fn default() -> QosConfig {
        QosConfig {
            enabled: false,
            credit: CreditConfig::default(),
            rpc_concurrency: 8,
            quantum: 64 << 10,
            weights: Vec::new(),
        }
    }
}

/// Concurrent DFS read response streams per storage NIC under QoS.
const READ_STREAMS: usize = 8;

/// Completed-span ring capacity for clusters built with observability.
const SPAN_CAP: usize = 4096;
/// Trace-ring capacity for clusters built with observability.
const TRACE_CAP: usize = 8192;

impl ClusterSpec {
    pub fn new(n_clients: usize, n_storage: usize, mode: StorageMode) -> ClusterSpec {
        ClusterSpec {
            n_clients,
            n_storage,
            mode,
            cost: CostModel::paper(),
            client_window: 1,
            accumulator_pool: 512,
            observability: true,
            engine_profiling: false,
            qos: QosConfig::default(),
            meta_shards: 1,
        }
    }

    pub fn with_cost(mut self, cost: CostModel) -> ClusterSpec {
        self.cost = cost;
        self
    }

    pub fn with_window(mut self, w: usize) -> ClusterSpec {
        self.client_window = w;
        self
    }

    pub fn with_accumulator_pool(mut self, n: usize) -> ClusterSpec {
        self.accumulator_pool = n;
        self
    }

    pub fn with_observability(mut self, on: bool) -> ClusterSpec {
        self.observability = on;
        self
    }

    pub fn with_engine_profiling(mut self) -> ClusterSpec {
        self.engine_profiling = true;
        self
    }

    pub fn with_qos(mut self, qos: QosConfig) -> ClusterSpec {
        self.qos = qos;
        self
    }

    pub fn with_meta_shards(mut self, n: usize) -> ClusterSpec {
        self.meta_shards = n;
        self
    }
}

/// What every node of a cluster shares: one payload-buffer ring and one
/// packet-box pool, and the observability hub and trace ring.
#[derive(Clone)]
pub struct NodeShared {
    bufs: SharedBufPool,
    pkts: SharedPacketPool<Frame>,
    obs: SharedObs,
    trace: SharedTrace,
}

impl NodeShared {
    /// What the nodes of a cluster built per `spec` share: live hubs if
    /// it has observability, disabled ones if not. With per-NIC pools,
    /// nodes that only consume buffers (parity nodes, ring tails) would
    /// overflow theirs while the nodes that only produce (data nodes,
    /// clients) allocate every time. The buffer ring's caps (limits, not
    /// reservations) cover each NIC's packet ring plus its accumulator
    /// budget.
    pub fn new(spec: &ClusterSpec) -> NodeShared {
        let (obs, trace) = if spec.observability {
            (ObsHub::new(SPAN_CAP), Trace::new(TRACE_CAP))
        } else {
            (ObsHub::disabled(), Trace::disabled())
        };
        let n_nics = spec.n_clients + spec.n_storage;
        let bufs = Rc::new(RefCell::new(BufPool::with_byte_cap(
            n_nics * (256 + spec.accumulator_pool),
            4 * DEFAULT_MAX_RETAINED_BYTES,
        )));
        NodeShared {
            bufs,
            pkts: PacketPool::shared(),
            obs,
            trace,
        }
    }
}

/// The handles a cluster keeps of a storage node once its NIC is
/// installed.
pub struct StorageHandles {
    pub mem: SharedMemory,
    pub(crate) dma: Rc<RefCell<DmaEngine>>,
    pub stats: SharedStorageStats,
    pub nic_stats: SharedNicStats,
    pub(crate) flow_stats: SharedFlowStats,
    pub(crate) pspin_telemetry: Option<Rc<RefCell<Telemetry>>>,
    /// The ledgers of its QoS schedulers (RPC service, then read
    /// streams); none without QoS.
    pub(crate) tenant_ledgers: Vec<SharedTenantLedgers>,
}

/// A storage node: the storage software on a NIC bound to `port`, to be
/// installed as component `id`, provisioned per `spec`'s mode, cost,
/// accumulator pool and QoS. Every storage NIC authenticates DFS-level
/// read requests against the service `key` before a byte leaves the node
/// (one-sided reads never touch the CPU), and answers header-less reads
/// from its storage `peers` only. A `Spin` node runs the DFS execution
/// context on PsPIN: the handlers, `spec.cost.pspin_state_bytes` of
/// DFS-wide state and one write descriptor per open request (§III-B).
pub fn storage_node(
    spec: &ClusterSpec,
    key: MacKey,
    peers: Vec<NodeId>,
    port: NodePort,
    id: ComponentId,
    shared: &NodeShared,
) -> (Nic, StorageHandles) {
    let mut app = StorageApp::new(key, spec.cost.fabric.link_bw);
    app.obs = shared.obs.clone();
    app.trace = shared.trace.clone();
    let stats = app.stats.clone();
    let mut tenant_ledgers = Vec::new();
    let qos = &spec.qos;
    if qos.enabled {
        let q = TenantScheduler::new(qos.quantum, &qos.weights, qos.rpc_concurrency);
        tenant_ledgers.push(q.ledgers_handle());
        app.qos = Some(q);
    }
    let mut nic = Nic::new(spec.cost.nic.clone(), port, id, Box::new(app));
    let core = &mut nic.core;
    core.share_pools(shared.bufs.clone(), shared.pkts.clone());
    core.set_credit_config(qos.credit);
    if qos.enabled {
        tenant_ledgers.push(core.install_read_qos(qos.quantum, &qos.weights, READ_STREAMS));
    }
    core.obs = shared.obs.clone();
    core.trace = shared.trace.clone();
    core.install_service_key(key, peers);
    match spec.mode {
        StorageMode::Plain => {}
        StorageMode::Spin => {
            // The handlers share the NIC's buffer ring so
            // accumulator/parity buffers recycle through the device.
            let handlers = DfsNicState::new(
                key,
                spec.accumulator_pool,
                core.buf_pool(),
                core.nic_stats(),
                shared.obs.clone(),
                shared.trace.clone(),
                core.node(),
            );
            let context = ExecutionContext {
                handlers: Box::new(handlers),
                state_bytes: spec.cost.pspin_state_bytes,
                descriptor_bytes: WRITE_DESCRIPTOR,
            };
            core.install_pspin(spec.cost.pspin.clone(), context);
        }
        StorageMode::FirmwareEc => core.enable_firmware_ec(),
    }
    let handles = StorageHandles {
        mem: core.memory(),
        dma: core.dma(),
        stats,
        nic_stats: core.nic_stats(),
        flow_stats: core.flow_stats(),
        pspin_telemetry: core.pspin().map(|d| d.telemetry()),
        tenant_ledgers,
    };
    (nic, handles)
}

/// A built, runnable cluster.
pub struct SimCluster {
    pub engine: Engine,
    pub control: SharedControl,
    pub results: SharedResults,
    pub spec: ClusterSpec,
    /// Fabric node ids: clients are `0..n_clients`, storage follows.
    pub client_nodes: Vec<NodeId>,
    pub storage_nodes: Vec<NodeId>,
    client_components: Vec<ComponentId>,
    pub plans: Vec<SharedPlan>,
    pub storage_mems: Vec<SharedMemory>,
    /// Per-storage-NIC DMA engines (index-aligned with `storage_nodes`):
    /// byte, op and channel-occupancy counters.
    pub storage_dmas: Vec<Rc<RefCell<DmaEngine>>>,
    pub storage_stats: Vec<SharedStorageStats>,
    /// Per-client metadata caches (index-aligned with `client_nodes`).
    pub client_caches: Vec<Rc<RefCell<nadfs_meta::MetaCache>>>,
    /// Per-client read caches (index-aligned with `client_nodes`).
    pub read_caches: Vec<Rc<RefCell<crate::cache::ReadCache>>>,
    /// Per-client read-path counters (index-aligned with `client_nodes`).
    pub client_read_stats: Vec<crate::client::SharedClientReadStats>,
    /// Per-storage-NIC gather/offload counters (index-aligned with
    /// `storage_nodes`).
    pub nic_stats: Vec<SharedNicStats>,
    /// Flow-control counters for every NIC (clients then storage, in
    /// fabric-node order).
    pub flow_stats: Vec<SharedFlowStats>,
    /// Every distinct payload-buffer pool in the cluster, each once —
    /// long-horizon harnesses audit these for leak/boundedness at
    /// checkpoints, benchmarks sum their counters. All NICs draw from one
    /// shared pool (a host-side artefact, not a modelled resource), so
    /// this holds exactly that pool.
    pub buf_pools: Vec<nadfs_simnet::SharedBufPool>,
    /// Per-tenant service ledgers of every QoS scheduling point (storage
    /// read streams + storage RPC service); empty when QoS is off.
    pub(crate) tenant_ledgers: Vec<SharedTenantLedgers>,
    /// Per-client tenant-id cells (index-aligned with `client_nodes`):
    /// `None` = the client's node id. Set via [`crate::fs::FsClient`] or
    /// [`Self::set_client_tenant`] to group clients into tenants.
    pub(crate) client_tenants: Vec<Rc<std::cell::Cell<Option<TenantId>>>>,
    pub pspin_telemetry: Vec<Option<Rc<RefCell<Telemetry>>>>,
    pub fabric_stats: Rc<RefCell<FabricStats>>,
    /// Shared observability hub (op spans + metrics); disabled when the
    /// spec opted out.
    pub obs: SharedObs,
    /// Shared trace ring (instant annotations from every component).
    pub trace: SharedTrace,
}

impl SimCluster {
    /// Build a cluster per `spec`. Client i's node id equals i, which is
    /// also the DFS client id carried in capabilities.
    pub fn build(spec: ClusterSpec) -> SimCluster {
        Self::build_with(spec, |_| {})
    }

    /// Build, with a hook to customize each client app before installation
    /// (e.g. forged capabilities or abandoned writes for failure tests).
    pub fn build_with<F: FnMut(&mut ClientApp)>(spec: ClusterSpec, mut tweak: F) -> SimCluster {
        let mut engine = Engine::new();
        if spec.engine_profiling {
            engine.enable_profiling();
        }
        let shared = NodeShared::new(&spec);
        let fid = engine.reserve_id();
        let client_components: Vec<_> = (0..spec.n_clients).map(|_| engine.reserve_id()).collect();
        let storage_components: Vec<_> = (0..spec.n_storage).map(|_| engine.reserve_id()).collect();

        let mut fab: Fabric<Frame> = Fabric::new(spec.cost.fabric.clone(), fid);
        let client_ports: Vec<_> = client_components
            .iter()
            .map(|&c| fab.register_node(c, None))
            .collect();
        let storage_ports: Vec<_> = storage_components
            .iter()
            .map(|&c| {
                let ingress = match spec.mode {
                    StorageMode::Spin => Some(spec.cost.pspin.pktbuf_slots),
                    _ => None,
                };
                fab.register_node(c, ingress)
            })
            .collect();
        let fabric_stats = fab.stats();
        engine.install(fid, Box::new(fab));

        let client_nodes: Vec<NodeId> = client_ports.iter().map(|p| p.node).collect();
        let storage_nodes: Vec<NodeId> = storage_ports.iter().map(|p| p.node).collect();
        let control = ControlPlane::new_sharded(0xD15C, storage_nodes.clone(), spec.meta_shards);
        let key = control.borrow().service_key();

        let results: SharedResults = Rc::new(RefCell::new(ResultSink::default()));
        let mut plans = Vec::new();
        let mut client_caches = Vec::new();
        let mut read_caches = Vec::new();
        let mut client_read_stats = Vec::new();
        let mut client_tenants = Vec::new();
        let mut flow_stats = Vec::new();
        for (&comp, port) in client_components.iter().zip(client_ports) {
            let plan: SharedPlan = Rc::new(RefCell::new(VecDeque::new()));
            plans.push(plan.clone());
            let mut app =
                ClientApp::new(control.clone(), results.clone(), plan, spec.client_window);
            app.obs = shared.obs.clone();
            app.trace = shared.trace.clone();
            tweak(&mut app);
            client_caches.push(app.meta_cache.clone());
            read_caches.push(app.read_cache.clone());
            client_read_stats.push(app.read_stats.clone());
            client_tenants.push(app.tenant.clone());
            let mut nic = Nic::new(spec.cost.nic.clone(), port, comp, Box::new(app));
            nic.core
                .share_pools(shared.bufs.clone(), shared.pkts.clone());
            nic.core.set_credit_config(spec.qos.credit);
            flow_stats.push(nic.core.flow_stats());
            engine.install(comp, Box::new(nic));
        }

        let mut storage_mems = Vec::new();
        let mut storage_dmas = Vec::new();
        let mut storage_stats = Vec::new();
        let mut pspin_telemetry = Vec::new();
        let mut nic_stats = Vec::new();
        let mut tenant_ledgers = Vec::new();
        for (&comp, port) in storage_components.iter().zip(storage_ports) {
            let (nic, node) = storage_node(&spec, key, storage_nodes.clone(), port, comp, &shared);
            storage_mems.push(node.mem);
            storage_dmas.push(node.dma);
            storage_stats.push(node.stats);
            pspin_telemetry.push(node.pspin_telemetry);
            nic_stats.push(node.nic_stats);
            flow_stats.push(node.flow_stats);
            tenant_ledgers.extend(node.tenant_ledgers);
            engine.install(comp, Box::new(nic));
        }

        SimCluster {
            engine,
            control,
            results,
            spec,
            client_nodes,
            storage_nodes,
            client_components,
            plans,
            storage_mems,
            storage_dmas,
            storage_stats,
            client_caches,
            read_caches,
            client_read_stats,
            nic_stats,
            flow_stats,
            buf_pools: vec![shared.bufs],
            tenant_ledgers,
            client_tenants,
            pspin_telemetry,
            fabric_stats,
            obs: shared.obs,
            trace: shared.trace,
        }
    }

    /// Group client `i` into tenant `t` for QoS scheduling (default:
    /// every client is its own tenant, id = node id).
    pub fn set_client_tenant(&self, i: usize, t: TenantId) {
        self.client_tenants[i].set(Some(t));
    }

    /// One coherent metrics snapshot: the op-span series already in the
    /// hub, plus every component's stats. Each stats struct declares its
    /// keys beside its fields ([`nadfs_simnet::declare_stats!`]); this
    /// walk gives the prefixes: `storage.<i>.*` (`StorageStats` and the
    /// plane's `NodeLedger`), `client.<i>.{meta_cache,read_cache,read}.*`,
    /// `nic.<i>.{gather,write,read,ec,dma}.*`, `pspin.<i>.*` and the
    /// cluster-wide `pspin.descriptor_peak_bytes`, `repair.*`,
    /// `meta.shard.<i>.*`, `flow.*` and `tenant.*` (summed over every NIC
    /// and scheduling point), `fabric.*`, `engine.*` and `spans.*`.
    /// Stable schema [`nadfs_simnet::SNAPSHOT_SCHEMA`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut hub = self.obs.borrow_mut();
        let ObsHub { spans, metrics } = &mut *hub;
        metrics.counter_set("engine.events_dispatched", self.engine.events_dispatched());
        metrics.counter_set("engine.order_digest", self.engine.order_digest());
        metrics.gauge_set("spans.open", spans.open_count() as f64);
        metrics.gauge_set("spans.done", spans.done_count() as f64);
        metrics.gauge_set("spans.dropped", spans.dropped() as f64);
        // The one un-indexed pspin gauge is the cluster's: the largest
        // descriptor footprint any storage NIC reached.
        let telemetry = self.pspin_telemetry.iter().flatten();
        if let Some(peak) = telemetry.map(|t| t.borrow().descriptor_peak_bytes).max() {
            metrics.gauge_set("pspin.descriptor_peak_bytes", peak as f64);
        }
        let mut out = StatsOut::new(metrics);
        let control = self.control.borrow();
        let clients = self.client_caches.iter().zip(&self.read_caches);
        for (i, ((meta, read), stats)) in clients.zip(&self.client_read_stats).enumerate() {
            out.put(format_args!("client.{i}.meta_cache"), &meta.borrow().stats);
            out.put(format_args!("client.{i}.read_cache"), &read.borrow().stats);
            out.put(format_args!("client.{i}.read"), &*stats.borrow());
        }
        for (i, ledger) in control.node_ledgers().enumerate() {
            let node = self.storage_stats[i].borrow();
            out.put(format_args!("storage.{i}"), &*node);
            out.put(format_args!("storage.{i}"), &ledger);
            out.put(format_args!("nic.{i}"), &*self.nic_stats[i].borrow());
            // Occupancy of the NIC's serial resources: a busy figure near
            // the run's length names the bottleneck.
            out.put(format_args!("nic.{i}.dma"), &*self.storage_dmas[i].borrow());
            if let Some(t) = &self.pspin_telemetry[i] {
                out.put(format_args!("pspin.{i}"), &*t.borrow());
            }
        }
        out.put("repair", &control.repair_queue.stats);
        let lens = control.shard_log_lens();
        for (i, s) in control.shard_stats().iter().enumerate() {
            out.put(format_args!("meta.shard.{i}"), s);
            out.gauge(&["log_len"], lens[i] as u64);
        }
        let mut flow = FlowStats::default();
        for h in &self.flow_stats {
            flow += &*h.borrow();
        }
        out.put("flow", &flow);
        let mut by_tenant = BTreeMap::<TenantId, TenantLedger>::new();
        for h in &self.tenant_ledgers {
            for (&t, l) in h.borrow().iter() {
                *by_tenant.entry(t).or_default() += l;
            }
        }
        for (t, l) in by_tenant {
            match t {
                TENANT_REPAIR => out.put("tenant.repair", &l),
                _ => out.put(format_args!("tenant.{t}"), &l),
            }
        }
        out.put("fabric", &*self.fabric_stats.borrow());
        for p in self.engine.profiles_by_kind() {
            out.put(format_args!("engine.kind.{}", p.name), &p);
        }
        metrics.snapshot()
    }

    /// Export completed spans + the trace ring as Chrome trace-event JSON
    /// (loadable in Perfetto / `chrome://tracing`).
    pub(crate) fn export_chrome_trace(&self) -> String {
        let hub = self.obs.borrow();
        nadfs_simnet::telemetry::chrome_trace_json(hub.spans.done(), &self.trace.borrow())
    }

    /// Queue a job on client `i`'s plan.
    pub fn submit(&self, client: usize, job: Job) {
        self.plans[client].borrow_mut().push_back(job);
    }

    /// Kick every client's driver at `t = now`.
    pub fn start(&mut self) {
        for &comp in &self.client_components {
            self.engine.wake(Dur::ZERO, comp, Nic::timer_token(KICK));
        }
    }

    /// Drive the engine in 50 µs slices until `done` holds, `deadline_ms`
    /// of simulated time passes from the call, or the event queue drains.
    /// The one wait loop: every `run_until_*` is this with its own `done`.
    fn drive(&mut self, deadline_ms: u64, done: impl Fn(&SimCluster) -> bool) {
        let deadline = self.engine.now() + Dur::from_ms(deadline_ms);
        while !done(self) && self.engine.now() < deadline {
            let target = (self.engine.now() + Dur::from_us(50)).min(deadline);
            if self.engine.run_until(target) {
                break; // queue drained
            }
        }
    }

    /// Run until `count(results) >= n`, or [`Self::drive`] stops; returns
    /// the final count.
    fn run_until_count(
        &mut self,
        n: usize,
        deadline_ms: u64,
        count: impl Fn(&ResultSink) -> usize,
    ) -> usize {
        self.drive(deadline_ms, |cl| count(&cl.results.borrow()) >= n);
        count(&self.results.borrow())
    }

    /// Run until `n` write results exist or `deadline_ms` of simulated
    /// time passes from the call. Returns the number of results collected.
    pub fn run_until_writes(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.writes.len())
    }

    /// Run until `n` metadata results exist or `deadline_ms` of simulated
    /// time passes from the call. Returns the number of results collected.
    pub fn run_until_metas(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.metas.len())
    }

    /// Run until `n` file-level read completions exist or `deadline_ms`
    /// of simulated time passes from the call. Returns the number of
    /// completions collected.
    pub fn run_until_file_reads(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.file_reads.len())
    }

    /// Run for a fixed amount of simulated time.
    pub fn run_ms(&mut self, ms: u64) {
        let t = self.engine.now() + Dur::from_ms(ms);
        self.engine.run_until(t);
    }

    /// Run until the oneshot `slot` fills or `deadline_ms` of simulated
    /// time passes from the call. `None` means timeout, or a drained
    /// event queue with the slot still empty (the operation can never
    /// complete). The wait under `FsClient`'s typed operations and the
    /// repair driver.
    pub fn run_until_slot<T>(
        &mut self,
        slot: &Rc<RefCell<Option<T>>>,
        deadline_ms: u64,
    ) -> Option<T> {
        self.drive(deadline_ms, |_| slot.borrow().is_some());
        slot.borrow_mut().take()
    }

    /// Index of a storage node in `storage_*` vectors from its node id.
    pub fn storage_index(&self, node: NodeId) -> usize {
        self.storage_nodes
            .iter()
            .position(|&n| n == node)
            .expect("storage node id")
    }
}
