//! Cluster assembly: wire clients, storage nodes, the fabric, and the
//! control plane into a runnable simulation.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use nadfs_host::{DmaEngine, SharedMemory};
use nadfs_pspin::{ExecutionContext, Telemetry};
use nadfs_rdma::{Nic, NicApp, SharedNicStats};
use nadfs_simnet::{
    BufPool, ComponentId, CreditConfig, Dur, Engine, Fabric, FabricStats, FlowStats,
    MetricsSnapshot, NodeId, ObsHub, PacketPool, SharedFlowStats, SharedObs, SharedTenantLedgers,
    SharedTrace, TenantId, TenantLedger, TenantScheduler, Time, Trace, DEFAULT_MAX_RETAINED_BYTES,
    TENANT_REPAIR,
};
use nadfs_wire::sizes::WRITE_DESCRIPTOR;
use nadfs_wire::Frame;

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
    pub n_storage: usize,
    pub mode: StorageMode,
    pub cost: CostModel,
    /// Outstanding requests each client keeps in flight.
    pub client_window: usize,
    /// NIC accumulator pool entries for EC aggregation (§VI-B-3).
    pub accumulator_pool: usize,
    /// Build with live observability (op spans, metrics hub, trace ring)
    /// wired through every component. On by default: everything is
    /// bounded (span/trace rings) and costs one branch per op when idle.
    pub observability: bool,
    /// Enable DES-engine dispatch profiling (host wall-clock per handler;
    /// off by default because it perturbs wall-clock benchmarks).
    pub engine_profiling: bool,
    /// Flow control budgets + per-tenant QoS.
    pub qos: QosConfig,
    /// Metadata shards in the control plane (hash-partitioned namespace
    /// + extent maps; 1 = the unsharded seed behavior).
    pub meta_shards: usize,
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
    pub tenant_ledgers: Vec<SharedTenantLedgers>,
    /// Per-client tenant-id cells (index-aligned with `client_nodes`):
    /// `None` = the client's node id. Set via [`crate::fs::FsClient`] or
    /// directly to group clients into tenants after build.
    pub client_tenants: Vec<Rc<std::cell::Cell<Option<TenantId>>>>,
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
        let (obs, trace) = if spec.observability {
            (ObsHub::new(SPAN_CAP), Trace::new(TRACE_CAP))
        } else {
            (ObsHub::disabled(), Trace::disabled())
        };
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
        // One buffer ring and one packet-box pool for the whole cluster:
        // with per-NIC pools, nodes that only consume buffers (parity
        // nodes, ring tails) overflow theirs while the nodes that only
        // produce (data nodes, clients) allocate every time. The caps
        // (limits, not reservations) cover each NIC's packet ring plus
        // its accumulator budget.
        let n_nics = spec.n_clients + spec.n_storage;
        let bufs = Rc::new(RefCell::new(BufPool::with_byte_cap(
            n_nics * (256 + spec.accumulator_pool),
            4 * DEFAULT_MAX_RETAINED_BYTES,
        )));
        let pkts = PacketPool::shared();
        for (&comp, port) in client_components.iter().zip(client_ports) {
            let plan: SharedPlan = Rc::new(RefCell::new(VecDeque::new()));
            plans.push(plan.clone());
            let mut app =
                ClientApp::new(control.clone(), results.clone(), plan, spec.client_window);
            app.obs = obs.clone();
            app.trace = trace.clone();
            tweak(&mut app);
            client_caches.push(app.meta_cache.clone());
            read_caches.push(app.read_cache.clone());
            client_read_stats.push(app.read_stats.clone());
            client_tenants.push(app.tenant.clone());
            let mut nic = Nic::new(spec.cost.nic.clone(), port, comp, Box::new(app));
            nic.core.share_pools(bufs.clone(), pkts.clone());
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
            let mut app = StorageApp::new(key, spec.cost.fabric.link_bw);
            app.obs = obs.clone();
            app.trace = trace.clone();
            storage_stats.push(app.stats.clone());
            let qos = &spec.qos;
            if qos.enabled {
                let q = TenantScheduler::new(qos.quantum, &qos.weights, qos.rpc_concurrency);
                tenant_ledgers.push(q.ledgers_handle());
                app.qos = Some(q);
            }
            let mut nic = Nic::new(
                spec.cost.nic.clone(),
                port,
                comp,
                Box::new(app) as Box<dyn NicApp>,
            );
            nic.core.share_pools(bufs.clone(), pkts.clone());
            nic.core.set_credit_config(spec.qos.credit);
            if qos.enabled {
                let ledgers = nic
                    .core
                    .install_read_qos(qos.quantum, &qos.weights, READ_STREAMS);
                tenant_ledgers.push(ledgers);
            }
            flow_stats.push(nic.core.flow_stats());
            nic.core.obs = obs.clone();
            nic.core.trace = trace.clone();
            // NIC-side read validation: every storage NIC authenticates
            // DFS-level read requests against the service key before a
            // byte leaves the node (one-sided reads never touch the CPU).
            nic.core.install_service_key(key);
            match spec.mode {
                StorageMode::Plain => {}
                StorageMode::Spin => {
                    // The handlers share the NIC's buffer ring so
                    // accumulator/parity buffers recycle through the device.
                    let handlers = DfsNicState::new(
                        key,
                        spec.accumulator_pool,
                        nic.core.buf_pool(),
                        nic.core.nic_stats(),
                        obs.clone(),
                        trace.clone(),
                        nic.core.node(),
                    );
                    nic.core.install_pspin(
                        spec.cost.pspin.clone(),
                        ExecutionContext {
                            handlers: Box::new(handlers),
                            state_bytes: spec.cost.pspin_state_bytes,
                            descriptor_bytes: WRITE_DESCRIPTOR,
                        },
                    );
                }
                StorageMode::FirmwareEc => {
                    nic.core.enable_firmware_ec();
                }
            }
            storage_mems.push(nic.core.memory());
            storage_dmas.push(nic.core.dma());
            pspin_telemetry.push(nic.core.pspin().map(|d| d.telemetry()));
            nic_stats.push(nic.core.nic_stats());
            engine.install(comp, Box::new(nic));
        }

        // Placement decisions are counted on the nodes they land on.
        control
            .borrow_mut()
            .attach_storage_stats(storage_stats.clone());

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
            buf_pools: vec![bufs],
            tenant_ledgers,
            client_tenants,
            pspin_telemetry,
            fabric_stats,
            obs,
            trace,
        }
    }

    /// Group client `i` into tenant `t` for QoS scheduling (default:
    /// every client is its own tenant, id = node id).
    pub fn set_client_tenant(&self, i: usize, t: TenantId) {
        self.client_tenants[i].set(Some(t));
    }

    /// One coherent metrics snapshot: the op-span derived series already
    /// in the hub, plus every component's stats struct registered under
    /// stable names (`storage.<i>.*`, `client.<i>.*`, `repair.*`,
    /// `pspin.<i>.*`, `fabric.*`, `engine.*`). Stable schema
    /// [`nadfs_simnet::SNAPSHOT_SCHEMA`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut hub = self.obs.borrow_mut();
        let m = &mut hub.metrics;
        for (i, st) in self.storage_stats.iter().enumerate() {
            let s = st.borrow();
            let pre = format!("storage.{i}");
            m.counter_set(&format!("{pre}.rpc_writes"), s.rpc_writes);
            m.counter_set(&format!("{pre}.rpc_rdma_writes"), s.rpc_rdma_writes);
            m.counter_set(&format!("{pre}.rpc_reads"), s.rpc_reads);
            m.counter_set(&format!("{pre}.chunks_forwarded"), s.chunks_forwarded);
            m.counter_set(&format!("{pre}.auth_failures"), s.auth_failures);
            m.counter_set(
                &format!("{pre}.fallback_aggregations"),
                s.fallback_aggregations,
            );
            m.counter_set(&format!("{pre}.cleanup_events"), s.cleanup_events);
            m.counter_set(
                &format!("{pre}.stripe_chunks_placed"),
                s.stripe_chunks_placed,
            );
            m.counter_set(
                &format!("{pre}.repair_chunks_hosted"),
                s.repair_chunks_hosted,
            );
            m.gauge_set(&format!("{pre}.chunks_hosted"), s.chunks_hosted as f64);
            m.gauge_set(&format!("{pre}.bytes_hosted"), s.bytes_hosted as f64);
            m.counter_set(
                &format!("{pre}.stale_chunks_reclaimed"),
                s.stale_chunks_reclaimed,
            );
            m.counter_set(
                &format!("{pre}.stale_bytes_reclaimed"),
                s.stale_bytes_reclaimed,
            );
        }
        for (i, c) in self.client_caches.iter().enumerate() {
            let s = c.borrow().stats;
            let pre = format!("client.{i}.meta_cache");
            m.counter_set(&format!("{pre}.hits"), s.hits);
            m.counter_set(&format!("{pre}.misses"), s.misses);
            m.counter_set(&format!("{pre}.invalidations"), s.invalidations);
            m.counter_set(&format!("{pre}.writeback_absorbed"), s.writeback_absorbed);
            m.counter_set(&format!("{pre}.writeback_flushes"), s.writeback_flushes);
        }
        for (i, c) in self.read_caches.iter().enumerate() {
            let cache = c.borrow();
            let s = &cache.stats;
            let pre = format!("client.{i}.read_cache");
            m.counter_set(&format!("{pre}.hits"), s.hits);
            m.counter_set(&format!("{pre}.misses"), s.misses);
            m.counter_set(&format!("{pre}.hit_bytes"), s.hit_bytes);
            m.counter_set(&format!("{pre}.invalidations"), s.invalidations);
            m.counter_set(&format!("{pre}.stale_fills"), s.stale_fills);
            m.counter_set(&format!("{pre}.evictions"), s.evictions);
            m.counter_set(&format!("{pre}.inserted_bytes"), s.inserted_bytes);
            m.counter_set(&format!("{pre}.readahead_bytes"), s.readahead_bytes);
            m.counter_set(&format!("{pre}.write_fills"), s.write_fills);
            m.counter_set(&format!("{pre}.hints"), s.hints);
            m.counter_set(&format!("{pre}.hint_boosts"), s.hint_boosts);
        }
        for (i, c) in self.client_read_stats.iter().enumerate() {
            let s = *c.borrow();
            let pre = format!("client.{i}.read");
            m.counter_set(
                &format!("{pre}.reconstructed_stripes"),
                s.reconstructed_stripes,
            );
            m.counter_set(&format!("{pre}.offloaded_reads"), s.offloaded_reads);
            m.counter_set(
                &format!("{pre}.offloaded_degraded_stripes"),
                s.offloaded_degraded_stripes,
            );
            m.counter_set(
                &format!("{pre}.background_readaheads"),
                s.background_readaheads,
            );
        }
        for (i, c) in self.nic_stats.iter().enumerate() {
            let s = *c.borrow();
            let pre = format!("nic.{i}.gather");
            m.counter_set(&format!("{pre}.reads"), s.gather_reads);
            m.counter_set(&format!("{pre}.auth_failures"), s.gather_auth_failures);
            m.counter_set(
                &format!("nic.{i}.write.auth_failures"),
                s.write_auth_failures,
            );
            m.counter_set(&format!("nic.{i}.read.auth_failures"), s.read_auth_failures);
            m.counter_set(&format!("{pre}.remote_fetches"), s.gather_remote_fetches);
            m.counter_set(&format!("{pre}.bytes_streamed"), s.gather_bytes_streamed);
            m.counter_set(
                &format!("{pre}.chunks_reconstructed"),
                s.chunks_reconstructed,
            );
            // Occupancy of the NIC's serial resources: a busy figure near
            // the run's length names the bottleneck.
            m.counter_set(&format!("nic.{i}.ec.busy_ps"), s.ec_busy_ps);
            let dma = self.storage_dmas[i].borrow();
            m.counter_set(&format!("nic.{i}.dma.read_busy_ps"), dma.read_busy_ps);
            m.counter_set(&format!("nic.{i}.dma.write_busy_ps"), dma.write_busy_ps);
        }
        // The one un-indexed pspin gauge is the cluster's: the largest
        // descriptor footprint any storage NIC reached.
        let mut descriptor_peak = None;
        for (i, t) in self.pspin_telemetry.iter().enumerate() {
            let Some(t) = t else { continue };
            let t = t.borrow();
            let pre = format!("pspin.{i}");
            m.counter_set(&format!("{pre}.pkts_processed"), t.pkts_processed);
            m.counter_set(&format!("{pre}.msgs_opened"), t.msgs_opened);
            m.counter_set(&format!("{pre}.msgs_completed"), t.msgs_completed);
            m.counter_set(&format!("{pre}.msgs_denied"), t.msgs_denied);
            m.counter_set(&format!("{pre}.msgs_cleaned"), t.msgs_cleaned);
            descriptor_peak = descriptor_peak.max(Some(t.descriptor_peak_bytes));
        }
        if let Some(peak) = descriptor_peak {
            m.gauge_set("pspin.descriptor_peak_bytes", peak as f64);
        }
        {
            let r = self.control.borrow().repair_queue.stats;
            m.counter_set("repair.enqueued", r.enqueued);
            m.counter_set("repair.promoted", r.promoted);
            m.counter_set("repair.committed", r.committed);
            m.counter_set("repair.requeued", r.requeued);
            m.counter_set("repair.shards_rehomed", r.shards_rehomed);
            m.counter_set("repair.dropped_on_recovery", r.dropped_on_recovery);
            m.counter_set("repair.shards_readopted", r.shards_readopted);
        }
        {
            // Metadata-shard counters: routing balance, queueing, and
            // the async-commit machinery (op-log depth, 2PC traffic).
            let control = self.control.borrow();
            let lens = control.shard_log_lens();
            for (i, s) in control.shard_stats().iter().enumerate() {
                let pre = format!("meta.shard.{i}");
                m.counter_set(&format!("{pre}.ops"), s.ops);
                m.counter_set(&format!("{pre}.mutations"), s.mutations);
                m.counter_set(&format!("{pre}.resolves"), s.resolves);
                m.counter_set(&format!("{pre}.queue_wait_ps"), s.queue_wait_ps);
                m.counter_set(&format!("{pre}.cross_shard_txns"), s.cross_shard_txns);
                m.counter_set(&format!("{pre}.compactions"), s.compactions);
                m.counter_set(&format!("{pre}.records_dropped"), s.records_dropped);
                m.gauge_set(&format!("{pre}.log_len"), lens[i] as f64);
            }
        }
        {
            // Credit-layer counters, aggregated across every NIC: the
            // interesting signals (stalls, queue depth churn, grant
            // traffic) are cluster-wide.
            let mut agg = FlowStats::default();
            for h in &self.flow_stats {
                let s = *h.borrow();
                for i in 0..4 {
                    agg.posted[i] += s.posted[i];
                    agg.completed[i] += s.completed[i];
                }
                agg.queued += s.queued;
                agg.released += s.released;
                agg.local_stalls += s.local_stalls;
                agg.remote_stalls += s.remote_stalls;
                agg.granted_piggyback += s.granted_piggyback;
                agg.granted_standalone += s.granted_standalone;
                agg.grants_received += s.grants_received;
            }
            for class in nadfs_simnet::WrClass::ALL {
                let i = class.index();
                m.counter_set(&format!("flow.posted.{}", class.as_str()), agg.posted[i]);
                m.counter_set(
                    &format!("flow.completed.{}", class.as_str()),
                    agg.completed[i],
                );
            }
            m.counter_set("flow.queued", agg.queued);
            m.counter_set("flow.released", agg.released);
            m.counter_set("flow.local_stalls", agg.local_stalls);
            m.counter_set("flow.remote_stalls", agg.remote_stalls);
            m.counter_set("flow.granted_piggyback", agg.granted_piggyback);
            m.counter_set("flow.granted_standalone", agg.granted_standalone);
            m.counter_set("flow.grants_received", agg.grants_received);
        }
        {
            // Per-tenant service ledgers, aggregated across scheduling
            // points (read-stream + RPC schedulers of every storage node).
            let mut by_tenant: std::collections::BTreeMap<TenantId, TenantLedger> =
                std::collections::BTreeMap::new();
            for h in &self.tenant_ledgers {
                for (&t, l) in h.borrow().iter() {
                    let e = by_tenant.entry(t).or_default();
                    e.enqueued += l.enqueued;
                    e.dispatched += l.dispatched;
                    e.cost_dispatched += l.cost_dispatched;
                }
            }
            for (t, l) in by_tenant {
                let pre = if t == TENANT_REPAIR {
                    "tenant.repair".to_string()
                } else {
                    format!("tenant.{t}")
                };
                m.counter_set(&format!("{pre}.enqueued"), l.enqueued);
                m.counter_set(&format!("{pre}.dispatched"), l.dispatched);
                m.counter_set(&format!("{pre}.cost_dispatched"), l.cost_dispatched);
            }
        }
        let fabric = self.fabric_stats.borrow();
        m.counter_set("fabric.switch_holds", fabric.switch_holds);
        m.counter_set("fabric.unroutable", fabric.unroutable);
        m.counter_set("engine.events_dispatched", self.engine.events_dispatched());
        m.counter_set("engine.order_digest", self.engine.order_digest());
        // DES dispatch profile: the measured baseline for the per-packet
        // boxing overhead item (ROADMAP) — dispatches and host-side busy
        // time per component kind.
        for p in self.engine.profiles_by_kind() {
            m.counter_set(&format!("engine.kind.{}.dispatches", p.name), p.dispatches);
            m.counter_set(
                &format!("engine.kind.{}.busy_host_ns", p.name),
                p.busy_host_ns,
            );
        }
        let spans = &hub.spans;
        let (open, done, dropped) = (spans.open_count(), spans.done_count(), spans.dropped());
        let m = &mut hub.metrics;
        m.gauge_set("spans.open", open as f64);
        m.gauge_set("spans.done", done as f64);
        m.gauge_set("spans.dropped", dropped as f64);
        hub.metrics.snapshot()
    }

    /// Export completed spans + the trace ring as Chrome trace-event JSON
    /// (loadable in Perfetto / `chrome://tracing`).
    pub fn export_chrome_trace(&self) -> String {
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

    /// Run until `count(results) >= n` or `deadline_ms` passes, stepping
    /// in bounded slices so the predicate is re-checked. Returns the
    /// final count.
    fn run_until_count(
        &mut self,
        n: usize,
        deadline_ms: u64,
        count: impl Fn(&ResultSink) -> usize,
    ) -> usize {
        let deadline = Time(Dur::from_ms(deadline_ms).ps());
        loop {
            if count(&self.results.borrow()) >= n {
                break;
            }
            if self.engine.now() >= deadline {
                break;
            }
            let target = (self.engine.now() + Dur::from_us(50)).min(deadline);
            if self.engine.run_until(target) {
                break; // queue drained
            }
        }
        let n_done = count(&self.results.borrow());
        n_done
    }

    /// Run until `n` write results exist or `deadline_ms` passes.
    /// Returns the number of results collected.
    pub fn run_until_writes(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.writes.len())
    }

    /// Run until `n` metadata results exist or `deadline_ms` passes.
    /// Returns the number of results collected.
    pub fn run_until_metas(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.metas.len())
    }

    /// Run until `n` file-level read completions exist or `deadline_ms`
    /// passes. Returns the number of completions collected.
    pub fn run_until_file_reads(&mut self, n: usize, deadline_ms: u64) -> usize {
        self.run_until_count(n, deadline_ms, |r| r.file_reads.len())
    }

    /// Run for a fixed amount of simulated time.
    pub fn run_ms(&mut self, ms: u64) {
        let t = self.engine.now() + Dur::from_ms(ms);
        self.engine.run_until(t);
    }

    /// Drive the engine in bounded slices until the oneshot `slot` fills
    /// or `deadline_ms` of simulated time passes. `None` means timeout,
    /// or a drained event queue with the slot still empty (the operation
    /// can never complete). The shared wait loop under `FsClient`'s
    /// typed operations and the repair driver.
    pub fn run_until_slot<T: Clone>(
        &mut self,
        slot: &Rc<RefCell<Option<T>>>,
        deadline_ms: u64,
    ) -> Option<T> {
        let deadline = self.engine.now() + Dur::from_ms(deadline_ms);
        loop {
            if let Some(v) = slot.borrow_mut().take() {
                return Some(v);
            }
            if self.engine.now() >= deadline {
                return None;
            }
            let target: Time = (self.engine.now() + Dur::from_us(50)).min(deadline);
            if self.engine.run_until(target) {
                return slot.borrow_mut().take();
            }
        }
    }

    /// Index of a storage node in `storage_*` vectors from its node id.
    pub fn storage_index(&self, node: NodeId) -> usize {
        self.storage_nodes
            .iter()
            .position(|&n| n == node)
            .expect("storage node id")
    }
}
