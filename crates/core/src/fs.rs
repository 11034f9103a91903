//! The file-handle client API: `FsClient` / `FileHandle`.
//!
//! This is the facade the next layers program against — the shape
//! production DFS clients expose (Lustre object-handle I/O, AsyncFS /
//! SwitchFS-style clients that resolve layouts and then do striped
//! data-plane I/O): `open`/`create` resolve a path to a handle, and
//! `write_at`/`read_at`/`stat`/`close` move real bytes through the
//! simulated cluster underneath.
//!
//! Each operation is submitted to the owning client's driver
//! ([`crate::client::ClientApp`]) as a typed job carrying a oneshot
//! completion slot ([`crate::client::WriteSlot`] /
//! [`crate::client::ReadSlot`]); the facade then drives the event
//! simulator in bounded slices until the slot fills. The facade reads
//! only its slot: per-op and typed. A job with a slot completes into it
//! alone; only slot-less jobs (plan-driven harnesses, the benchmark)
//! append to the shared [`ResultSink`], so a long `FsClient` run keeps
//! no completion, and no read's payload, past its op. Reads return the
//! payload with a checksum so callers can verify end-to-end integrity
//! against the write's checksum.
//!
//! [`ResultSink`]: crate::client::ResultSink

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nadfs_meta::{InodeAttr, InodeKind, LayoutSpec, MetaError};
use nadfs_simnet::MetricsSnapshot;
use nadfs_wire::Status;

use crate::client::{Job, ReadCompletion, ReadProtocol, WriteProtocol, WriteResult};
use crate::cluster::{SimCluster, StorageMode};
use crate::control::{FileMeta, FilePolicy};
use crate::repair::{RepairDriver, RepairReport};

/// Why a file-system operation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// The metadata service rejected the operation.
    Meta(MetaError),
    /// The data path completed with a non-Ok status (authentication
    /// failure, rejection, unrecoverable data loss).
    Io(Status),
    /// The simulation hit its deadline before the operation completed.
    TimedOut,
    /// The handle was already closed.
    Closed,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Meta(e) => write!(f, "metadata error: {e}"),
            FsError::Io(s) => write!(f, "i/o failed: {s:?}"),
            FsError::TimedOut => write!(f, "operation timed out"),
            FsError::Closed => write!(f, "file handle is closed"),
        }
    }
}

impl std::error::Error for FsError {}

impl From<MetaError> for FsError {
    fn from(e: MetaError) -> FsError {
        FsError::Meta(e)
    }
}

/// An open file: the resolved identity plus the protocols its I/O uses.
/// Handles are plain values — all I/O goes through [`FsClient`], which
/// owns the cluster.
#[derive(Clone, Debug)]
pub struct FileHandle {
    file: u64,
    path: String,
    /// Protocol used by `write_at` (defaults chosen from the file's
    /// policy and the cluster's storage mode; override freely).
    pub write_protocol: WriteProtocol,
    /// Protocol used by `read_at`.
    pub read_protocol: ReadProtocol,
    closed: bool,
}

impl FileHandle {
    /// The file id (its inode number).
    pub fn id(&self) -> u64 {
        self.file
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// This handle with a different read protocol (builder-style; the
    /// field is public too).
    pub fn with_read_protocol(mut self, p: ReadProtocol) -> FileHandle {
        self.read_protocol = p;
        self
    }
}

/// The client-side file system facade over a built [`SimCluster`].
pub struct FsClient {
    /// The cluster underneath (public: tests and examples inspect
    /// telemetry, storage memories, and the control plane directly).
    pub cluster: SimCluster,
    client: usize,
    next_token: u64,
    /// Per-operation simulation deadline in simulated milliseconds.
    pub op_deadline_ms: u64,
}

impl FsClient {
    /// Wrap a cluster, driving operations through client 0.
    pub fn new(cluster: SimCluster) -> FsClient {
        FsClient::for_client(cluster, 0)
    }

    /// Wrap a cluster, driving operations through client `client`.
    pub fn for_client(cluster: SimCluster, client: usize) -> FsClient {
        assert!(client < cluster.plans.len(), "no such client");
        FsClient {
            cluster,
            client,
            next_token: 1,
            op_deadline_ms: 10_000,
        }
    }

    /// Release the underlying cluster.
    pub fn into_cluster(self) -> SimCluster {
        self.cluster
    }

    /// Create every missing directory along `path`.
    pub fn mkdir_p(&mut self, path: &str) -> Result<(), FsError> {
        let now = self.now_ns();
        self.cluster.control.borrow_mut().mkdir_p(path, now)?;
        Ok(())
    }

    /// Create a plain file at `path` with the given striping.
    pub fn create(&mut self, path: &str, spec: LayoutSpec) -> Result<FileHandle, FsError> {
        self.create_with_policy(path, spec, FilePolicy::Plain)
    }

    /// Create a file with an explicit resiliency policy (replication or
    /// erasure coding).
    pub fn create_with_policy(
        &mut self,
        path: &str,
        spec: LayoutSpec,
        policy: FilePolicy,
    ) -> Result<FileHandle, FsError> {
        let meta = self
            .cluster
            .control
            .borrow_mut()
            .create_file_at(path, spec, policy)?;
        Ok(self.handle_for(path, &meta))
    }

    /// Open an existing file by path.
    pub fn open(&mut self, path: &str) -> Result<FileHandle, FsError> {
        let (attr, meta) = {
            let mut control = self.cluster.control.borrow_mut();
            let (attr, _layout) = control.lookup_entry(path)?;
            if attr.kind != InodeKind::File {
                return Err(FsError::Meta(MetaError::IsADirectory));
            }
            let meta = control.lookup(attr.ino)?.clone();
            (attr, meta)
        };
        let _ = attr;
        Ok(self.handle_for(path, &meta))
    }

    /// Write `data` at `offset` (`pwrite` semantics: overwrites in place,
    /// extends the file past EOF). Returns the typed completion; non-Ok
    /// completions surface as [`FsError::Io`].
    pub fn write_at(
        &mut self,
        h: &FileHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<WriteResult, FsError> {
        self.write_job(h, Some(offset), data)
    }

    /// Append `data` at the file's placement cursor.
    pub fn append(&mut self, h: &FileHandle, data: &[u8]) -> Result<WriteResult, FsError> {
        self.write_job(h, None, data)
    }

    fn write_job(
        &mut self,
        h: &FileHandle,
        offset: Option<u64>,
        data: &[u8],
    ) -> Result<WriteResult, FsError> {
        if h.closed {
            return Err(FsError::Closed);
        }
        let slot: Rc<RefCell<Option<WriteResult>>> = Rc::new(RefCell::new(None));
        self.cluster.submit(
            self.client,
            Job::WriteAt {
                file: h.file,
                offset,
                data: Bytes::from(data.to_vec()),
                protocol: h.write_protocol,
                slot: Some(slot.clone()),
            },
        );
        let result = self.run_until_filled(&slot)?;
        if result.status == Status::Ok {
            Ok(result)
        } else {
            Err(FsError::Io(result.status))
        }
    }

    /// Read `len` bytes at `offset`. Short reads past EOF come back with
    /// `completion.len < len` (like `pread`); degraded reads reconstruct
    /// through surviving shards and report `degraded_stripes > 0`.
    pub fn read_at(
        &mut self,
        h: &FileHandle,
        offset: u64,
        len: u32,
    ) -> Result<ReadCompletion, FsError> {
        if h.closed {
            return Err(FsError::Closed);
        }
        let token = self.next_token;
        self.next_token += 1;
        let slot: Rc<RefCell<Option<ReadCompletion>>> = Rc::new(RefCell::new(None));
        self.cluster.submit(
            self.client,
            Job::Read {
                file: h.file,
                offset,
                len,
                protocol: h.read_protocol,
                token,
                slot: Some(slot.clone()),
            },
        );
        let completion = self.run_until_filled(&slot)?;
        if completion.status == Status::Ok {
            Ok(completion)
        } else {
            Err(FsError::Io(completion.status))
        }
    }

    /// Current attributes, with this client's buffered write-back attr
    /// updates flushed first so the size is authoritative.
    pub fn stat(&mut self, h: &FileHandle) -> Result<InodeAttr, FsError> {
        if h.closed {
            return Err(FsError::Closed);
        }
        self.flush_writeback();
        let (attr, _) = self.cluster.control.borrow().peek_entry(&h.path)?;
        Ok(attr)
    }

    /// Close the handle: flush buffered attribute updates and consume it.
    pub fn close(&mut self, mut h: FileHandle) -> Result<(), FsError> {
        if h.closed {
            return Err(FsError::Closed);
        }
        self.flush_writeback();
        h.closed = true;
        Ok(())
    }

    /// Mark the `idx`-th storage node failed: subsequent reads route
    /// around it (replica failover / degraded EC reconstruction).
    pub fn fail_storage_node(&mut self, idx: usize) {
        let node = self.cluster.storage_nodes[idx] as u32;
        self.cluster.control.borrow_mut().mark_node_failed(node);
    }

    /// Bring the `idx`-th storage node back.
    pub fn recover_storage_node(&mut self, idx: usize) {
        let node = self.cluster.storage_nodes[idx] as u32;
        self.cluster.control.borrow_mut().mark_node_recovered(node);
    }

    /// Extents currently awaiting background re-protection.
    pub fn repair_backlog(&self) -> usize {
        self.cluster.control.borrow().repair_queue.len()
    }

    /// This client's read-cache counters (hits, misses, invalidations,
    /// readahead volume).
    pub fn read_cache_stats(&self) -> crate::cache::ReadCacheStats {
        self.cluster.read_caches[self.client].borrow().stats
    }

    /// Drop every cached byte in this client's read cache (e.g. to force
    /// the uncached path for a measurement). Stats and generation floors
    /// survive.
    pub fn drop_read_cache(&mut self) {
        self.cluster.read_caches[self.client].borrow_mut().clear();
    }

    /// Drain the repair queue through this client's NIC: every queued
    /// extent is re-protected to spare nodes (or typed unrepairable) and
    /// its map updated so subsequent reads resolve non-degraded.
    pub fn drain_repairs(&mut self) -> RepairReport {
        let mut driver = RepairDriver::new(self.client);
        driver.op_deadline_ms = self.op_deadline_ms;
        driver.drain(&mut self.cluster)
    }

    fn flush_writeback(&mut self) {
        let dirty = self.cluster.client_caches[self.client]
            .borrow_mut()
            .take_dirty();
        if !dirty.is_empty() {
            let _ = self.cluster.control.borrow_mut().flush_attrs(&dirty);
        }
    }

    fn now_ns(&self) -> u64 {
        self.cluster.engine.now().as_ns() as u64
    }

    fn handle_for(&self, path: &str, meta: &FileMeta) -> FileHandle {
        let mode = self.cluster.spec.mode;
        FileHandle {
            file: meta.id,
            path: path.to_string(),
            write_protocol: default_write_protocol(mode, &meta.policy),
            // One-sided reads in every mode: the storage NIC validates
            // them (the service key is installed cluster-wide).
            read_protocol: ReadProtocol::Rdma,
            closed: false,
        }
    }

    /// Drive the simulator in bounded slices until the oneshot fills.
    fn run_until_filled<T: Clone>(&mut self, slot: &Rc<RefCell<Option<T>>>) -> Result<T, FsError> {
        self.cluster.start(); // re-kick idle client drivers
        self.cluster
            .run_until_slot(slot, self.op_deadline_ms)
            .ok_or(FsError::TimedOut)
    }

    /// One coherent [`MetricsSnapshot`] of the whole cluster: op latency
    /// histograms and per-phase breakdowns from the span book, plus every
    /// component stats struct under stable names. Schema is pinned by
    /// [`nadfs_simnet::SNAPSHOT_SCHEMA`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.cluster.metrics_snapshot()
    }

    /// Chrome trace-event JSON (Perfetto / `chrome://tracing` loadable)
    /// of all completed op spans and the simulator trace ring, on the
    /// simulated clock with one track per component.
    pub fn export_chrome_trace(&self) -> String {
        self.cluster.export_chrome_trace()
    }

    /// Number of op spans still open (an op in flight — or leaked).
    pub fn open_spans(&self) -> usize {
        self.cluster.obs.borrow().spans.open_count()
    }
}

/// The fastest write protocol the cluster's storage mode supports for a
/// file of this policy (the mapping tests and examples start from).
pub fn default_write_protocol(mode: StorageMode, policy: &FilePolicy) -> WriteProtocol {
    match (mode, policy) {
        (StorageMode::Spin, FilePolicy::Plain) => WriteProtocol::Spin,
        (StorageMode::Spin, FilePolicy::Replicated { .. }) => WriteProtocol::SpinReplicated,
        (StorageMode::Spin, FilePolicy::ErasureCoded { .. }) => {
            WriteProtocol::SpinTriec { interleave: true }
        }
        (StorageMode::FirmwareEc, FilePolicy::ErasureCoded { .. }) => WriteProtocol::InecTriec,
        (_, FilePolicy::Replicated { .. }) => WriteProtocol::CpuBcast { chunk: 64 << 10 },
        // Plain-mode plain files: CPU-validated RPC writes (policy still
        // enforced, just on the host).
        (_, FilePolicy::Plain) => WriteProtocol::Rpc,
        // EC on a cluster with no EC engine has no offload path; the
        // firmware protocol still lands the data chunks (parity stays
        // unwritten), so degraded reads require a capable mode.
        (_, FilePolicy::ErasureCoded { .. }) => WriteProtocol::InecTriec,
    }
}
