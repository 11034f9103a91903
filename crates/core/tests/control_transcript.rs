//! The control plane as a transcript: one scripted and one seeded
//! sequence over every public `ControlPlane` entry point, on a 1-shard
//! and a 4-shard plane, with every return value and every observable
//! counter folded into one digest per plane.
//!
//! The engine's `order_digest` pins what the data path schedules; this
//! pins what the control plane answers — greq, txid and address
//! allocation order, shard routing and admission waits, op-log lengths,
//! the `MetaEvent`s the registered caches consume, the repair queue's
//! order, the hosted and orphan ledgers. A change to `control/` that is
//! meant to keep the machine the same must leave both values alone.

use std::cell::RefCell;
use std::fmt::Debug;
use std::rc::Rc;

use nadfs_core::{
    ControlPlane, FilePolicy, LayoutSpec, MetaCache, ReadCache, RepairTask, WritePlacement,
};
use nadfs_meta::{CachedEntry, DirtyAttr};
use nadfs_wire::{BcastStrategy, Rights, RsScheme};

/// Fabric ids deliberately unlike their indices.
const NODES: [usize; 6] = [10, 11, 12, 13, 14, 15];
const DIRS: usize = 4;
const FILES: usize = 6;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

struct Rig {
    cp: Rc<RefCell<ControlPlane>>,
    meta_cache: Rc<RefCell<MetaCache>>,
    read_cache: Rc<RefCell<ReadCache>>,
    digest: u64,
    now_ps: u64,
    /// Every file id a create ever returned (unlinked ones stay, so
    /// later ops exercise the unknown-file paths).
    files: Vec<u64>,
    pending: Vec<(u64, WritePlacement, u32)>,
    popped: Vec<RepairTask>,
    /// Where the next sequential resolve of each file starts.
    scan_at: Vec<u64>,
}

impl Rig {
    fn new(shards: usize) -> Rig {
        let cp = ControlPlane::new_sharded(0xC0DE, NODES.to_vec(), shards);
        let meta_cache = Rc::new(RefCell::new(MetaCache::new()));
        let read_cache = Rc::new(RefCell::new(ReadCache::default()));
        {
            let mut c = cp.borrow_mut();
            c.register_cache(meta_cache.clone());
            c.register_read_cache(read_cache.clone());
        }
        Rig {
            cp,
            meta_cache,
            read_cache,
            digest: 0xCBF2_9CE4_8422_2325,
            now_ps: 0,
            files: Vec::new(),
            pending: Vec::new(),
            popped: Vec::new(),
            scan_at: Vec::new(),
        }
    }

    /// FNV-1a over the `Debug` rendering.
    fn fold(&mut self, what: &str, v: impl Debug) {
        for b in format!("{what}={v:?};").bytes() {
            self.digest = (self.digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold an op's return value, then admit it: 600 ns between ops is
    /// under the 850 ns mutation service time, so same-shard runs queue.
    fn op(&mut self, what: &str, v: impl Debug) {
        self.fold(what, v);
        let wait = self.cp.borrow_mut().admit_last(self.now_ps);
        self.fold("wait", wait);
        self.now_ps += 600_000;
    }

    fn checkpoint(&mut self) {
        let cp = self.cp.clone();
        let c = cp.borrow();
        self.fold("shard_stats", c.shard_stats());
        self.fold("log_lens", c.shard_log_lens());
        self.fold("repair_stats", c.repair_queue.stats);
        self.fold(
            "repair_q",
            (
                c.repair_queue.len(),
                c.repair_queue.peek(),
                c.inflight_repair_count(),
            ),
        );
        let mut failed: Vec<u32> = c.failed_nodes().iter().copied().collect();
        failed.sort_unstable();
        self.fold("failed", failed);
        for l in c.node_ledgers() {
            self.fold("node", l);
        }
        self.fold("live", (c.live_extent_bytes(), c.live_extent_shards()));
        self.fold("meta_ops", c.meta_stats());
        for &f in &self.files.clone() {
            self.fold("file", (c.lookup(f), c.extent_generation(f), c.shard_of(f)));
            // The layout (its rotating home among them) and the policy
            // live on the inode.
            let inode = c.namespace().inode(f).ok().and_then(|i| i.file());
            self.fold("inode", inode.map(|n| (&n.layout, &n.policy)));
        }
        let mc = self.meta_cache.borrow().stats;
        self.fold("meta_cache", mc);
        let rc = self.read_cache.borrow().stats;
        self.fold("read_cache", rc);
    }

    fn policy(i: usize) -> (LayoutSpec, FilePolicy) {
        match i % 3 {
            0 => (LayoutSpec::striped(3, 4096), FilePolicy::Plain),
            1 => (
                LayoutSpec::SINGLE,
                FilePolicy::Replicated {
                    k: 3,
                    strategy: BcastStrategy::Ring,
                },
            ),
            _ => (
                LayoutSpec::SINGLE,
                FilePolicy::ErasureCoded {
                    scheme: RsScheme::new(3, 2),
                },
            ),
        }
    }

    fn create(&mut self, path: &str, kind: usize) -> Option<u64> {
        let (spec, policy) = Rig::policy(kind);
        let r = self.cp.borrow_mut().create_file_at(path, spec, policy);
        let id = r.as_ref().ok().map(|m| m.id);
        self.op("create", r);
        if let Some(id) = id {
            self.files.push(id);
            self.scan_at.push(0);
        }
        id
    }

    /// Place in `mode` (0 append, 1 at, 2 retry) and remember it.
    fn place(&mut self, file: u64, len: u32, mode: usize, offset: u64) {
        let r = {
            let mut c = self.cp.borrow_mut();
            match mode {
                0 => c.place_write(file, len),
                1 => c.place_write_at(file, len, offset),
                _ => c.replace_write(file, len, offset),
            }
        };
        if let Ok(p) = &r {
            self.pending.push((file, p.clone(), len));
        }
        self.op("place", r);
    }

    fn commit(&mut self, i: usize) {
        let (file, p, len) = self.pending.remove(i);
        let growth = self.cp.borrow_mut().commit_write(file, &p, len);
        self.op("commit", growth);
    }

    /// Resolve, and cache what came back the way a client would.
    fn resolve(&mut self, file: u64, offset: u64, len: u32) {
        let r = self.cp.borrow_mut().resolve_read(file, offset, len);
        if let Ok(plan) = &r {
            if plan.len > 0 {
                let bytes = vec![0u8; plan.len as usize];
                self.read_cache
                    .borrow_mut()
                    .fill(file, plan.generation, offset, &bytes, len);
            }
            if let Some(i) = self.files.iter().position(|&f| f == file) {
                self.scan_at[i] = offset + plan.len as u64;
            }
        }
        self.op("resolve", r);
    }

    fn lookup_entry(&mut self, path: &str) {
        let r = self.cp.borrow_mut().lookup_entry(path);
        if let Ok((attr, layout)) = &r {
            self.meta_cache
                .borrow_mut()
                .insert(path, CachedEntry::from_attr(attr, layout.clone()));
        }
        self.op("lookup_entry", r);
    }

    /// Pop and plan one repair; `then` picks commit (0), requeue (1),
    /// abandon (2) or leave it in flight (3).
    fn repair_step(&mut self, then: usize) {
        let Some(task) = self.cp.borrow_mut().pop_repair() else {
            self.fold("pop", "empty");
            return;
        };
        self.fold("pop", task);
        let plan = self.cp.borrow_mut().plan_repair(task);
        self.fold("plan", &plan);
        match (then, plan) {
            (0, Ok(plan)) => {
                let r = self.cp.borrow_mut().commit_repair(
                    task,
                    &plan.replacements(),
                    self.now_ps / 1000,
                );
                self.op("commit_repair", r);
            }
            (1, _) => {
                self.cp.borrow_mut().requeue_repair(task);
                self.fold("requeue", task);
            }
            (3, _) => self.popped.push(task),
            _ => {
                self.cp.borrow_mut().abandon_repair(task);
                self.fold("abandon", task);
            }
        }
    }

    fn scripted(&mut self) {
        let cp = self.cp.clone();
        let r = cp.borrow_mut().mkdir_p("/a/b", 1);
        self.op("mkdir_p", r);
        let r = cp.borrow_mut().mkdir("/c", 2);
        self.op("mkdir", r);
        let r = cp.borrow_mut().mkdir("/c", 3);
        self.op("mkdir dup", r);
        let r = cp.borrow_mut().mkdir("/nope/x", 3);
        self.op("mkdir orphan", r);
        for d in 0..DIRS {
            let r = cp.borrow_mut().mkdir_p(&format!("/p{d}"), 4);
            self.op("mkdir_p", r);
        }
        let plain = self.create("/a/b/plain", 0).expect("plain");
        let repl = self.create("/a/repl", 1).expect("replicated");
        let ec = self.create("/c/ec", 2).expect("ec");
        self.create("/c/ec", 0);
        self.create("/missing/f", 0);
        let legacy = cp.borrow_mut().create_file(1 << 20, FilePolicy::Plain);
        self.files.push(legacy.id);
        self.scan_at.push(0);
        self.op("create_file", legacy);
        self.checkpoint();

        // Every placement mode on every policy, committed out of order.
        for &f in &[plain, repl, ec] {
            self.place(f, 3 * 4096, 0, 0);
            self.place(f, 5000, 0, 0);
            self.place(f, 2048, 1, 1024);
            self.place(f, 4096, 1, 40_000);
            self.place(f, 5000, 2, 3 * 4096);
        }
        self.place(plain, 0, 0, 0);
        self.place(999, 64, 0, 0);
        while !self.pending.is_empty() {
            let i = self.pending.len() / 2;
            self.commit(i);
        }
        self.checkpoint();

        // Overwrite one window far past the compaction threshold.
        let hot = self.create("/c/hot", 0).expect("hot");
        for _ in 0..48 {
            self.place(hot, 4096, 1, 0);
            self.commit(0);
        }
        self.checkpoint();

        // A sequential scan: the third back-to-back resolve publishes a
        // prefetch hint to the registered read cache.
        for i in 0..4u64 {
            self.resolve(plain, i * 4096, 4096);
        }
        self.resolve(plain, 100, 50);
        self.resolve(ec, 0, u32::MAX);
        self.resolve(repl, u64::MAX - 5, 4096);
        self.resolve(999, 0, 1);
        self.checkpoint();

        // Failure, degraded reads, and every way out of the repair queue.
        self.place(ec, 9000, 0, 0); // placed before the failure, committed after
        let victim = self.pending[0].1.data_chunks[0].node;
        assert_eq!(
            victim, NODES[2] as u32,
            "homes rotate per create, so this node also holds a replica of /a/repl"
        );
        cp.borrow_mut().mark_node_failed(victim);
        cp.borrow_mut().mark_node_failed(victim);
        self.checkpoint();
        self.commit(0);
        self.resolve(ec, 0, 3 * 4096);
        self.resolve(repl, 0, 4096);
        self.repair_step(0);
        self.repair_step(1);
        self.repair_step(2);
        self.repair_step(3);
        self.repair_step(0);
        self.checkpoint();
        let r = cp.borrow_mut().unlink("/a/repl", 50);
        self.op("unlink degraded", r);
        self.place(repl, 64, 0, 0);
        while !cp.borrow().repair_queue.is_empty() {
            self.repair_step(0);
        }
        for t in std::mem::take(&mut self.popped) {
            cp.borrow_mut().abandon_repair(t);
        }
        self.checkpoint();
        cp.borrow_mut().mark_node_recovered(victim);
        cp.borrow_mut().mark_node_recovered(victim);
        self.checkpoint();

        // Namespace: same-directory, cross-directory and replacing
        // renames, refused ones, unlinks of files and directories.
        for d in 0..DIRS {
            for f in 0..3 {
                self.create(&format!("/p{d}/f{f}"), d + f);
            }
        }
        self.lookup_entry("/p0/f0");
        self.lookup_entry("/p1");
        self.lookup_entry("/p1/f1");
        for (from, to) in [
            ("/p0/f0", "/p0/g0"),
            ("/p0/g0", "/p1/g0"),
            ("/p1/g0", "/p2/f1"),
            ("/p2/f2", "/p3/f0"),
            ("/p3/zzz", "/p0/zzz"),
            ("/p1", "/p1/inside"),
            ("/p3", "/a/p3"),
            ("/a/p3/f1", "/c/f1"),
        ] {
            let r = cp.borrow_mut().rename(from, to, 60);
            self.op("rename", r);
        }
        for path in ["/c/f1", "/p1/f1", "/p1", "/a/p3/f2", "/nope", "/a/b/plain"] {
            let r = cp.borrow_mut().unlink(path, 70);
            self.op("unlink", r);
        }
        let dirty = |n| DirtyAttr {
            appended: n,
            mtime_ns: 80,
        };
        let r = cp.borrow_mut().flush_attrs(&mut [
            (ec, dirty(4096)),
            (plain, dirty(1)),
            (hot, dirty(7)),
        ]);
        self.op("flush_attrs", r);
        let r = cp.borrow_mut().flush_attrs(&mut []);
        self.op("flush_attrs none", r);
        for path in ["/c/ec", "/c", "/a/b/plain"] {
            let r = cp.borrow_mut().lookup_path(path);
            self.op("lookup_path", r);
            let r = cp.borrow().peek_entry(path);
            self.fold("peek_entry", r);
        }
        for path in ["/", "/c", "/a/p3", "/gone"] {
            let r = cp.borrow_mut().readdir(path);
            self.op("readdir", r);
        }
        let cap = cp.borrow_mut().issue_capability(3, ec, Rights::RW, 1_000);
        self.op("capability", cap);
        let g = cp.borrow_mut().alloc_greq();
        self.fold("greq", g);
        let r = cp.borrow_mut().recover_shards();
        self.fold("recover", r);
        self.checkpoint();
    }

    fn seeded(&mut self, seed: u64, ops: usize) {
        let mut rng = Rng(seed);
        let cp = self.cp.clone();
        let path = |rng: &mut Rng| format!("/p{}/f{}", rng.below(DIRS), rng.below(FILES));
        for d in 0..DIRS {
            let r = cp.borrow_mut().mkdir_p(&format!("/p{d}"), 0);
            self.op("mkdir_p", r);
        }
        for step in 0..ops {
            let t = self.now_ps / 1000;
            match rng.below(20) {
                0 | 1 => {
                    let (p, kind) = (path(&mut rng), rng.below(3));
                    self.create(&p, kind);
                }
                2..=5 => {
                    let f = self.files[rng.below(self.files.len())];
                    let len = 1 + rng.below(20_000) as u32;
                    let mode = rng.below(3);
                    self.place(f, len, mode, rng.below(60_000) as u64);
                }
                6..=8 => {
                    if !self.pending.is_empty() {
                        let i = rng.below(self.pending.len());
                        self.commit(i);
                    }
                }
                9 | 10 => {
                    let i = rng.below(self.files.len());
                    let offset = if rng.below(4) > 0 {
                        self.scan_at[i]
                    } else {
                        rng.below(60_000) as u64
                    };
                    self.resolve(self.files[i], offset, 1 + rng.below(8192) as u32);
                }
                11 => {
                    let (from, to) = (path(&mut rng), path(&mut rng));
                    let r = cp.borrow_mut().rename(&from, &to, t);
                    self.op("rename", r);
                }
                12 => {
                    let r = cp.borrow_mut().unlink(&path(&mut rng), t);
                    self.op("unlink", r);
                }
                13 => {
                    let p = format!("/p{}/sub{}", rng.below(DIRS), rng.below(2));
                    let r = if rng.below(2) == 0 {
                        cp.borrow_mut().mkdir(&p, t)
                    } else {
                        cp.borrow_mut().unlink(&p, t)
                    };
                    self.op("subdir", r);
                }
                14 => {
                    let mut updates: Vec<(u64, DirtyAttr)> = (0..rng.below(4))
                        .map(|_| {
                            let f = self.files[rng.below(self.files.len())];
                            let appended = rng.below(4096) as u64;
                            (
                                f,
                                DirtyAttr {
                                    appended,
                                    mtime_ns: t,
                                },
                            )
                        })
                        .collect();
                    let r = cp.borrow_mut().flush_attrs(&mut updates);
                    self.op("flush_attrs", r);
                }
                15 => {
                    let node = NODES[rng.below(NODES.len())] as u32;
                    let failed = cp.borrow().failed_nodes().len();
                    if cp.borrow().failed_nodes().contains(&node) {
                        cp.borrow_mut().mark_node_recovered(node);
                        self.fold("recovered", node);
                    } else if failed < 2 {
                        cp.borrow_mut().mark_node_failed(node);
                        self.fold("failed", node);
                    }
                }
                16 | 17 => self.repair_step(rng.below(4)),
                18 => {
                    if !self.popped.is_empty() {
                        let task = self.popped.remove(rng.below(self.popped.len()));
                        cp.borrow_mut().requeue_repair(task);
                        self.fold("requeue late", task);
                    }
                }
                _ => match rng.below(3) {
                    0 => self.lookup_entry(&path(&mut rng)),
                    1 => {
                        let r = cp.borrow_mut().readdir(&format!("/p{}", rng.below(DIRS)));
                        self.op("readdir", r);
                    }
                    _ => {
                        let f = self.files[rng.below(self.files.len())];
                        let cap = cp.borrow_mut().issue_capability(1, f, Rights::RW, t);
                        self.op("capability", cap);
                    }
                },
            }
            if step % 64 == 63 {
                self.checkpoint();
            }
        }
        let r = cp.borrow_mut().recover_shards();
        self.fold("recover", r);
        self.checkpoint();
    }
}

fn transcript(shards: usize) -> u64 {
    let mut scripted = Rig::new(shards);
    scripted.scripted();
    // The seeded half runs on a fresh plane (so the scripted half's
    // quiescent end state does not decide what the random ops can reach)
    // whose first files come from the same three policies.
    let mut seeded = Rig::new(shards);
    for i in 0..3 {
        let legacy = seeded.cp.borrow_mut().create_file(0, Rig::policy(i).1).id;
        seeded.files.push(legacy);
        seeded.scan_at.push(0);
    }
    seeded.seeded(0x5EED_0001 + shards as u64, 1500);
    let stats = seeded.cp.borrow().shard_stats();
    let sum = |f: fn(&nadfs_core::ShardStats) -> u64| stats.iter().map(f).sum::<u64>();
    let repairs = seeded.cp.borrow().repair_queue.stats;
    assert!(
        repairs.committed > 0 && repairs.requeued > 0 && repairs.promoted > 0,
        "the seeded half must reach the repair pipeline: {repairs:?}"
    );
    assert!(
        repairs.dropped_on_recovery + repairs.shards_readopted > 0,
        "and node recovery: {repairs:?}"
    );
    if shards > 1 {
        assert!(
            sum(|s| s.cross_shard_txns) > 0,
            "and cross-shard transactions"
        );
    }
    assert!(
        seeded.read_cache.borrow().stats.hints > 0,
        "and a scan hint"
    );
    let scripted_stats = scripted.cp.borrow().shard_stats();
    assert!(
        scripted_stats.iter().any(|s| s.compactions > 0),
        "the scripted half must compact"
    );
    assert!(scripted.read_cache.borrow().stats.hints > 0);
    assert!(scripted.meta_cache.borrow().stats.invalidations > 0);
    let scripted_repairs = scripted.cp.borrow().repair_queue.stats;
    assert!(
        scripted_repairs.promoted > 0 && scripted_repairs.committed > 1,
        "the scripted half must read degraded and repair: {scripted_repairs:?}"
    );
    let victim = scripted.cp.borrow().node_ledgers().nth(2).expect("node");
    assert!(
        victim.stale_chunks_reclaimed > 0,
        "and strand an orphan on the victim for recovery to reclaim"
    );
    scripted.digest ^ seeded.digest.rotate_left(32)
}

#[test]
fn one_shard_transcript_is_pinned() {
    assert_eq!(transcript(1), 8752279310750794174);
}

#[test]
fn four_shard_transcript_is_pinned() {
    assert_eq!(transcript(4), 14467442943386859910);
}
