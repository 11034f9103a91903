//! Sharded-metadata-plane integration tests: cross-shard rename/unlink
//! racing foreground I/O, mid-transaction kills resolved by shard-log
//! recovery (swept over every op-log append of the 2PC protocol),
//! workload spread across the shard space, and the `meta.shard.N.*`
//! telemetry surface.
//!
//! Runs under the CI fault-seed matrix (`NADFS_FAULT_SEED`): victim
//! selection in the kill tests is seed-driven, so a failing interleaving
//! reproduces from its seed alone.

use proptest::collection::vec;
use proptest::prelude::*;

use nadfs_core::{
    ClusterSpec, ControlPlane, FilePolicy, FsClient, InodeAttr, InodeKind, Job, LayoutSpec,
    MetaError, MetaOp, MetaWorkload, SimCluster, StorageMode, TxRecovery, WriteProtocol,
};
use nadfs_tests::{
    assert_bytes_converged, assert_hosted_conserved, assert_span_hygiene,
    drain_repairs_with_faults, seed_from_env, FaultAction, FaultPlan, FaultPoint,
};
use nadfs_wire::BcastStrategy;

fn sharded_cluster(n_clients: usize, n_storage: usize, shards: usize) -> SimCluster {
    SimCluster::build(
        ClusterSpec::new(n_clients, n_storage, StorageMode::Plain).with_meta_shards(shards),
    )
}

/// Two directory paths whose inos hash to different shards (plus the
/// proof they exist): the precondition every cross-shard test needs.
/// Ino allocation is deterministic, so the search is too.
fn cross_shard_dir_pair(cl: &SimCluster, dirs: &[String]) -> Option<(String, String)> {
    let control = cl.control.borrow();
    let shard = |p: &str| {
        let ino = control.namespace().resolve(p).expect("dir exists");
        control.shard_of(ino)
    };
    let s0 = shard(&dirs[0]);
    dirs[1..]
        .iter()
        .find(|d| shard(d) != s0)
        .map(|d| (dirs[0].clone(), d.clone()))
}

fn make_dirs(cl: &SimCluster, n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            let p = format!("/t{i}");
            cl.control.borrow_mut().mkdir_p(&p, 0).expect("mkdir");
            p
        })
        .collect()
}

#[test]
fn cross_shard_rename_races_a_concurrent_write() {
    let mut cl = sharded_cluster(2, 4, 4);
    let dirs = make_dirs(&cl, 8);
    let (from_dir, to_dir) = cross_shard_dir_pair(&cl, &dirs).expect("8 dirs over 4 shards");
    let f = cl
        .control
        .borrow_mut()
        .create_file_at(
            &format!("{from_dir}/hot"),
            LayoutSpec::striped(2, 4096),
            FilePolicy::Plain,
        )
        .expect("create");

    // Client 0 writes the file while client 1 renames it across shards:
    // the write targets the ino, the rename moves the path — both must
    // complete, and the bytes must land under the new name.
    cl.submit(
        0,
        Job::Write {
            file: f.id,
            size: 8 * 4096,
            protocol: WriteProtocol::Raw,
            seed: 3,
        },
    );
    cl.submit(
        1,
        Job::Meta {
            op: MetaOp::Rename {
                from: format!("{from_dir}/hot"),
                to: format!("{to_dir}/hot"),
            },
            token: 1,
        },
    );
    cl.start();
    assert_eq!(cl.run_until_writes(1, 5_000), 1);
    assert_eq!(cl.run_until_metas(1, 5_000), 1);
    {
        let results = cl.results.borrow();
        assert_eq!(results.writes[0].status, nadfs_wire::Status::Ok);
        assert!(results.metas[0].result.is_ok(), "rename succeeded");
    }

    // The racing pair left coherent state: old path gone, new path is
    // the same ino, committed size covers the write.
    assert!(cl
        .control
        .borrow_mut()
        .lookup_path(&format!("{from_dir}/hot"))
        .is_err());
    let attr = cl
        .control
        .borrow_mut()
        .lookup_path(&format!("{to_dir}/hot"))
        .expect("moved");
    assert_eq!(attr.ino, f.id);
    let txns: u64 = cl
        .control
        .borrow()
        .shard_stats()
        .iter()
        .map(|s| s.cross_shard_txns)
        .sum();
    assert!(txns >= 1, "the rename ran the two-phase protocol");
    assert_hosted_conserved(&cl, "rename-race");
}

#[test]
fn mid_rename_kill_rolls_back_and_the_cluster_converges() {
    // The full fault-harness interleaving: a replicated file under
    // writes, a cross-shard rename killed after its last `Intent` (client
    // sees TxAborted, namespace untouched), a seed-chosen storage-node
    // kill racing the whole thing, then repair drain + shard-log
    // recovery. Every invariant must hold at quiesce.
    let seed = seed_from_env();
    let cluster = sharded_cluster(1, 5, 4);
    let dirs = make_dirs(&cluster, 8);
    let pair = cross_shard_dir_pair(&cluster, &dirs).expect("8 dirs over 4 shards");
    let mut fsc = FsClient::new(cluster);
    let h = fsc
        .create_with_policy(
            &format!("{}/f", pair.0),
            LayoutSpec::SINGLE,
            FilePolicy::Replicated {
                k: 3,
                strategy: BcastStrategy::Ring,
            },
        )
        .expect("create");
    let mut plan = FaultPlan::new(seed).on(
        FaultPoint::AfterWrites(1),
        FaultAction::FailRandomOf(vec![0, 1, 2, 3, 4]),
    );
    let payload: Vec<u8> = (0..16_384u32).map(|i| (i % 251) as u8).collect();
    fsc.write_at(&h, 0, &payload).expect("write");
    plan.note_write(&mut fsc); // a storage node dies here

    // The rename dies between intent and apply: two participants, so
    // the second append is the last `Intent`.
    fsc.cluster.control.borrow_mut().crash_after_appends(2);
    let from = format!("{}/f", pair.0);
    let to = format!("{}/f", pair.1);
    let err = fsc
        .cluster
        .control
        .borrow_mut()
        .rename(&from, &to, 1)
        .unwrap_err();
    assert_eq!(err, MetaError::TxAborted);
    assert!(
        fsc.cluster.control.borrow_mut().lookup_path(&from).is_ok(),
        "killed before the apply: the namespace never moved"
    );

    // Recovery rolls the dangling intents back, repair re-protects the
    // extent the dead node stranded, and the file reads back whole.
    let rec = fsc.cluster.control.borrow_mut().recover_shards();
    assert_eq!(
        rec,
        TxRecovery {
            rolled_forward: 0,
            rolled_back: 1
        },
        "seed {seed:#x}"
    );
    let report = drain_repairs_with_faults(&mut fsc, &mut plan);
    assert!(report.converged(), "seed {seed:#x}: {report:?}");
    assert_bytes_converged(&mut fsc, &h, &payload, "mid-rename-kill");
    // The killed rename retries cleanly after recovery.
    fsc.cluster
        .control
        .borrow_mut()
        .rename(&from, &to, 2)
        .expect("retry");
    assert!(fsc.cluster.control.borrow_mut().lookup_path(&to).is_ok());
    assert_hosted_conserved(&fsc.cluster, "mid-rename-kill");
    assert_span_hygiene(&fsc.cluster, "mid-rename-kill");
}

#[test]
fn crash_after_apply_is_durable_despite_the_lost_ack() {
    // A kill on the other side of the apply, driven through a live
    // cluster: the mutation applied but the ack was lost. Recovery must
    // roll forward — the client's retry then observes the rename
    // already done.
    let cluster = sharded_cluster(1, 3, 4);
    let dirs = make_dirs(&cluster, 8);
    let pair = cross_shard_dir_pair(&cluster, &dirs).expect("8 dirs over 4 shards");
    cluster
        .control
        .borrow_mut()
        .create_file_at(
            &format!("{}/f", pair.0),
            LayoutSpec::SINGLE,
            FilePolicy::Plain,
        )
        .expect("create");
    // Two `Intent`s, then the coordinator's `Applied` is the third append.
    cluster.control.borrow_mut().crash_after_appends(3);
    let from = format!("{}/f", pair.0);
    let to = format!("{}/f", pair.1);
    assert_eq!(
        cluster.control.borrow_mut().rename(&from, &to, 1),
        Err(MetaError::TxAborted)
    );
    assert!(
        cluster.control.borrow_mut().lookup_path(&to).is_ok(),
        "applied before the crash"
    );
    let rec = cluster.control.borrow_mut().recover_shards();
    assert_eq!(rec.rolled_forward, 1);
    assert_eq!(rec.rolled_back, 0);
    // Idempotent, and the logs are clean for the next transaction.
    assert_eq!(
        cluster.control.borrow_mut().recover_shards(),
        TxRecovery::default()
    );
    assert_eq!(
        cluster.control.borrow_mut().rename(&from, &to, 2),
        Err(MetaError::NotFound),
        "retry sees the rename already applied (source gone)"
    );
}

#[test]
fn meta_storm_spreads_over_the_shard_space() {
    // Satellite check for the interleaved MetaWorkload: the storm's
    // mutations and lookups must land on every shard, with no shard
    // absorbing a majority — the pre-fix d-major create order produced
    // long same-parent runs that serialized on one shard.
    let mut cl = sharded_cluster(2, 3, 4);
    let w = MetaWorkload::new("/storm")
        .with_dirs(8, 12)
        .with_storm(128)
        .with_seed(7);
    w.prepare(&cl.control);
    let mut n = 0;
    for c in 0..2 {
        for j in w.jobs_for_client(c) {
            cl.submit(c, j);
            n += 1;
        }
    }
    cl.start();
    assert_eq!(cl.run_until_metas(n, 20_000), n);
    {
        let results = cl.results.borrow();
        assert!(results.metas.iter().all(|m| m.result.is_ok()));
    }
    let stats = cl.control.borrow().shard_stats();
    let ops: Vec<u64> = stats.iter().map(|s| s.ops).collect();
    let total: u64 = ops.iter().sum();
    assert!(
        ops.iter().all(|&o| o > 0),
        "every shard participates: {ops:?}"
    );
    assert!(
        ops.iter().all(|&o| o < total * 6 / 10),
        "no shard absorbs a majority of {total}: {ops:?}"
    );
    // The queueing model saw the storm: some op somewhere waited.
    let mutations: u64 = stats.iter().map(|s| s.mutations).sum();
    assert!(mutations > 0);
}

/// A cache-on client's write-back flush hands the control plane its dirty
/// inos in the same order in every run, so the shard the batch is charged
/// to (the first ino's) and the engine's schedule repeat. Three clusters
/// built in one process hash a `std` table three ways: that is how the
/// unordered drain showed.
#[test]
fn writeback_flush_is_charged_to_the_same_shard_every_run() {
    let run = || {
        let mut cl = sharded_cluster(1, 4, 4);
        let files: Vec<u64> = (0..8)
            .map(|_| cl.control.borrow_mut().create_file(0, FilePolicy::Plain).id)
            .collect();
        let shards: std::collections::BTreeSet<usize> = files
            .iter()
            .map(|&f| cl.control.borrow().shard_of(f))
            .collect();
        assert!(shards.len() >= 2, "the 8 files span shards: {shards:?}");
        for (seed, &file) in files.iter().enumerate() {
            let size = 4096;
            let protocol = WriteProtocol::Raw;
            let seed = seed as u64;
            cl.submit(
                0,
                Job::Write {
                    file,
                    size,
                    protocol,
                    seed,
                },
            );
        }
        cl.start();
        assert_eq!(cl.run_until_writes(8, 1_000), 8);
        let flushes = cl.client_caches[0].borrow().stats.writeback_flushes;
        assert_eq!(flushes, 1, "the eighth dirty file flushes the batch");
        let stats = format!("{:?}", cl.control.borrow().shard_stats());
        (stats, cl.engine.order_digest())
    };
    let first = run();
    for _ in 0..2 {
        assert_eq!(run(), first);
    }
}

#[test]
fn shard_metrics_are_exported_per_shard() {
    let cluster = sharded_cluster(1, 3, 4);
    let dirs = make_dirs(&cluster, 4);
    cluster
        .control
        .borrow_mut()
        .create_file_at(
            &format!("{}/f", dirs[0]),
            LayoutSpec::SINGLE,
            FilePolicy::Plain,
        )
        .expect("create");
    let fsc = FsClient::new(cluster);
    let snap = fsc.metrics_snapshot();
    for i in 0..4 {
        for c in [
            "ops",
            "mutations",
            "resolves",
            "queue_wait_ps",
            "cross_shard_txns",
            "compactions",
            "records_dropped",
        ] {
            assert!(
                snap.counter(&format!("meta.shard.{i}.{c}")).is_some(),
                "snapshot lost counter meta.shard.{i}.{c}"
            );
        }
        assert!(
            snap.gauge(&format!("meta.shard.{i}.log_len")).is_some(),
            "snapshot lost gauge meta.shard.{i}.log_len"
        );
    }
    let total_ops: u64 = (0..4)
        .filter_map(|i| snap.counter(&format!("meta.shard.{i}.ops")))
        .sum();
    assert!(total_ops >= 5, "mkdirs + create all counted: {total_ops}");
    let total_log: f64 = (0..4)
        .filter_map(|i| snap.gauge(&format!("meta.shard.{i}.log_len")))
        .sum();
    assert!(total_log >= 5.0, "every mutation logged: {total_log}");
}

// ---------------------------------------------------------------------
// The crash sweep: kill each kind of cross-shard transaction after every
// one of its op-log appends, and hold recovery to the single-shard
// shadow that did (or did not) run the op.
// ---------------------------------------------------------------------

const SWEEP_DIRS: usize = 8;
const SWEEP_FILES: usize = 4;

/// Eight directories of four files, each file with one committed 4 KiB
/// extent, on a cluster whose storage nodes carry the hosted gauges. The
/// namespace does not depend on the shard count, so a 1-shard build is
/// the shadow of a 4-shard one.
fn sweep_fixture(shards: usize) -> SimCluster {
    let cl = sharded_cluster(1, 4, shards);
    for d in make_dirs(&cl, SWEEP_DIRS) {
        for f in 0..SWEEP_FILES {
            let mut c = cl.control.borrow_mut();
            let id = c
                .create_file_at(&format!("{d}/f{f}"), LayoutSpec::SINGLE, FilePolicy::Plain)
                .expect("create")
                .id;
            let p = c.place_write(id, 4096).expect("place");
            c.commit_write(id, &p, 4096);
        }
    }
    cl
}

/// Every entry under `/`, depth first, with its full attributes.
fn listing(cl: &SimCluster) -> Vec<(String, InodeAttr)> {
    let mut out = Vec::new();
    let mut stack = vec![String::new()];
    while let Some(dir) = stack.pop() {
        let at = if dir.is_empty() { "/" } else { dir.as_str() };
        for (name, attr) in cl.control.borrow_mut().readdir(at).expect("readdir") {
            let path = format!("{dir}/{name}");
            if attr.kind == InodeKind::Dir {
                stack.push(path.clone());
            }
            out.push((path, attr));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// One transaction under the sweep: a rename (`to` set) or an unlink of
/// `path`, and the file it deletes.
struct Swept {
    name: &'static str,
    participants: u32,
    path: String,
    to: Option<String>,
    /// The ino the applied op removes (replaced or unlinked), if any.
    removes: Option<u64>,
}

impl Swept {
    fn run(&self, cl: &SimCluster) -> Result<(), MetaError> {
        let mut c = cl.control.borrow_mut();
        match &self.to {
            Some(to) => c.rename(&self.path, to, 9),
            None => c.unlink(&self.path, 9).map(|_| ()),
        }
    }
}

/// Pick each op's paths off a 4-shard fixture so that its participants
/// hash to `participants` distinct shards.
fn swept_ops() -> Vec<Swept> {
    let cl = sweep_fixture(4);
    let dirs: Vec<String> = (0..SWEEP_DIRS).map(|i| format!("/t{i}")).collect();
    let ino = |p: &str| cl.control.borrow().namespace().resolve(p).expect("exists");
    let shard = |p: &str| cl.control.borrow().shard_of(ino(p));
    let files =
        |d: &str| -> Vec<String> { (0..SWEEP_FILES).map(|f| format!("{d}/f{f}")).collect() };

    let (from_dir, to_dir) = cross_shard_dir_pair(&cl, &dirs).expect("8 dirs over 4 shards");
    let rename = Swept {
        name: "rename",
        participants: 2,
        path: format!("{from_dir}/f0"),
        to: Some(format!("{to_dir}/moved")),
        removes: None,
    };

    // A target whose own shard is neither parent's: three participants.
    let over = files(&to_dir)
        .into_iter()
        .find(|t| ![shard(&from_dir), shard(&to_dir)].contains(&shard(t)))
        .expect("a file of the target directory on a third shard");
    let replace = Swept {
        name: "rename-replace",
        participants: 3,
        path: format!("{from_dir}/f1"),
        removes: Some(ino(&over)),
        to: Some(over),
    };

    let gone = dirs
        .iter()
        .flat_map(|d| files(d).into_iter().map(move |f| (d, f)))
        .find(|(d, f)| shard(d) != shard(f))
        .map(|(_, f)| f)
        .expect("a file hashed apart from its directory");
    let unlink = Swept {
        name: "unlink",
        participants: 2,
        removes: Some(ino(&gone)),
        path: gone,
        to: None,
    };
    vec![rename, replace, unlink]
}

#[test]
fn every_append_of_a_cross_shard_transaction_is_a_survivable_crash_point() {
    for op in swept_ops() {
        let p = op.participants;
        let before = listing(&sweep_fixture(1));
        let after = {
            let shadow = sweep_fixture(1);
            op.run(&shadow).expect("the shadow runs the op");
            listing(&shadow)
        };
        assert_ne!(
            before, after,
            "{}: the op must change the namespace",
            op.name
        );

        let logged =
            |cl: &SimCluster| -> usize { cl.control.borrow().shard_log_lens().iter().sum() };
        let mut kills = 0;
        for n in 1.. {
            let ctx = format!("{} killed after append {n}", op.name);
            let cl = sweep_fixture(4);
            let logged_before = logged(&cl);
            cl.control.borrow_mut().crash_after_appends(n);
            match op.run(&cl) {
                Ok(()) => {
                    assert_eq!(listing(&cl), after, "{ctx}: survived, so applied");
                    break;
                }
                Err(e) => assert_eq!(e, MetaError::TxAborted, "{ctx}"),
            }
            kills += 1;
            assert_eq!(logged(&cl) - logged_before, n as usize, "{ctx}: died there");

            // p `Intent`s, then `Applied`, then p `Commit`s: the op took
            // effect iff the kill came after `Applied`, and something is
            // left dangling unless the kill came after the last `Commit`
            // (only the ack was lost).
            let applied = n > p;
            let expect = match n {
                _ if n <= p => TxRecovery {
                    rolled_forward: 0,
                    rolled_back: 1,
                },
                _ if n <= 2 * p => TxRecovery {
                    rolled_forward: 1,
                    rolled_back: 0,
                },
                _ => TxRecovery::default(),
            };
            assert_eq!(cl.control.borrow_mut().recover_shards(), expect, "{ctx}");
            assert_eq!(
                cl.control.borrow_mut().recover_shards(),
                TxRecovery::default(),
                "{ctx}: recovery is idempotent"
            );

            // The namespace is the shadow's, and the per-file records
            // follow it: one for every live file, none for a removed one,
            // and the removed one's extents left the hosted gauges once.
            let now = listing(&cl);
            assert_eq!(&now, if applied { &after } else { &before }, "{ctx}");
            for (path, attr) in &now {
                if attr.kind == InodeKind::File {
                    let c = cl.control.borrow();
                    assert_eq!(
                        c.lookup(attr.ino).map(|m| m.id),
                        Ok(attr.ino),
                        "{ctx}: {path}"
                    );
                }
            }
            if let Some(ino) = op.removes {
                let known = cl.control.borrow().lookup(ino).is_ok();
                assert_eq!(known, !applied, "{ctx}: the removed file's record");
            }
            assert_hosted_conserved(&cl, &ctx);

            // And the plane is whole: a rolled-back op simply runs again.
            if !applied {
                op.run(&cl).expect("retry after rollback");
                assert_eq!(listing(&cl), after, "{ctx}: retried");
                assert_hosted_conserved(&cl, &ctx);
            }
        }
        assert_eq!(
            kills,
            2 * p + 1,
            "{}: every append was a kill point",
            op.name
        );
    }
}

#[test]
fn one_recovery_resolves_two_transactions_left_dangling_at_once() {
    let cl = sweep_fixture(4);
    let mut ops = swept_ops().into_iter();
    let (rename, unlink) = (ops.next().expect("rename"), ops.nth(1).expect("unlink"));
    assert_eq!((rename.name, unlink.name), ("rename", "unlink"));
    let to = rename.to.as_deref().expect("a rename");
    let (from_dir, to_dir) = (parent_dir(&rename.path), parent_dir(to));

    // Killed after both intents: no witness, so it rolls back.
    cl.control.borrow_mut().crash_after_appends(2);
    assert_eq!(rename.run(&cl), Err(MetaError::TxAborted));

    // A cross-shard op between the two kills completes and leaves
    // nothing to resolve.
    {
        let mut c = cl.control.borrow_mut();
        let (from, to) = (format!("{from_dir}/fresh"), format!("{to_dir}/fresh"));
        c.create_file_at(&from, LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("create");
        c.rename(&from, &to, 9).expect("cross-shard rename");
    }

    // Killed right after the coordinator's `Applied`: it rolls forward.
    cl.control.borrow_mut().crash_after_appends(3);
    assert_eq!(unlink.run(&cl), Err(MetaError::TxAborted));

    let rec = cl.control.borrow_mut().recover_shards();
    assert_eq!(
        rec,
        TxRecovery {
            rolled_forward: 1,
            rolled_back: 1
        }
    );
    assert_eq!(
        cl.control.borrow_mut().recover_shards(),
        TxRecovery::default(),
        "nothing left dangling"
    );
    let mut c = cl.control.borrow_mut();
    assert!(
        c.lookup_path(&rename.path).is_ok(),
        "the rename rolled back"
    );
    assert!(c.lookup_path(to).is_err());
    assert!(
        c.lookup_path(&unlink.path).is_err(),
        "the unlink rolled forward"
    );
    assert!(c.lookup_path(&format!("{to_dir}/fresh")).is_ok());
    // 8 mkdirs, 32 creates and 32 commits, then the three transactions
    // and the create, and one `Abort` and one `Commit` per participant
    // that recovery resolved.
    assert_eq!(c.shard_log_lens(), vec![16, 24, 35, 12]);
}

fn parent_dir(path: &str) -> &str {
    &path[..path.rfind('/').expect("an absolute path")]
}

// ---------------------------------------------------------------------
// Property: a 4-shard plane is observationally identical to a 1-shard
// shadow under arbitrary namespace op sequences — same per-op results,
// same final namespace. Only the queueing/telemetry may differ.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum NsOp {
    Create {
        dir: usize,
        file: usize,
    },
    Rename {
        from: (usize, usize),
        to: (usize, usize),
    },
    Unlink {
        dir: usize,
        file: usize,
    },
    Lookup {
        dir: usize,
        file: usize,
    },
}

const DIRS: usize = 4;
const FILES: usize = 5;

fn path_of(dir: usize, file: usize) -> String {
    format!("/p{}/f{}", dir % DIRS, file % FILES)
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    (0u8..4, 0..DIRS, 0..FILES, 0..DIRS, 0..FILES).prop_map(|(kind, a, b, c, d)| match kind {
        0 => NsOp::Create { dir: a, file: b },
        1 => NsOp::Rename {
            from: (a, b),
            to: (c, d),
        },
        2 => NsOp::Unlink { dir: a, file: b },
        _ => NsOp::Lookup { dir: a, file: b },
    })
}

fn apply(cp: &std::rc::Rc<std::cell::RefCell<ControlPlane>>, op: &NsOp, t: u64) -> String {
    let mut c = cp.borrow_mut();
    match op {
        NsOp::Create { dir, file } => format!(
            "{:?}",
            c.create_file_at(&path_of(*dir, *file), LayoutSpec::SINGLE, FilePolicy::Plain)
                .map(|m| m.id)
        ),
        NsOp::Rename { from, to } => format!(
            "{:?}",
            c.rename(&path_of(from.0, from.1), &path_of(to.0, to.1), t)
        ),
        NsOp::Unlink { dir, file } => {
            format!("{:?}", c.unlink(&path_of(*dir, *file), t).map(|a| a.ino))
        }
        NsOp::Lookup { dir, file } => {
            format!("{:?}", c.lookup_path(&path_of(*dir, *file)).map(|a| a.ino))
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sharded_plane_matches_single_shard_shadow(ops in vec(ns_op(), 1..40)) {
        let sharded = ControlPlane::new_sharded(7, vec![4, 5, 6], 4);
        let shadow = ControlPlane::new_sharded(7, vec![4, 5, 6], 1);
        for cp in [&sharded, &shadow] {
            for d in 0..DIRS {
                cp.borrow_mut().mkdir_p(&format!("/p{d}"), 0).expect("mkdir");
            }
        }
        for (t, op) in ops.iter().enumerate() {
            let a = apply(&sharded, op, t as u64);
            let b = apply(&shadow, op, t as u64);
            prop_assert_eq!(a, b, "op {:?} diverged", op);
        }
        // Final namespace: identical listings, identical inos.
        for d in 0..DIRS {
            let list = |cp: &std::rc::Rc<std::cell::RefCell<ControlPlane>>| {
                let mut l: Vec<(String, u64)> = cp
                    .borrow_mut()
                    .readdir(&format!("/p{d}"))
                    .expect("readdir")
                    .into_iter()
                    .map(|(n, a)| (n, a.ino))
                    .collect();
                l.sort();
                l
            };
            prop_assert_eq!(list(&sharded), list(&shadow));
        }
        // Shard logs all clean: no dangling transactions in either plane.
        prop_assert_eq!(sharded.borrow_mut().recover_shards(), TxRecovery::default());
        prop_assert_eq!(shadow.borrow_mut().recover_shards(), TxRecovery::default());
    }

    // Crash/recovery equivalence: killing a seed-chosen cross-shard op
    // mid-flight and recovering leaves the sharded plane equal to a
    // shadow that simply skipped (rolled back) or applied (rolled
    // forward) that op.
    #[test]
    fn killed_transactions_recover_to_a_consistent_namespace(
        ops in vec(ns_op(), 4..24),
        kill_at in 0usize..24,
        crash_after in 1u32..9,
    ) {
        let sharded = ControlPlane::new_sharded(7, vec![4, 5, 6], 4);
        for d in 0..DIRS {
            sharded.borrow_mut().mkdir_p(&format!("/p{d}"), 0).expect("mkdir");
        }
        let kill_at = kill_at % ops.len();
        let mut killed_outcomes: Vec<String> = Vec::new();
        for (t, op) in ops.iter().enumerate() {
            if t == kill_at {
                sharded.borrow_mut().crash_after_appends(crash_after);
            }
            let r = apply(&sharded, op, t as u64);
            if t == kill_at {
                killed_outcomes.push(r);
            }
        }
        let rec = sharded.borrow_mut().recover_shards();
        // At most one transaction can dangle (one armed kill)...
        prop_assert!(rec.rolled_forward + rec.rolled_back <= 1);
        // ...and recovery is idempotent and leaves a working plane.
        prop_assert_eq!(sharded.borrow_mut().recover_shards(), TxRecovery::default());
        let mut c = sharded.borrow_mut();
        c.mkdir_p("/post", 99).expect("plane still mutable");
        c.create_file_at("/post/f", LayoutSpec::SINGLE, FilePolicy::Plain)
            .expect("plane still creates");
        for d in 0..DIRS {
            c.readdir(&format!("/p{d}")).expect("namespace intact");
        }
    }
}
