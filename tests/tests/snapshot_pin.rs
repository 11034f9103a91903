//! The whole metrics snapshot, pinned: `metrics_snapshot().to_json()` of
//! two deterministic runs (engine profiling off, so no host-clock value
//! enters) must equal the committed text under `tests/snapshots/`, key
//! for key and value for value.
//!
//! - `mixed_spin.json` is `examples/trace_export`'s run (1 client, 6 sPIN
//!   storage nodes): an EC write, cached, uncached, RPC and degraded
//!   reads, one repair drain. It covers the `storage`, `client`, `nic`,
//!   `pspin`, `repair`, `meta.shard.0`, `flow`, `fabric`, `engine` and
//!   `spans` families.
//! - `plain_tenants.json` is a `Plain` cluster with QoS on, 2 clients
//!   grouped into one tenant and 2 metadata shards. It covers `tenant.*`,
//!   `meta.shard.1.*` and a snapshot without `pspin.*`.
//!
//! A change that moves a key or a value on purpose re-pins the file: the
//! failing run prints the whole document it produced (`-- --nocapture`).

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, QosConfig, ReadProtocol, SimCluster, StorageMode,
};
use nadfs_wire::RsScheme;

/// Diff `actual` against the pinned `expected`, naming the first line
/// that differs.
fn assert_pinned(name: &str, expected: &str, actual: &str) {
    if expected == actual {
        return;
    }
    eprintln!("--- {name} as this run produced it ---\n{actual}--- end {name} ---");
    let (mut e, mut a) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (e.next(), a.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => break,
            (x, y) => panic!(
                "{name} differs from its pin at line {line}:\n  pinned: {}\n  actual: {}",
                x.unwrap_or("<end>"),
                y.unwrap_or("<end>")
            ),
        }
    }
    panic!("{name} differs from its pin in line endings only");
}

/// `examples/trace_export`'s run, op for op.
fn mixed_spin() -> String {
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);
    fs.mkdir_p("/obs").expect("mkdir");
    let file = fs
        .create_with_policy(
            "/obs/data.bin",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    let data: Vec<u8> = (0..240_000).map(|i| (i * 37 % 251) as u8).collect();
    let write = fs.append(&file, &data).expect("write");
    fs.read_at(&file, 0, data.len() as u32).expect("read");
    let again = fs
        .read_at(&file, 0, data.len() as u32)
        .expect("cached read");
    assert!(again.from_cache);
    let mut rpc_handle = fs.open("/obs/data.bin").expect("open");
    rpc_handle.read_protocol = ReadProtocol::Rpc;
    fs.drop_read_cache();
    fs.read_at(&rpc_handle, 0, data.len() as u32)
        .expect("rpc read");
    let failed_idx = fs
        .cluster
        .storage_index(write.placement.data_chunks[0].node as usize);
    fs.fail_storage_node(failed_idx);
    fs.drop_read_cache();
    let degraded = fs.read_at(&file, 0, data.len() as u32).expect("degraded");
    assert!(degraded.degraded_stripes > 0);
    assert!(fs.drain_repairs().converged());
    format!("{}\n", fs.metrics_snapshot().to_json())
}

/// Two clients of one tenant on a QoS-scheduled `Plain` cluster whose
/// namespace is split over two metadata shards: each client makes a
/// directory and a striped file, writes it and reads both files.
fn plain_tenants() -> String {
    let qos = QosConfig {
        enabled: true,
        ..Default::default()
    };
    let spec = ClusterSpec::new(2, 3, StorageMode::Plain)
        .with_meta_shards(2)
        .with_qos(qos);
    let cluster = SimCluster::build(spec);
    cluster.set_client_tenant(0, 9);
    cluster.set_client_tenant(1, 9);
    let data: Vec<u8> = (0..96_000).map(|i| (i * 13 % 241) as u8).collect();
    let mut files = Vec::new();
    let mut cluster = Some(cluster);
    for (client, dir) in [(0, "/a"), (1, "/b")] {
        let mut fs = FsClient::for_client(cluster.take().expect("cluster"), client);
        fs.mkdir_p(dir).expect("mkdir");
        let path = format!("{dir}/f");
        let h = fs
            .create(&path, LayoutSpec::striped(3, 16 << 10))
            .expect("create");
        fs.append(&h, &data).expect("write");
        files.push(path);
        for p in &files {
            let h = fs.open(p).expect("open");
            let r = fs.read_at(&h, 0, data.len() as u32).expect("read");
            assert_eq!(r.data.as_ref(), &data[..]);
        }
        cluster = Some(fs.into_cluster());
    }
    let cluster = cluster.expect("cluster");
    format!("{}\n", cluster.metrics_snapshot().to_json())
}

#[test]
fn mixed_spin_snapshot_matches_its_pin() {
    let pinned = include_str!("../snapshots/mixed_spin.json");
    assert_pinned("mixed_spin.json", pinned, &mixed_spin());
}

#[test]
fn plain_tenants_snapshot_matches_its_pin() {
    let pinned = include_str!("../snapshots/plain_tenants.json");
    assert_pinned("plain_tenants.json", pinned, &plain_tenants());
}
