//! Degraded reads and background repair: lose a storage node, keep
//! serving the bytes, then re-protect them.
//!
//! An RS(3,2) erasure-coded file is written through the per-packet
//! streaming TriEC path (§VI-B), a data node is then marked failed, and
//! `read_at` transparently reconstructs the missing chunk from the k
//! surviving data + parity shards using the cached decode matrices.
//! The same stripe is then read with `ReadProtocol::Offloaded`, which
//! moves the reconstruction onto a storage NIC, which decodes the
//! survivors as they stream in — the metrics delta proves the client
//! decoded nothing. The failure
//! also queues the extent for background repair: draining the queue
//! rebuilds the lost shard onto a spare node, after which reads resolve
//! through the normal path even with the node still dead.
//!
//! Run with: `cargo run --release -p nadfs-examples --example degraded_read`

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, ReadProtocol, SimCluster, StorageMode,
};
use nadfs_wire::RsScheme;

fn main() {
    // k + m = 5 storage nodes for the stripe plus one spare repair
    // domain, PsPIN mode: data chunks stream to k nodes while NIC
    // handlers multiply/aggregate the m parities.
    let scheme = RsScheme::new(3, 2);
    let cluster = SimCluster::build(ClusterSpec::new(1, 6, StorageMode::Spin));
    let mut fs = FsClient::new(cluster);

    fs.mkdir_p("/archive").expect("mkdir");
    let file = fs
        .create_with_policy(
            "/archive/block.dat",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded { scheme },
        )
        .expect("create");
    println!(
        "created {} with RS({},{}) — write protocol {:?}",
        file.path(),
        scheme.k,
        scheme.m,
        file.write_protocol
    );

    let data: Vec<u8> = (0..300_000).map(|i| (i * 31 % 253) as u8).collect();
    let write = fs.append(&file, &data).expect("write");
    println!(
        "wrote {} bytes across {} data + {} parity nodes in {:.2} us",
        data.len(),
        write.placement.data_chunks.len(),
        write.placement.parities.len(),
        (write.end - write.start).as_us()
    );

    // Healthy read: direct per-chunk fan-out.
    let healthy = fs.read_at(&file, 0, data.len() as u32).expect("read");
    assert_eq!(healthy.data.as_ref(), &data[..]);
    println!(
        "healthy read: {} bytes, {} degraded stripes, {:.2} us",
        healthy.len,
        healthy.degraded_stripes,
        (healthy.end - healthy.start).as_us()
    );

    // Fail the node holding data chunk 0.
    let failed_node = write.placement.data_chunks[0].node;
    let failed_idx = fs.cluster.storage_index(failed_node as usize);
    fs.fail_storage_node(failed_idx);
    println!("storage node {failed_node} marked FAILED");

    // The healthy read left the bytes in the client read cache, which
    // legally keeps serving them — a node failure changes nothing about
    // committed data. Drop the cache to demonstrate the degraded path.
    let absorbed = fs.read_at(&file, 0, data.len() as u32).expect("read");
    assert!(absorbed.from_cache, "failure does not invalidate the cache");
    println!("client cache still serves the file (no reconstruction needed)");
    fs.drop_read_cache();

    // Same read, uncached and now degraded: the client fetches the k
    // surviving shards, reconstructs the lost chunk through gfec's
    // cached decode matrices, and reassembles the original bytes.
    let degraded = fs
        .read_at(&file, 0, data.len() as u32)
        .expect("degraded read");
    assert_eq!(
        degraded.data.as_ref(),
        &data[..],
        "reconstruction must be exact"
    );
    assert_eq!(degraded.checksum, write.checksum);
    println!(
        "degraded read: {} bytes via {} reconstructed stripe(s), {:.2} us \
         (vs {:.2} us healthy)",
        degraded.len,
        degraded.degraded_stripes,
        (degraded.end - degraded.start).as_us(),
        (healthy.end - healthy.start).as_us()
    );

    // The same degraded stripe can instead reconstruct ON a storage
    // NIC: an offloaded gather read has one survivor's NIC fetch the
    // others' lost ranges NIC-to-NIC and decode them packet by packet
    // as they arrive, each rebuilt packet leaving for the client the
    // moment it is complete. The client never touches parity math —
    // the counter delta proves it.
    fs.drop_read_cache();
    let before = fs.metrics_snapshot();
    let gather_handle = file.clone().with_read_protocol(ReadProtocol::Offloaded);
    let offloaded = fs
        .read_at(&gather_handle, 0, data.len() as u32)
        .expect("offloaded degraded read");
    assert_eq!(offloaded.data.as_ref(), &data[..]);
    assert_eq!(offloaded.checksum, write.checksum);
    let delta = fs.metrics_snapshot().delta(&before);
    let nic_sum = |suffix: &str| -> u64 {
        (0..6)
            .filter_map(|i| delta.counter(&format!("nic.{i}.gather.{suffix}")))
            .sum()
    };
    assert_eq!(
        delta
            .counter("client.0.read.reconstructed_stripes")
            .unwrap_or(0),
        0,
        "offloaded reads never decode on the client"
    );
    println!(
        "offloaded degraded read: {} bytes in {:.2} us — client reconstructs 0, \
         NIC reconstructs {}, {} survivor fetch(es) NIC-to-NIC, {} KiB streamed",
        offloaded.len,
        (offloaded.end - offloaded.start).as_us(),
        nic_sum("chunks_reconstructed"),
        nic_sum("remote_fetches"),
        nic_sum("bytes_streamed") >> 10
    );

    // The failure queued the extent for re-protection (and the degraded
    // read promoted it to the front). Drain the repair queue: the k
    // surviving shards are fetched over the NIC, the lost chunk is
    // rebuilt, written to a spare node, and the extent map re-homed.
    println!("repair backlog: {} extent(s)", fs.repair_backlog());
    let report = fs.drain_repairs();
    assert!(report.converged());
    println!(
        "repair drained: {} extent(s) re-protected, {} KiB moved over the data path",
        report.repaired,
        report.bytes_moved >> 10
    );

    // The failed node is STILL down, yet reads are direct again — the
    // shard now lives on the spare.
    let repaired = fs
        .read_at(&file, 0, data.len() as u32)
        .expect("post-repair read");
    assert_eq!(repaired.data.as_ref(), &data[..]);
    assert_eq!(repaired.degraded_stripes, 0, "re-homed: no reconstruction");
    println!(
        "post-repair read (node still failed): {} bytes, {} degraded stripes, {:.2} us",
        repaired.len,
        repaired.degraded_stripes,
        (repaired.end - repaired.start).as_us()
    );

    // Recovery of the original node changes nothing for this extent; a
    // later failure of the spare would queue it again.
    fs.recover_storage_node(failed_idx);
    let recovered = fs.read_at(&file, 0, data.len() as u32).expect("read");
    assert_eq!(recovered.degraded_stripes, 0);
    println!("node recovered; extent stays on its re-protected placement");
}
