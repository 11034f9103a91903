//! Degraded gathers leave nothing behind on the coordinator. They decode
//! in NIC memory: no survivor byte and no rebuilt byte is staged in the
//! coordinator's host memory, so there is no staging to collide with
//! live chunks or to leak.
//!
//! This file used to guard a staging allocator. The churn harness had
//! found it handing out addresses from the bottom of the address space
//! and never freeing them: around the third degraded gather on a node
//! the reconstruction slot crossed the placement base and overwrote the
//! first page of a live chunk. The stronger statement that holds now is
//! that a run of degraded gathers writes no host memory on any storage
//! node at all, and that every buffer the decode borrows from the ring
//! comes back.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, ReadProtocol, SimCluster, StorageMode,
};
use nadfs_tests::{assert_pool_hygiene, seed_from_env, SplitMix};
use nadfs_wire::RsScheme;

fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// What a storage node's host memory and DMA write channel have seen.
fn host_writes(fsc: &FsClient) -> Vec<(usize, u64, u64, u64)> {
    let mems = fsc.cluster.storage_mems.iter();
    mems.zip(&fsc.cluster.storage_dmas)
        .map(|(m, d)| {
            let (m, d) = (m.borrow(), d.borrow());
            (
                m.resident_pages(),
                m.bytes_written(),
                d.writes_issued,
                d.write_busy_ps,
            )
        })
        .collect()
}

#[test]
fn degraded_gathers_write_no_host_memory_and_return_every_buffer() {
    let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Spin)));
    fsc.mkdir_p("/gs").expect("mkdir");
    let h = fsc
        .create_with_policy(
            "/gs/f",
            LayoutSpec::SINGLE,
            FilePolicy::ErasureCoded {
                scheme: RsScheme::new(2, 1),
            },
        )
        .expect("create");
    let data = payload(seed_from_env() ^ 0x57A6, 256 << 10);
    fsc.append(&h, &data).expect("write");
    let off = h.clone().with_read_protocol(ReadProtocol::Offloaded);

    let w = fsc.cluster.results.borrow().writes[0].clone();
    let victim = fsc
        .cluster
        .storage_index(w.placement.data_chunks[0].node as usize);
    fsc.fail_storage_node(victim);

    let before = host_writes(&fsc);
    let pool_before = fsc.cluster.buf_pools[0].borrow().stats();
    let rebuilt_before: u64 = fsc
        .cluster
        .nic_stats
        .iter()
        .map(|s| s.borrow().chunks_reconstructed)
        .sum();
    for round in 0..6 {
        // Cold every round: each read decodes the lost chunk on the NIC
        // again and re-streams the healthy one.
        fsc.drop_read_cache();
        let r = fsc
            .read_at(&off, 0, data.len() as u32)
            .expect("degraded offloaded read");
        assert!(
            r.degraded_stripes >= 1,
            "round {round}: the failed chunk must reconstruct"
        );
        assert_eq!(r.data.as_ref(), &data[..], "round {round}");
    }
    let rebuilt: u64 = fsc
        .cluster
        .nic_stats
        .iter()
        .map(|s| s.borrow().chunks_reconstructed)
        .sum();
    assert!(
        rebuilt >= rebuilt_before + 6,
        "every round decoded on a NIC"
    );
    assert_eq!(
        host_writes(&fsc),
        before,
        "a degraded gather staged bytes in a storage node's host memory"
    );
    // The accumulators came from the ring (the decode's only draw on it
    // during a read-only run) and every one went back: returns can only
    // exceed loans, by buffers the ring never lent.
    let pool = fsc.cluster.buf_pools[0].borrow().stats();
    let (lent, back) = (pool.gets - pool_before.gets, pool.puts - pool_before.puts);
    assert!(lent > 0, "the decode draws its accumulators from the ring");
    assert!(back >= lent, "ring lent {lent} buffers, got back {back}");
    assert_pool_hygiene(&fsc.cluster, "degraded gathers");
}
