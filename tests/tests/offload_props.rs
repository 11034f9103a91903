//! Property test for the read-side NIC offload's correctness contract:
//! under arbitrary write/read interleavings with a scripted node kill
//! (the [`FaultPlan`] harness), every offloaded gather read — normal,
//! degraded-reconstructed on the NIC, and racing asynchronous readahead
//! fills against overwrites — is byte-identical to the CPU fan-out path
//! and to a shadow model of the file. Generation-keyed fills may lose
//! the race to an overwrite, but must then miss, never serve stale.
//!
//! The deterministic cases below it pin what the streaming decode can get
//! wrong and a random scenario rarely hits: ranges that graze a lost
//! chunk by a byte, end beside a packet boundary or in the chunk's short
//! last packet, or cross stripes; two lost chunks in one stripe; a lone
//! surviving parity; two decodes sharing a coordinator.

use nadfs_core::{
    ClusterSpec, FileHandle, FilePolicy, FsClient, Job, LayoutSpec, ReadProtocol, SimCluster,
    StorageMode,
};
use nadfs_tests::{
    assert_bytes_converged, assert_hosted_conserved, degraded_rs32_file, drain_repairs_with_faults,
    seed_from_env, FaultAction, FaultPlan, FaultPoint,
};
use nadfs_wire::{BcastStrategy, RsScheme};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Policy {
    Ec,
    Replicated,
}

#[derive(Clone, Debug)]
enum Step {
    /// `pwrite` of a deterministic payload; overlapping ranges overwrite
    /// (and race any in-flight background readahead fill).
    Write { offset: u64, len: usize },
    /// Offloaded gather read, compared byte-for-byte against the model.
    Read { offset: u64, len: u32 },
}

#[derive(Clone, Debug)]
struct Scenario {
    policy: Policy,
    steps: Vec<Step>,
    /// The scripted kill fires after this many completed writes — later
    /// offloaded reads reconstruct on the NIC (may be past the end).
    fail_after: u32,
    /// Drain the repair queue after this step index.
    drain_after: usize,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..2, 0u64..60_000, 2_000usize..30_000, 1u32..80_000).prop_map(
        |(kind, offset, wlen, rlen)| {
            if kind == 0 {
                Step::Write {
                    offset: offset % 40_000,
                    len: wlen,
                }
            } else {
                Step::Read { offset, len: rlen }
            }
        },
    )
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (0u8..2).prop_map(|k| {
            if k == 0 {
                Policy::Ec
            } else {
                Policy::Replicated
            }
        }),
        proptest::collection::vec(step(), 2..9),
        0u32..4,
        0usize..9,
    )
        .prop_map(|(policy, steps, fail_after, drain_after)| Scenario {
            policy,
            drain_after: drain_after.min(steps.len()),
            steps,
            fail_after,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn offloaded_reads_equal_cpu_fanout_equal_shadow_model(s in scenario()) {
        let mut fsc = FsClient::new(SimCluster::build(ClusterSpec::new(
            1,
            5,
            StorageMode::Spin,
        )));
        fsc.mkdir_p("/p").expect("mkdir");
        let file_policy = match s.policy {
            Policy::Ec => FilePolicy::ErasureCoded { scheme: RsScheme::new(2, 1) },
            Policy::Replicated => FilePolicy::Replicated { k: 2, strategy: BcastStrategy::Ring },
        };
        let h = fsc
            .create_with_policy("/p/f", LayoutSpec::SINGLE, file_policy)
            .expect("create");
        let off = h.clone().with_read_protocol(ReadProtocol::Offloaded);

        let mut plan = FaultPlan::new(seed_from_env()).on(
            FaultPoint::AfterWrites(s.fail_after.max(1)),
            FaultAction::FailRandomOf(vec![0, 1, 2, 3, 4]),
        );

        // Shadow model of the file's logical bytes. The cache stays on
        // throughout, so offloaded reads race their own background
        // readahead fills against the interleaved overwrites.
        let mut model: Vec<u8> = Vec::new();
        for (i, st) in s.steps.iter().enumerate() {
            if i == s.drain_after {
                let report = drain_repairs_with_faults(&mut fsc, &mut plan);
                prop_assert!(report.converged(), "mid-run drain gave up: {report:?}");
            }
            match *st {
                Step::Write { offset, len } => {
                    let data: Vec<u8> = (0..len)
                        .map(|b| (b as u64 ^ offset ^ ((i as u64) << 3)) as u8)
                        .collect();
                    fsc.write_at(&h, offset, &data).expect("write");
                    let end = offset as usize + len;
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[offset as usize..end].copy_from_slice(&data);
                    plan.note_write(&mut fsc);
                }
                Step::Read { offset, len } => {
                    let r = fsc.read_at(&off, offset, len).expect("offloaded read");
                    let lo = (offset as usize).min(model.len());
                    let hi = (offset as usize).saturating_add(len as usize).min(model.len());
                    prop_assert_eq!(r.len as usize, hi - lo, "short-read clamp at step {}", i);
                    prop_assert_eq!(
                        r.data.as_ref(),
                        &model[lo..hi],
                        "offloaded read ≠ shadow model at step {} (from_cache={}, degraded={})",
                        i,
                        r.from_cache,
                        r.degraded_stripes
                    );
                    plan.note_read(&mut fsc);
                }
            }
        }

        // Degraded (post-kill, pre-repair) equivalence on the wire: the
        // whole file through NIC-side gather reconstruction vs the
        // client-side CPU fan-out, both cold.
        if !model.is_empty() {
            fsc.drop_read_cache();
            let gathered = fsc.read_at(&off, 0, model.len() as u32).expect("gather");
            prop_assert_eq!(gathered.data.as_ref(), &model[..], "gather ≠ model");
            fsc.drop_read_cache();
            let mut cpu = h.clone();
            cpu.read_protocol = ReadProtocol::Rpc;
            let fanout = fsc.read_at(&cpu, 0, model.len() as u32).expect("cpu fan-out");
            prop_assert_eq!(fanout.data.as_ref(), &model[..], "cpu fan-out ≠ model");
            prop_assert_eq!(gathered.checksum, fanout.checksum);
        }

        // Converge and prove the equivalence again on the healthy layout
        // via the shared checkpoint helpers: non-degraded byte-identical
        // reads, with the hosted-capacity gauges conserved.
        let report = fsc.drain_repairs();
        prop_assert!(report.converged(), "final drain gave up: {report:?}");
        if !model.is_empty() {
            fsc.drop_read_cache();
            assert_bytes_converged(&mut fsc, &off, &model, "post-drain offload");
        }
        assert_hosted_conserved(&fsc.cluster, "post-drain offload");
    }
}

/// Bytes of one RS(3,2) stripe in the deterministic cases: chunks of
/// 20 000 bytes, ten full 1978-byte packets and a 220-byte last one.
const STRIPE: usize = 60_000;
const CHUNK: u64 = 20_000;
const PKT: u64 = 1978;

fn degraded_file(stripes: usize, lose: &[usize]) -> (FsClient, FileHandle, Vec<u8>) {
    degraded_rs32_file(STRIPE, stripes, lose)
}

/// `[off, off + len)` through the NIC decode and through the client-side
/// fan-out, both against the bytes written.
fn assert_offload_equals_fanout(
    fsc: &mut FsClient,
    h: &FileHandle,
    data: &[u8],
    off: u64,
    len: u64,
) {
    let want = &data[off as usize..(off + len) as usize];
    let rebuilt_before: u64 = nic_chunks_rebuilt(fsc);
    let gather = h.clone().with_read_protocol(ReadProtocol::Offloaded);
    let g = fsc.read_at(&gather, off, len as u32).expect("offloaded");
    assert_eq!(g.data.as_ref(), want, "offloaded ≠ written at {off}+{len}");
    assert!(
        g.degraded_stripes > 0,
        "{off}+{len} must touch a lost chunk"
    );
    assert!(nic_chunks_rebuilt(fsc) > rebuilt_before, "decoded on a NIC");
    let fanout = h.clone().with_read_protocol(ReadProtocol::Rdma);
    let f = fsc.read_at(&fanout, off, len as u32).expect("fan-out");
    assert_eq!(f.data.as_ref(), want, "fan-out ≠ written at {off}+{len}");
    assert_eq!(g.checksum, f.checksum);
}

fn nic_chunks_rebuilt(fsc: &FsClient) -> u64 {
    let stats = fsc.cluster.nic_stats.iter();
    stats.map(|s| s.borrow().chunks_reconstructed).sum()
}

#[test]
fn reads_that_graze_a_lost_chunk_decode_exactly() {
    // Data chunk 1 of every stripe is lost: bytes [20 000, 40 000) of it.
    let (mut fsc, h, data) = degraded_file(2, &[1]);
    let (cs, ce) = (CHUNK, 2 * CHUNK);
    for (off, len) in [
        (cs - 100, 101),                         // one byte of the lost chunk, at its head
        (ce - 1, 101),                           // one byte, at its tail
        (cs, 2 * PKT - 1),                       // ends a byte short of a packet boundary
        (cs + 2 * PKT - 1, 2),                   // straddles that boundary
        (cs + 9 * PKT + 7, CHUNK - 9 * PKT - 7), // into the short last packet
        (ce - 220, 220),                         // the short last packet alone
        (cs + 5_000, STRIPE as u64),             // two stripes, both lost chunks
        (0, 2 * STRIPE as u64),                  // everything
    ] {
        assert_offload_equals_fanout(&mut fsc, &h, &data, off, len);
    }
}

#[test]
fn two_failed_nodes_decode_two_rows_or_lean_on_the_last_parity() {
    // Two data chunks lost: one gather, two decode rows, both parities
    // among the survivors.
    let (mut fsc, h, data) = degraded_file(3, &[0, 2]);
    assert_offload_equals_fanout(&mut fsc, &h, &data, 0, data.len() as u64);
    assert_offload_equals_fanout(&mut fsc, &h, &data, CHUNK - 1, 2 + CHUNK);
    // A data chunk and a parity lost: the surviving parity is the only
    // one the rotation can pick, whatever the record id.
    let (mut fsc, h, data) = degraded_file(3, &[1, 3]);
    assert_offload_equals_fanout(&mut fsc, &h, &data, 0, data.len() as u64);
    let (mut fsc, h, data) = degraded_file(3, &[1, 4]);
    assert_offload_equals_fanout(&mut fsc, &h, &data, 0, data.len() as u64);
}

#[test]
fn two_decodes_in_flight_on_one_coordinator_stay_apart() {
    // Two disjoint ranges of one stripe's lost chunk, issued together:
    // same extent record, so the same coordinator runs both decodes.
    let (fsc, h, data) = degraded_file(1, &[1]);
    let mut cl = fsc.into_cluster();
    let ranges = [(CHUNK + 100, 9_000u32), (CHUNK + 9_100, 10_000u32)];
    for (i, &(offset, len)) in ranges.iter().enumerate() {
        cl.submit(
            0,
            Job::Read {
                file: h.id(),
                offset,
                len,
                protocol: ReadProtocol::Offloaded,
                token: i as u64,
                slot: None,
            },
        );
    }
    cl.start();
    assert_eq!(cl.run_until_file_reads(2, 1_000), 2);
    let reads = cl.results.borrow().file_reads.clone();
    for r in &reads {
        let (off, len) = ranges[r.token as usize];
        assert_eq!(
            r.data.as_ref(),
            &data[off as usize..off as usize + len as usize]
        );
    }
    assert!(
        reads[0].start < reads[1].end && reads[1].start < reads[0].end,
        "the two reads must overlap in time"
    );
    let per_nic: Vec<u64> = cl
        .nic_stats
        .iter()
        .map(|s| s.borrow().chunks_reconstructed)
        .collect();
    assert_eq!(per_nic.iter().sum::<u64>(), 2);
    assert_eq!(
        per_nic.iter().filter(|&&n| n > 0).count(),
        1,
        "one coordinator: {per_nic:?}"
    );
}
