//! Property tests for the offset/len → stripe-extent mapping and the
//! extent-map read resolution: ragged tails, cross-stripe ranges,
//! arbitrary overlap histories, and degraded EC routing all preserve the
//! partition / latest-wins / survivor invariants the read path builds on.

use std::collections::HashSet;

use proptest::collection::vec;
use proptest::prelude::*;

use nadfs_meta::{ExtentMap, ExtentRecord, LayoutSpec, ReadPiece, ReadPlan, StripedLayout};
use nadfs_wire::{ReplicaCoord, RsScheme};

/// Every byte of `[0, plan.len)` must be covered by exactly one piece.
fn coverage(plan: &ReadPlan) -> Vec<u32> {
    let mut covered = vec![0u32; plan.len as usize];
    let mut mark = |off: u32, len: u32| {
        for b in &mut covered[off as usize..(off + len) as usize] {
            *b += 1;
        }
    };
    for p in &plan.pieces {
        match p {
            ReadPiece::Hole { dest_off, len } => mark(*dest_off, *len),
            ReadPiece::Direct { dest_off, len, .. } => mark(*dest_off, *len),
            ReadPiece::Degraded { copy, .. } => {
                for c in copy {
                    mark(c.dest_off, c.len);
                }
            }
        }
    }
    covered
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // `StripedLayout::extents` partitions any logical range into
    // contiguous, chunk-bounded, correctly-routed pieces — ragged tails
    // and cross-stripe ranges included.
    #[test]
    fn stripe_extents_partition_and_route(
        width in 1u32..6,
        chunk in 1u32..5000,
        offset in 0u64..100_000,
        len in 1u32..50_000,
    ) {
        let nodes: Vec<u32> = (10..10 + width).collect();
        let layout = StripedLayout::new(LayoutSpec::striped(width, chunk), nodes.clone());
        let extents = layout.extents(offset, len);
        // Contiguity + total coverage in file order.
        let mut cur = offset;
        for e in &extents {
            prop_assert_eq!(e.file_offset, cur);
            prop_assert!(e.len > 0);
            cur += e.len as u64;
            // Each piece stays inside one stripe unit.
            let unit_start = e.file_offset / chunk as u64;
            let unit_end = (e.file_offset + e.len as u64 - 1) / chunk as u64;
            prop_assert_eq!(unit_start, unit_end);
            prop_assert_eq!(e.stripe_index, unit_start);
            // Round-robin routing.
            prop_assert_eq!(e.node, nodes[(unit_start % width as u64) as usize]);
        }
        prop_assert_eq!(cur, offset + len as u64);
    }

    // Resolution over an arbitrary history of (possibly overlapping)
    // plain writes: every byte covered exactly once, and each byte comes
    // from the latest record that wrote it (checked against a byte-level
    // model).
    #[test]
    fn resolve_is_a_latest_wins_partition(
        writes in vec((0u64..2_000, 1u32..800), 1..12),
        read_off in 0u64..2_500,
        read_len in 1u32..1_000,
    ) {
        let mut map = ExtentMap::new();
        // Model: per-byte owner (record index), None = hole. Record i
        // stores bytes at distinct addresses so sources are identifiable.
        let mut model: Vec<Option<usize>> = vec![None; 4_000];
        for (i, (off, len)) in writes.iter().enumerate() {
            map.record(ExtentRecord::Plain {
                offset: *off,
                len: *len,
                coord: ReplicaCoord { node: i as u32, addr: (i as u64) << 32 },
            });
            for b in *off..(*off + *len as u64).min(model.len() as u64) {
                model[b as usize] = Some(i);
            }
        }
        let plan = map.resolve(read_off, read_len, &HashSet::new()).expect("resolve");
        prop_assert!(coverage(&plan).iter().all(|&c| c == 1), "not a partition");
        for p in &plan.pieces {
            match p {
                ReadPiece::Hole { dest_off, len } => {
                    for d in *dest_off..(*dest_off + *len) {
                        let byte = read_off + d as u64;
                        let owner = model.get(byte as usize).copied().flatten();
                        prop_assert_eq!(owner, None);
                    }
                }
                ReadPiece::Direct { coord, len, dest_off } => {
                    let rec = (coord.addr >> 32) as usize;
                    prop_assert_eq!(coord.node as usize, rec);
                    for d in 0..*len {
                        let byte = read_off + (*dest_off + d) as u64;
                        let owner = model[byte as usize];
                        prop_assert_eq!(owner, Some(rec));
                        // Address arithmetic: the piece reads the byte at
                        // its offset within the owning record.
                        let (rec_off, _) = writes[rec];
                        prop_assert_eq!(
                            coord.addr + d as u64,
                            ((rec as u64) << 32) + (byte - rec_off)
                        );
                    }
                }
                ReadPiece::Degraded { .. } => prop_assert!(false, "no EC records here"),
            }
        }
    }

    // Compaction is invisible to resolution: for any overwrite history,
    // a compacted map resolves every read to byte-identical sources as
    // the uncompacted original, and the remap table is a consistent
    // old-index → new-index function (None exactly for dropped records).
    #[test]
    fn compacted_map_resolves_identically(
        writes in vec((0u64..2_000, 1u32..800), 1..24),
        read_off in 0u64..2_500,
        read_len in 1u32..1_000,
    ) {
        let mut original = ExtentMap::new();
        for (i, (off, len)) in writes.iter().enumerate() {
            original.record(ExtentRecord::Plain {
                offset: *off,
                len: *len,
                coord: ReplicaCoord { node: i as u32, addr: (i as u64) << 32 },
            });
        }
        let mut compacted = original.clone();
        let mut gone = Vec::new();
        let result = compacted.compact(|rec| gone.push(rec.clone()));
        // Remap consistency: survivors keep their relative order, map to
        // identical records, and dropped count matches.
        prop_assert_eq!(result.remap.len(), original.len());
        prop_assert_eq!(original.len() - result.dropped, compacted.len());
        let mut expect_new = 0usize;
        for (old, slot) in result.remap.iter().enumerate() {
            if let Some(new) = slot {
                prop_assert_eq!(*new, expect_new, "survivors stay ordered");
                prop_assert_eq!(
                    compacted.records()[*new].clone(),
                    original.records()[old].clone()
                );
                expect_new += 1;
            }
        }
        prop_assert_eq!(expect_new, compacted.len());
        // The callback saw exactly the dropped records, oldest first.
        let dropped: Vec<ExtentRecord> = result
            .remap
            .iter()
            .zip(original.records())
            .filter(|(slot, _)| slot.is_none())
            .map(|(_, rec)| rec.clone())
            .collect();
        prop_assert_eq!(gone, dropped);
        // Resolution equivalence over the sampled range AND the full map.
        let none = HashSet::new();
        for (off, len) in [(read_off, read_len), (0, 4_000)] {
            let a = original.resolve(off, len, &none).expect("resolve original");
            let b = compacted.resolve(off, len, &none).expect("resolve compacted");
            prop_assert_eq!(a.len, b.len);
            // Same byte → same source address: flatten both plans into a
            // per-byte source map (None = hole) and compare.
            let flatten = |plan: &ReadPlan| -> Vec<Option<(u32, u64)>> {
                let mut src: Vec<Option<(u32, u64)>> = vec![None; plan.len as usize];
                for p in &plan.pieces {
                    if let ReadPiece::Direct { coord, len, dest_off } = p {
                        for d in 0..*len {
                            src[(*dest_off + d) as usize] =
                                Some((coord.node, coord.addr + d as u64));
                        }
                    }
                }
                src
            };
            prop_assert_eq!(flatten(&a), flatten(&b));
        }
        // Idempotence: a second compaction finds nothing more to drop.
        let gen = compacted.generation();
        let again = compacted.compact(|_| panic!("nothing is left to drop"));
        prop_assert_eq!(again.dropped, 0);
        prop_assert_eq!(compacted.generation(), gen, "no-op keeps the generation");
    }

    // Degraded EC resolution: the fetch set is exactly k distinct live
    // shards, copies cover precisely the failed chunks' overlap with the
    // request, and healthy chunks stay direct.
    #[test]
    fn degraded_ec_resolution_invariants(
        k in 2u8..6,
        m in 1u8..4,
        chunk_len in 1u32..4_000,
        fail_shard in 0usize..6,
        read_off_ppm in 0u32..1000,
        read_len in 1u32..10_000,
    ) {
        let k = k as usize;
        let m = m as usize;
        let fail_shard = fail_shard % (k + m);
        let stripe_len = chunk_len * k as u32;
        let data: Vec<ReplicaCoord> =
            (0..k).map(|j| ReplicaCoord { node: j as u32, addr: (j as u64) * 0x10_0000 }).collect();
        let parities: Vec<ReplicaCoord> =
            (k..k + m).map(|j| ReplicaCoord { node: j as u32, addr: (j as u64) * 0x10_0000 }).collect();
        let mut map = ExtentMap::new();
        map.record(ExtentRecord::Ec {
            offset: 0,
            len: stripe_len,
            chunk_len,
            scheme: RsScheme::new(k as u8, m as u8),
            data: data.clone(),
            parities,
        });
        // Offset strictly inside the stripe, so the clamped length ≥ 1.
        let read_off = (read_off_ppm as u64 * (stripe_len as u64 - 1)) / 1000;
        let read_len = read_len.min(stripe_len - read_off as u32);
        let failed: HashSet<u32> = [fail_shard as u32].into();
        let plan = map.resolve(read_off, read_len, &failed).expect("resolve");
        prop_assert!(coverage(&plan).iter().all(|&c| c == 1));
        let failed_is_needed_data = fail_shard < k && {
            let cs = fail_shard as u64 * chunk_len as u64;
            let ce = cs + chunk_len as u64;
            read_off < ce && read_off + read_len as u64 > cs
        };
        let degraded: Vec<_> = plan
            .pieces
            .iter()
            .filter_map(|p| match p {
                ReadPiece::Degraded { fetch, copy, .. } => Some((fetch.clone(), copy.clone())),
                _ => None,
            })
            .collect();
        if failed_is_needed_data {
            prop_assert_eq!(plan.degraded_stripes, 1);
            prop_assert_eq!(degraded.len(), 1);
            let (fetch, copy) = &degraded[0];
            prop_assert_eq!(fetch.len(), k);
            let idxs: HashSet<usize> = fetch.iter().map(|(i, _)| *i).collect();
            prop_assert_eq!(idxs.len(), k);
            prop_assert!(!idxs.contains(&fail_shard), "failed shard not fetched");
            prop_assert!(copy.iter().all(|c| c.chunk == fail_shard));
            // No direct piece touches the failed node.
            for p in &plan.pieces {
                if let ReadPiece::Direct { coord, .. } = p {
                    prop_assert!(coord.node != fail_shard as u32);
                }
            }
        } else {
            prop_assert_eq!(plan.degraded_stripes, 0);
            prop_assert!(degraded.is_empty());
        }
    }
}
