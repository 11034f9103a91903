//! Property test for the client read cache's correctness contract:
//! under arbitrary write/overwrite/read/`mark_node_failed`/
//! `drain_repairs` interleavings (scripted through the PR-4 [`FaultPlan`]
//! harness), every cached `read_at` is byte-identical to the uncached
//! path and to a shadow model of the file — generation-keyed
//! invalidation never serves stale bytes, degraded reconstructions that
//! populate the cache are exact, and repair re-homing invalidates
//! precisely.
//!
//! A second property drives [`ReadCache`] directly against a flat
//! per-byte shadow: whatever mix of abutting, overlapping and covering
//! fills built the spans, a lookup hits exactly when every byte of its
//! range is cached and returns exactly those bytes — whether it was
//! served as a slice of one span (joined or not) or stitched across
//! several.

use bytes::{Bytes, BytesRun};
use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, ReadCache, SimCluster, StorageMode,
};
use nadfs_tests::{drain_repairs_with_faults, seed_from_env, FaultAction, FaultPlan, FaultPoint};
use nadfs_wire::{BcastStrategy, RsScheme};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Policy {
    Ec,
    Replicated,
}

#[derive(Clone, Debug)]
enum Step {
    /// `pwrite` of a deterministic payload (overwrites happen naturally
    /// when ranges overlap earlier writes).
    Write { offset: u64, len: usize },
    /// Ranged read, compared byte-for-byte against the shadow model.
    Read { offset: u64, len: u32 },
}

#[derive(Clone, Debug)]
struct Scenario {
    policy: Policy,
    steps: Vec<Step>,
    /// The scripted kill fires after this many completed writes (may be
    /// past the end: no failure at all).
    fail_after: u32,
    /// Drain the repair queue after this step index (mid-run repairs).
    drain_after: usize,
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..2, 0u64..10_000, 300usize..3_000, 1u32..8_000).prop_map(|(kind, offset, wlen, rlen)| {
        if kind == 0 {
            Step::Write {
                offset: offset % 6_000,
                len: wlen,
            }
        } else {
            Step::Read { offset, len: rlen }
        }
    })
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
    fn cached_reads_equal_uncached_reads_equal_shadow_model(s in scenario()) {
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

        // The scripted kill rides the PR-4 fault harness: victim drawn
        // from the seeded generator, fired after the Nth write.
        let mut plan = FaultPlan::new(seed_from_env()).on(
            FaultPoint::AfterWrites(s.fail_after.max(1)),
            FaultAction::FailRandomOf(vec![0, 1, 2, 3, 4]),
        );

        // Shadow model of the file's logical bytes (committed size ==
        // model.len(): every write completes before the next step).
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
                    let r = fsc.read_at(&h, offset, len).expect("read");
                    let lo = (offset as usize).min(model.len());
                    let hi = (offset as usize).saturating_add(len as usize).min(model.len());
                    prop_assert_eq!(r.len as usize, hi - lo, "short-read clamp at step {}", i);
                    prop_assert_eq!(
                        r.data.as_ref(),
                        &model[lo..hi],
                        "read ≠ shadow model at step {} (from_cache={})",
                        i,
                        r.from_cache
                    );
                    plan.note_read(&mut fsc);
                }
            }
        }

        // Converge: drain everything, then prove the triple equivalence
        // cached ≡ uncached ≡ model on the whole file.
        let report = fsc.drain_repairs();
        prop_assert!(report.converged(), "final drain gave up: {report:?}");
        if !model.is_empty() {
            let cached = fsc.read_at(&h, 0, model.len() as u32).expect("cached read");
            prop_assert_eq!(cached.data.as_ref(), &model[..], "cached ≠ model");
            fsc.drop_read_cache();
            let fresh = fsc.read_at(&h, 0, model.len() as u32).expect("uncached read");
            prop_assert!(!fresh.from_cache);
            prop_assert_eq!(fresh.degraded_stripes, 0, "post-drain reads are direct");
            prop_assert_eq!(fresh.data.as_ref(), &model[..], "uncached ≠ model");
            prop_assert_eq!(cached.checksum, fresh.checksum);
        }
    }
}

/// One step against a bare [`ReadCache`] holding a single small file.
#[derive(Clone, Debug)]
enum CacheStep {
    /// Fill `[offset, offset + len)` at the current generation, the
    /// `way`th way in; with no offset, right after the last fill, as a
    /// stream does (wrapping round at the end of the file).
    Fill {
        offset: Option<u64>,
        len: usize,
        way: u8,
    },
    /// The file's generation moves: everything cached is invalidated.
    Invalidate,
    Lookup {
        offset: u64,
        len: u32,
    },
}

/// Fills land on a 16-byte grid so that they often abut or cover one
/// another exactly, and a third of them continue the last; lookups fall
/// anywhere.
fn cache_step() -> impl Strategy<Value = CacheStep> {
    (0u8..8, 0u64..1024, 1usize..256).prop_map(|(kind, offset, len)| match kind {
        0..=2 => CacheStep::Fill {
            offset: (offset % 3 != 0).then_some(offset / 16 * 16),
            len: len.div_ceil(16) * 16,
            way: (offset % 7 % 3) as u8,
        },
        3 => CacheStep::Invalidate,
        _ => CacheStep::Lookup {
            offset,
            len: len as u32,
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sliced_and_stitched_hits_equal_a_flat_shadow(
        steps in proptest::collection::vec(cache_step(), 1..80)
    ) {
        const FILE: u64 = 7;
        let mut cache = ReadCache::default();
        let mut shadow: Vec<Option<u8>> = vec![None; 1024 + 256];
        let mut generation = 1u64;
        // A run the test appends its third kind of fill to, as the
        // client appends what lands: abutting fills are abutting windows.
        let mut run = BytesRun::with_capacity(0);
        let mut next = 0u64;
        for (i, step) in steps.iter().enumerate() {
            match *step {
                CacheStep::Fill { offset, len, way } => {
                    let offset = offset.unwrap_or(if next < 1024 { next } else { 0 });
                    next = offset + len as u64;
                    let data: Vec<u8> = (0..len).map(|b| (b ^ i.wrapping_mul(37)) as u8).collect();
                    for (slot, &b) in shadow[offset as usize..].iter_mut().zip(&data) {
                        *slot = Some(b);
                    }
                    // Three ways in: on loan (copied into the cache's run),
                    // handing a buffer of its own over, and handing over a
                    // window of a run, which joins the window before it
                    // when the two abut.
                    match way {
                        0 => cache.fill(FILE, generation, offset, &data, len as u32),
                        1 => {
                            let data = Bytes::from(data);
                            cache.fill_shared(FILE, generation, offset, data, len as u32);
                        }
                        _ => {
                            if run.remaining() < len {
                                run = BytesRun::with_capacity(1024);
                            }
                            let data = run.append(&data).expect("room");
                            cache.fill_shared(FILE, generation, offset, data, len as u32);
                        }
                    }
                }
                CacheStep::Invalidate => {
                    generation += 1;
                    cache.note_generation(FILE, generation);
                    shadow.fill(None);
                }
                CacheStep::Lookup { offset, len } => {
                    let range = offset as usize..offset as usize + len as usize;
                    let want: Option<Vec<u8>> = shadow[range].iter().copied().collect();
                    let stitched = cache.stats.stitched_hits;
                    let got = cache.lookup(FILE, offset, len);
                    prop_assert_eq!(
                        got.as_ref().map(|r| r.data.to_vec()),
                        want,
                        "step {}: lookup @{}+{} (stitched: {})",
                        i,
                        offset,
                        len,
                        cache.stats.stitched_hits > stitched
                    );
                    if let Some(r) = got {
                        prop_assert_eq!(r.generation, generation);
                    }
                }
            }
            let cached = shadow.iter().flatten().count();
            prop_assert_eq!(cache.cached_bytes(), cached, "byte ledger drifted at step {}", i);
        }
        prop_assert!(cache.stats.stitched_hits <= cache.stats.hits);
    }
}
