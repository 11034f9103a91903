//! File extent maps: where every committed byte range physically lives.
//!
//! The layout ([`crate::layout::StripedLayout`]) answers "where *would*
//! bytes at this offset go"; the extent map answers "where *did* they go"
//! — concrete `(node, addr)` coordinates recorded as writes complete, the
//! missing half a read path needs. Records are kept in commit order and
//! resolution walks them newest-first, so an overwrite shadows the ranges
//! it covers without any eager splitting.
//!
//! [`ExtentMap::resolve`] turns a logical byte range into a [`ReadPlan`]:
//! direct per-node fetches for healthy data, replica failover for
//! replicated extents, and — for erasure-coded stripes whose data chunk
//! sits on a failed node — a degraded-fetch piece naming the k surviving
//! shards to pull and the chunk ranges to copy out of the reconstruction.
//!
//! The map is also the unit the background repair pipeline re-homes:
//! [`ExtentMap::affected_records`] finds the records a failed node holds
//! shards of, and [`ExtentMap::rehome`] rewrites those shard coordinates
//! to their re-protected spare locations, bumping the map's generation so
//! cached read plans can be recognized as stale.

use nadfs_wire::{ReplicaCoord, RsScheme};

use crate::error::MetaError;

/// The failed storage nodes a resolve routes around: only probed, never
/// iterated into an order.
pub(crate) type FailedSet = std::collections::HashSet<u32>; // membership only

/// One committed write, as the read path needs to see it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExtentRecord {
    /// A plain extent on one node (one stripe unit of a striped write, or
    /// a whole single-node write).
    Plain {
        offset: u64,
        len: u32,
        coord: ReplicaCoord,
    },
    /// The same bytes on every replica (any one can serve a read).
    Replicated {
        offset: u64,
        len: u32,
        replicas: Vec<ReplicaCoord>,
    },
    /// An erasure-coded stripe: k data chunks of `chunk_len` bytes
    /// (zero-padded past `len`) plus m parities.
    Ec {
        offset: u64,
        len: u32,
        chunk_len: u32,
        scheme: RsScheme,
        data: Vec<ReplicaCoord>,
        parities: Vec<ReplicaCoord>,
    },
}

impl ExtentRecord {
    /// Every `(node, addr)` coordinate this record references, paired with
    /// its shard slot: EC shard index (data `0..k`, parity `k..k+m`),
    /// replica index, or `0` for a plain extent. Borrows the record, so
    /// a walk (a failure scan over every committed record among them)
    /// allocates nothing.
    pub fn shard_coords(&self) -> impl Iterator<Item = (usize, ReplicaCoord)> + '_ {
        let (data, parities): (&[ReplicaCoord], &[ReplicaCoord]) = match self {
            ExtentRecord::Plain { coord, .. } => (std::slice::from_ref(coord), &[]),
            ExtentRecord::Replicated { replicas, .. } => (replicas, &[]),
            ExtentRecord::Ec { data, parities, .. } => (data, parities),
        };
        data.iter().chain(parities).copied().enumerate()
    }

    /// Physical bytes one shard slot of this record occupies on its node:
    /// the full extent for plain, the full copy for a replica, one chunk
    /// for an EC shard (data and parity chunks are the same size). This
    /// is the unit the hosted-capacity ledger charges per coordinate.
    pub fn shard_len(&self) -> u32 {
        match self {
            ExtentRecord::Plain { len, .. } | ExtentRecord::Replicated { len, .. } => *len,
            ExtentRecord::Ec { chunk_len, .. } => *chunk_len,
        }
    }

    fn offset(&self) -> u64 {
        match self {
            ExtentRecord::Plain { offset, .. }
            | ExtentRecord::Replicated { offset, .. }
            | ExtentRecord::Ec { offset, .. } => *offset,
        }
    }

    fn len(&self) -> u32 {
        match self {
            ExtentRecord::Plain { len, .. }
            | ExtentRecord::Replicated { len, .. }
            | ExtentRecord::Ec { len, .. } => *len,
        }
    }
}

/// A copy out of a reconstructed erasure-coded data chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkCopy {
    /// Data chunk index within the stripe (0..k).
    pub chunk: usize,
    /// Byte offset within the chunk.
    pub chunk_off: u32,
    pub len: u32,
    /// Destination offset within the read buffer.
    pub dest_off: u32,
}

/// One piece of a resolved read.
#[derive(Clone, Debug)]
pub enum ReadPiece {
    /// Never-written range: reads as zeros, nothing to fetch.
    Hole { dest_off: u32, len: u32 },
    /// Healthy bytes at a concrete coordinate: one fetch, lands at
    /// `dest_off`.
    Direct {
        coord: ReplicaCoord,
        len: u32,
        dest_off: u32,
    },
    /// Degraded erasure-coded stripe: fetch the k surviving shards listed
    /// in `fetch` (shard index, coordinate; shard order), reconstruct,
    /// then serve the `copy` ranges from the recovered data chunks. `rec`
    /// identifies the underlying extent record so the repair queue can
    /// promote it; `fetch[coordinator]` is the survivor whose node an
    /// offloaded read asks to run the decode.
    Degraded {
        rec: usize,
        scheme: RsScheme,
        chunk_len: u32,
        coordinator: usize,
        fetch: Vec<(usize, ReplicaCoord)>,
        copy: Vec<ChunkCopy>,
    },
}

/// A fully resolved read: every byte of `[0, len)` in the destination
/// buffer is covered by exactly one piece (holes included).
#[derive(Clone, Debug)]
pub struct ReadPlan {
    pub pieces: Vec<ReadPiece>,
    /// Length actually served (requests past EOF are clamped by the
    /// caller before resolution).
    pub len: u32,
    /// Stripes that need reconstruction.
    pub degraded_stripes: u32,
    /// The extent map's generation when this plan was built — the
    /// staleness key for anything caching the fetched bytes (a commit or
    /// repair re-homing bumps it, so a cached plan or payload tagged with
    /// an older generation is recognizably stale).
    pub generation: u64,
}

/// What one [`ExtentMap::compact`] pass did: how many fully-shadowed
/// records were dropped, and where every surviving record moved.
#[derive(Clone, Debug)]
pub struct CompactionResult {
    /// Records dropped because newer writes cover every byte they held.
    pub dropped: usize,
    /// `remap[old_id]` is the record's new id, or `None` if it was
    /// dropped. Anything holding positional record ids (repair tasks,
    /// cached degraded plans) must be rewritten through this.
    pub remap: Vec<Option<usize>>,
}

/// Per-file map of committed extents.
#[derive(Clone, Debug, Default)]
pub struct ExtentMap {
    records: Vec<ExtentRecord>,
    /// Bumped on every mutation (record or repair re-homing): the
    /// staleness currency for anything caching resolved placements.
    generation: u64,
}

impl ExtentMap {
    pub fn new() -> ExtentMap {
        ExtentMap::default()
    }

    /// Record one committed write. Later records shadow earlier ones over
    /// any range they overlap.
    pub fn record(&mut self, rec: ExtentRecord) {
        if rec.len() > 0 {
            self.records.push(rec);
            self.generation += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The committed records, in commit order (index = record id).
    pub fn records(&self) -> &[ExtentRecord] {
        &self.records
    }

    /// Mutation counter: bumped by [`Self::record`] and [`Self::rehome`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Record ids of every extent with at least one shard on `node` —
    /// what a node failure puts on the repair queue.
    pub fn affected_records(&self, node: u32) -> Vec<usize> {
        self.records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.shard_coords().any(|(_, c)| c.node == node))
            .map(|(i, _)| i)
            .collect()
    }

    /// Commit a repair: rewrite the shard slots of record `rec` to their
    /// re-protected coordinates, handing each coordinate it replaces to
    /// `replaced` first, and bump the generation. Slot numbering follows
    /// [`ExtentRecord::shard_coords`]. Out-of-range record or slot ids are
    /// a typed error (a stale repair task, e.g. after the file was
    /// truncated out from under the queue).
    pub fn rehome(
        &mut self,
        rec: usize,
        replacements: &[(usize, ReplicaCoord)],
        mut replaced: impl FnMut(ReplicaCoord),
    ) -> Result<(), MetaError> {
        let record = self.records.get_mut(rec).ok_or(MetaError::NotFound)?;
        let slots = record.shard_coords().count();
        // Validate every slot before touching any: a rejected repair must
        // leave the record (and the generation) exactly as it was.
        if replacements.iter().any(|&(slot, _)| slot >= slots) {
            return Err(MetaError::NotFound);
        }
        for &(slot, coord) in replacements {
            let target = match record {
                ExtentRecord::Plain { coord: c, .. } => c,
                ExtentRecord::Replicated { replicas, .. } => &mut replicas[slot],
                ExtentRecord::Ec { data, parities, .. } => {
                    let k = data.len();
                    if slot < k {
                        &mut data[slot]
                    } else {
                        &mut parities[slot - k]
                    }
                }
            };
            replaced(*target);
            *target = coord;
        }
        if !replacements.is_empty() {
            self.generation += 1;
        }
        Ok(())
    }

    /// Drop every record whose byte range is fully shadowed by newer
    /// writes (overwrite-heavy workloads otherwise accumulate one record
    /// per write forever, and resolution walks all of them). Survivors
    /// keep their commit order, so resolution is byte-for-byte identical;
    /// only the positional record ids change, reported through the
    /// returned remap. Bumps the generation when anything was dropped —
    /// cached plans carry record ids, so they must be recognizably stale.
    pub fn compact(&mut self) -> CompactionResult {
        // Newest-first coverage walk: a record survives iff some byte of
        // its range is not covered by the union of newer records' ranges.
        // `covered` is a sorted list of disjoint intervals.
        let mut covered: Vec<(u64, u64)> = Vec::new();
        let mut keep = vec![false; self.records.len()];
        for (i, rec) in self.records.iter().enumerate().rev() {
            let (start, end) = (rec.offset(), rec.offset() + rec.len() as u64);
            let mut cursor = start;
            let mut visible = false;
            for &(cs, ce) in covered.iter() {
                if ce <= cursor {
                    continue;
                }
                if cs >= end {
                    break;
                }
                if cs > cursor {
                    visible = true; // an uncovered gap inside our range
                    break;
                }
                cursor = ce;
                if cursor >= end {
                    break;
                }
            }
            if cursor < end {
                visible = true;
            }
            keep[i] = visible;
            // Merge [start, end) into the covered set.
            let mut merged = Vec::with_capacity(covered.len() + 1);
            let (mut ns, mut ne) = (start, end);
            let mut placed = false;
            for &(cs, ce) in covered.iter() {
                if ce < ns {
                    merged.push((cs, ce));
                } else if cs > ne {
                    if !placed {
                        merged.push((ns, ne));
                        placed = true;
                    }
                    merged.push((cs, ce));
                } else {
                    ns = ns.min(cs);
                    ne = ne.max(ce);
                }
            }
            if !placed {
                merged.push((ns, ne));
            }
            covered = merged;
        }
        let mut remap = vec![None; self.records.len()];
        let mut next = 0usize;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = Some(next);
                next += 1;
            }
        }
        let dropped = self.records.len() - next;
        if dropped > 0 {
            let mut idx = 0;
            self.records.retain(|_| {
                let k = keep[idx];
                idx += 1;
                k
            });
            self.generation += 1;
        }
        CompactionResult { dropped, remap }
    }

    /// Resolve the logical range `[offset, offset + len)` into fetchable
    /// pieces, routing around the nodes in `failed`.
    pub fn resolve(
        &self,
        offset: u64,
        len: u32,
        failed: &FailedSet,
    ) -> Result<ReadPlan, MetaError> {
        if len == 0 {
            // Zero-length request (e.g. clamped entirely past EOF): an
            // empty plan, not a zero-length hole piece.
            return Ok(ReadPlan {
                pieces: Vec::new(),
                len: 0,
                degraded_stripes: 0,
                generation: self.generation,
            });
        }
        let mut pieces = Vec::new();
        let mut degraded_stripes = 0u32;
        // Uncovered subranges of the request; newest records carve them
        // up first, so every byte is served by the latest write.
        let mut gaps = vec![(offset, offset + len as u64)];
        // Scratch reused across records: a visit allocates nothing unless
        // a record splits more gaps than any before it.
        let mut next_gaps = Vec::new();
        let mut segments = Vec::new();
        for (rec_id, rec) in self.records.iter().enumerate().rev() {
            if gaps.is_empty() {
                break;
            }
            let ro = rec.offset();
            let rend = ro + rec.len() as u64;
            next_gaps.clear();
            // All segments this record serves are collected first and
            // emitted through ONE pieces_for call: a degraded EC stripe
            // shadowed in the middle by a newer write must still fetch
            // its k survivors (and reconstruct) exactly once.
            segments.clear();
            for &(gs, ge) in &gaps {
                let is = gs.max(ro);
                let ie = ge.min(rend);
                if is >= ie {
                    next_gaps.push((gs, ge));
                    continue;
                }
                if gs < is {
                    next_gaps.push((gs, is));
                }
                if ie < ge {
                    next_gaps.push((ie, ge));
                }
                segments.push((is, ie));
            }
            if !segments.is_empty() {
                Self::pieces_for(
                    rec,
                    rec_id,
                    &segments,
                    offset,
                    failed,
                    &mut pieces,
                    &mut degraded_stripes,
                )?;
            }
            std::mem::swap(&mut gaps, &mut next_gaps);
        }
        for (gs, ge) in gaps {
            pieces.push(ReadPiece::Hole {
                dest_off: (gs - offset) as u32,
                len: (ge - gs) as u32,
            });
        }
        Ok(ReadPlan {
            pieces,
            len,
            degraded_stripes,
            generation: self.generation,
        })
    }

    /// Emit the pieces serving `segments` (disjoint subranges of `rec`)
    /// into a read starting at logical `base`. One call covers every
    /// segment the record serves, so an EC record emits at most one
    /// degraded fetch no matter how a newer write split the request.
    #[allow(clippy::too_many_arguments)]
    fn pieces_for(
        rec: &ExtentRecord,
        rec_id: usize,
        segments: &[(u64, u64)],
        base: u64,
        failed: &FailedSet,
        pieces: &mut Vec<ReadPiece>,
        degraded_stripes: &mut u32,
    ) -> Result<(), MetaError> {
        match rec {
            ExtentRecord::Plain { offset, coord, .. } => {
                if failed.contains(&coord.node) {
                    return Err(MetaError::DataUnavailable { node: coord.node });
                }
                for &(is, ie) in segments {
                    pieces.push(ReadPiece::Direct {
                        coord: ReplicaCoord {
                            node: coord.node,
                            addr: coord.addr + (is - offset),
                        },
                        len: (ie - is) as u32,
                        dest_off: (is - base) as u32,
                    });
                }
            }
            ExtentRecord::Replicated {
                offset, replicas, ..
            } => {
                let Some(coord) = replicas.iter().find(|c| !failed.contains(&c.node)) else {
                    return Err(MetaError::DataUnavailable {
                        node: replicas.first().map_or(0, |c| c.node),
                    });
                };
                for &(is, ie) in segments {
                    pieces.push(ReadPiece::Direct {
                        coord: ReplicaCoord {
                            node: coord.node,
                            addr: coord.addr + (is - offset),
                        },
                        len: (ie - is) as u32,
                        dest_off: (is - base) as u32,
                    });
                }
            }
            ExtentRecord::Ec {
                offset,
                chunk_len,
                scheme,
                data,
                parities,
                ..
            } => {
                let cl = *chunk_len as u64;
                let mut copy = Vec::new();
                for &(is, ie) in segments {
                    let first = (is - offset) / cl;
                    let last = (ie - 1 - offset) / cl;
                    for j in first..=last {
                        let cs = offset + j * cl;
                        let s = is.max(cs);
                        let e = ie.min(cs + cl);
                        debug_assert!(s < e, "chunk overlap is nonempty by construction");
                        let chunk = j as usize;
                        let within = (s - cs) as u32;
                        if failed.contains(&data[chunk].node) {
                            copy.push(ChunkCopy {
                                chunk,
                                chunk_off: within,
                                len: (e - s) as u32,
                                dest_off: (s - base) as u32,
                            });
                        } else {
                            pieces.push(ReadPiece::Direct {
                                coord: ReplicaCoord {
                                    node: data[chunk].node,
                                    addr: data[chunk].addr + within as u64,
                                },
                                len: (e - s) as u32,
                                dest_off: (s - base) as u32,
                            });
                        }
                    }
                }
                if !copy.is_empty() {
                    // Reconstruction inputs: every surviving data shard
                    // (their nodes serve the stripe's healthy ranges
                    // anyway), completed to k by surviving parities
                    // picked round-robin from the record id, so a file's
                    // degraded stripes spread their parity fetches — and,
                    // by the same rotation, their coordinators — over
                    // the nodes instead of piling onto the first.
                    let k = scheme.k as usize;
                    let alive = |shards: &[ReplicaCoord], base: usize| {
                        let live = shards.iter().enumerate();
                        live.filter(|(_, c)| !failed.contains(&c.node))
                            .map(|(i, c)| (base + i, *c))
                            .collect::<Vec<_>>()
                    };
                    let mut fetch = alive(data, 0);
                    let spare = alive(parities, k);
                    let need = k.saturating_sub(fetch.len());
                    if spare.len() < need {
                        return Err(MetaError::TooManyFailures {
                            stripe_offset: *offset,
                        });
                    }
                    let first = fetch.len();
                    fetch.extend((0..need).map(|i| spare[(rec_id + i) % spare.len()]));
                    fetch[first..].sort_unstable_by_key(|&(shard, _)| shard);
                    pieces.push(ReadPiece::Degraded {
                        rec: rec_id,
                        scheme: *scheme,
                        chunk_len: *chunk_len,
                        coordinator: rec_id % k,
                        fetch,
                        copy,
                    });
                    *degraded_stripes += 1;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(node: u32, addr: u64) -> ReplicaCoord {
        ReplicaCoord { node, addr }
    }

    fn no_failures() -> FailedSet {
        FailedSet::new()
    }

    /// Every byte of the request is covered by exactly one piece.
    fn assert_partition(plan: &ReadPlan) {
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
        assert!(
            covered.iter().all(|&c| c == 1),
            "coverage not a partition: {covered:?}"
        );
    }

    #[test]
    fn unwritten_range_is_a_hole() {
        let m = ExtentMap::new();
        let plan = m.resolve(100, 50, &no_failures()).expect("resolve");
        assert_eq!(plan.pieces.len(), 1);
        assert!(matches!(
            plan.pieces[0],
            ReadPiece::Hole {
                dest_off: 0,
                len: 50
            }
        ));
        assert_partition(&plan);
    }

    #[test]
    fn later_writes_shadow_earlier_ones() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 100,
            coord: coord(1, 0x1000),
        });
        m.record(ExtentRecord::Plain {
            offset: 40,
            len: 20,
            coord: coord(2, 0x2000),
        });
        let plan = m.resolve(0, 100, &no_failures()).expect("resolve");
        assert_partition(&plan);
        // The overwritten middle must come from node 2.
        let mid = plan
            .pieces
            .iter()
            .find_map(|p| match p {
                ReadPiece::Direct {
                    coord,
                    dest_off: 40,
                    len,
                } => Some((coord.node, coord.addr, *len)),
                _ => None,
            })
            .expect("shadowing piece");
        assert_eq!(mid, (2, 0x2000, 20));
    }

    #[test]
    fn plain_subrange_offsets_into_the_extent() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 1000,
            len: 4096,
            coord: coord(3, 0x8000),
        });
        let plan = m.resolve(1500, 100, &no_failures()).expect("resolve");
        let ReadPiece::Direct {
            coord: c,
            len,
            dest_off,
        } = &plan.pieces[0]
        else {
            panic!("direct piece");
        };
        assert_eq!((c.node, c.addr, *len, *dest_off), (3, 0x8000 + 500, 100, 0));
    }

    #[test]
    fn plain_on_failed_node_is_unavailable() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 10,
            coord: coord(7, 0),
        });
        let failed: FailedSet = [7].into();
        assert_eq!(
            m.resolve(0, 10, &failed).unwrap_err(),
            MetaError::DataUnavailable { node: 7 }
        );
    }

    #[test]
    fn replicated_fails_over_to_a_live_replica() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Replicated {
            offset: 0,
            len: 100,
            replicas: vec![coord(4, 0x100), coord(5, 0x200), coord(6, 0x300)],
        });
        let failed: FailedSet = [4].into();
        let plan = m.resolve(10, 50, &failed).expect("resolve");
        let ReadPiece::Direct { coord: c, .. } = &plan.pieces[0] else {
            panic!("direct piece");
        };
        assert_eq!((c.node, c.addr), (5, 0x200 + 10));
        let all: FailedSet = [4, 5, 6].into();
        assert_eq!(
            m.resolve(0, 1, &all).unwrap_err(),
            MetaError::DataUnavailable { node: 4 }
        );
    }

    #[test]
    fn ec_healthy_read_splits_per_chunk() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 3000,
            chunk_len: 1000,
            scheme: RsScheme::new(3, 2),
            data: vec![coord(1, 0x1000), coord(2, 0x2000), coord(3, 0x3000)],
            parities: vec![coord(4, 0x4000), coord(5, 0x5000)],
        });
        // Cross-chunk range: tail of chunk 0, all of chunk 1, head of 2.
        let plan = m.resolve(500, 2000, &no_failures()).expect("resolve");
        assert_partition(&plan);
        assert_eq!(plan.degraded_stripes, 0);
        let directs: Vec<(u32, u64, u32, u32)> = plan
            .pieces
            .iter()
            .map(|p| match p {
                ReadPiece::Direct {
                    coord,
                    len,
                    dest_off,
                } => (coord.node, coord.addr, *len, *dest_off),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            directs,
            vec![
                (1, 0x1000 + 500, 500, 0),
                (2, 0x2000, 1000, 500),
                (3, 0x3000, 500, 1500),
            ]
        );
    }

    #[test]
    fn ec_failed_data_node_goes_degraded_with_k_survivors() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 3000,
            chunk_len: 1000,
            scheme: RsScheme::new(3, 2),
            data: vec![coord(1, 0x1000), coord(2, 0x2000), coord(3, 0x3000)],
            parities: vec![coord(4, 0x4000), coord(5, 0x5000)],
        });
        let failed: FailedSet = [2].into();
        let plan = m.resolve(0, 3000, &failed).expect("resolve");
        assert_partition(&plan);
        assert_eq!(plan.degraded_stripes, 1);
        let deg = plan
            .pieces
            .iter()
            .find_map(|p| match p {
                ReadPiece::Degraded { fetch, copy, .. } => Some((fetch.clone(), copy.clone())),
                _ => None,
            })
            .expect("degraded piece");
        let (fetch, copy) = deg;
        let idxs: Vec<usize> = fetch.iter().map(|(i, _)| *i).collect();
        assert_eq!(idxs, vec![0, 2, 3], "data survivors, then parity");
        assert_eq!(
            copy,
            vec![ChunkCopy {
                chunk: 1,
                chunk_off: 0,
                len: 1000,
                dest_off: 1000
            }]
        );
    }

    /// Which parities complete the survivor set, and which survivor
    /// coordinates an offloaded decode, rotate with the record id — a
    /// pure function of the record, so every resolve of it agrees.
    #[test]
    fn degraded_survivor_choice_rotates_with_the_record_id() {
        let mut m = ExtentMap::new();
        for r in 0..6u64 {
            m.record(ExtentRecord::Ec {
                offset: r * 3000,
                len: 3000,
                chunk_len: 1000,
                scheme: RsScheme::new(3, 2),
                data: vec![coord(1, 0x1000), coord(2, 0x2000), coord(3, 0x3000)],
                parities: vec![coord(4, 0x4000), coord(5, 0x5000)],
            });
        }
        let failed: FailedSet = [1].into();
        let choice = |r: u64| {
            let plan = m.resolve(r * 3000, 3000, &failed).expect("resolve");
            let pick = plan.pieces.iter().find_map(|p| match p {
                ReadPiece::Degraded {
                    rec,
                    coordinator,
                    fetch,
                    ..
                } => Some((
                    *rec,
                    fetch.iter().map(|f| f.0).collect::<Vec<_>>(),
                    *coordinator,
                )),
                _ => None,
            });
            pick.expect("degraded piece")
        };
        for r in 0..6 {
            let (rec, shards, coordinator) = choice(r);
            assert_eq!(rec, r as usize);
            assert_eq!(shards, vec![1, 2, 3 + rec % 2], "record {rec}");
            assert_eq!(coordinator, rec % 3, "record {rec}");
            assert_eq!(choice(r), (rec, shards, coordinator), "stable");
        }
        // Two data shards down: both parities are needed, in shard order,
        // whatever the rotation's starting point.
        let failed: FailedSet = [1, 3].into();
        for r in 0..2u64 {
            let plan = m.resolve(r * 3000, 3000, &failed).expect("resolve");
            let shards = plan.pieces.iter().find_map(|p| match p {
                ReadPiece::Degraded { fetch, .. } => {
                    Some(fetch.iter().map(|f| f.0).collect::<Vec<_>>())
                }
                _ => None,
            });
            assert_eq!(shards.expect("degraded piece"), vec![1, 3, 4]);
        }
    }

    #[test]
    fn ec_failed_parity_node_does_not_degrade_reads() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 2000,
            chunk_len: 1000,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(1, 0x1000), coord(2, 0x2000)],
            parities: vec![coord(3, 0x3000)],
        });
        let failed: FailedSet = [3].into();
        let plan = m.resolve(0, 2000, &failed).expect("resolve");
        assert_eq!(plan.degraded_stripes, 0);
        assert_partition(&plan);
    }

    #[test]
    fn ec_too_many_failures_rejected() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 2000,
            chunk_len: 1000,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(1, 0x1000), coord(2, 0x2000)],
            parities: vec![coord(3, 0x3000)],
        });
        let failed: FailedSet = [1, 3].into();
        assert_eq!(
            m.resolve(0, 2000, &failed).unwrap_err(),
            MetaError::TooManyFailures { stripe_offset: 0 }
        );
    }

    #[test]
    fn shadowed_degraded_stripe_fetches_survivors_once() {
        // An EC stripe overwritten in the middle by a newer plain write:
        // the request splits into two segments of the old stripe, but the
        // degraded fetch + reconstruction must happen exactly once.
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 3000,
            chunk_len: 1000,
            scheme: RsScheme::new(3, 2),
            data: vec![coord(1, 0x1000), coord(2, 0x2000), coord(3, 0x3000)],
            parities: vec![coord(4, 0x4000), coord(5, 0x5000)],
        });
        m.record(ExtentRecord::Plain {
            offset: 200,
            len: 400,
            coord: coord(6, 0x6000),
        });
        let failed: FailedSet = [1].into();
        let plan = m.resolve(0, 3000, &failed).expect("resolve");
        assert_partition(&plan);
        assert_eq!(plan.degraded_stripes, 1, "one physical stripe degraded");
        let degraded: Vec<_> = plan
            .pieces
            .iter()
            .filter(|p| matches!(p, ReadPiece::Degraded { .. }))
            .collect();
        assert_eq!(degraded.len(), 1, "survivors fetched once, not per segment");
        let ReadPiece::Degraded { copy, .. } = degraded[0] else {
            unreachable!();
        };
        // Both segments of the failed chunk are served by that one fetch.
        assert_eq!(
            copy,
            &vec![
                ChunkCopy {
                    chunk: 0,
                    chunk_off: 0,
                    len: 200,
                    dest_off: 0
                },
                ChunkCopy {
                    chunk: 0,
                    chunk_off: 600,
                    len: 400,
                    dest_off: 600
                },
            ]
        );
    }

    #[test]
    fn affected_records_finds_every_policy_kind() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 10,
            coord: coord(1, 0),
        });
        m.record(ExtentRecord::Replicated {
            offset: 10,
            len: 10,
            replicas: vec![coord(2, 0), coord(3, 0)],
        });
        m.record(ExtentRecord::Ec {
            offset: 20,
            len: 20,
            chunk_len: 10,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(4, 0), coord(5, 0)],
            parities: vec![coord(3, 0x100)],
        });
        assert_eq!(m.affected_records(3), vec![1, 2], "replica and parity");
        assert_eq!(m.affected_records(1), vec![0]);
        assert!(m.affected_records(9).is_empty());
    }

    #[test]
    fn rehome_rewrites_shards_and_bumps_generation() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Ec {
            offset: 0,
            len: 2000,
            chunk_len: 1000,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(1, 0x1000), coord(2, 0x2000)],
            parities: vec![coord(3, 0x3000)],
        });
        let g0 = m.generation();
        // Re-home data shard 1 and the parity (shard 2) to spares.
        let mut old = vec![];
        m.rehome(0, &[(1, coord(7, 0x7000)), (2, coord(8, 0x8000))], |c| {
            old.push(c)
        })
        .expect("rehome");
        assert_eq!(old, [coord(2, 0x2000), coord(3, 0x3000)], "the replaced");
        assert_eq!(m.generation(), g0 + 1, "repair commit bumps generation");
        let failed: FailedSet = [2].into();
        let plan = m.resolve(0, 2000, &failed).expect("resolve");
        assert_eq!(plan.degraded_stripes, 0, "shard no longer on node 2");
        assert!(plan.pieces.iter().any(
            |p| matches!(p, ReadPiece::Direct { coord, .. } if coord.node == 7),
            // the re-homed shard serves from the spare
        ));
        // Stale slot / record ids are typed errors, not panics.
        assert_eq!(
            m.rehome(0, &[(5, coord(9, 0))], |_| {}).unwrap_err(),
            MetaError::NotFound
        );
        assert_eq!(
            m.rehome(3, &[(0, coord(9, 0))], |_| {}).unwrap_err(),
            MetaError::NotFound
        );
        // A rejected batch is atomic: the valid slot is NOT applied and
        // the generation does not move.
        let g = m.generation();
        assert_eq!(
            m.rehome(0, &[(0, coord(11, 0xB000)), (9, coord(12, 0xC000))], |_| {
                panic!("a rejected batch replaces nothing")
            })
            .unwrap_err(),
            MetaError::NotFound
        );
        assert_eq!(m.generation(), g, "partial application never happens");
        let plan = m.resolve(0, 2000, &FailedSet::new()).expect("resolve");
        assert!(
            !plan
                .pieces
                .iter()
                .any(|p| matches!(p, ReadPiece::Direct { coord, .. } if coord.node == 11)),
            "slot 0 untouched by the rejected batch"
        );
    }

    #[test]
    fn degraded_pieces_carry_their_record_id() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 100,
            coord: coord(9, 0),
        });
        m.record(ExtentRecord::Ec {
            offset: 100,
            len: 2000,
            chunk_len: 1000,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(1, 0x1000), coord(2, 0x2000)],
            parities: vec![coord(3, 0x3000)],
        });
        let failed: FailedSet = [1].into();
        let plan = m.resolve(100, 2000, &failed).expect("resolve");
        let rec = plan
            .pieces
            .iter()
            .find_map(|p| match p {
                ReadPiece::Degraded { rec, .. } => Some(*rec),
                _ => None,
            })
            .expect("degraded piece");
        assert_eq!(rec, 1, "the EC record's commit-order id");
    }

    #[test]
    fn compact_drops_fully_shadowed_records_and_remaps() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 100,
            coord: coord(1, 0x1000),
        }); // fully shadowed by the two writes below
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 60,
            coord: coord(2, 0x2000),
        });
        m.record(ExtentRecord::Plain {
            offset: 50,
            len: 50,
            coord: coord(3, 0x3000),
        });
        m.record(ExtentRecord::Ec {
            offset: 200,
            len: 2000,
            chunk_len: 1000,
            scheme: RsScheme::new(2, 1),
            data: vec![coord(4, 0x4000), coord(5, 0x5000)],
            parities: vec![coord(6, 0x6000)],
        });
        let before = m.resolve(0, 2200, &no_failures()).expect("resolve");
        let g0 = m.generation();
        let res = m.compact();
        assert_eq!(res.dropped, 1);
        assert_eq!(res.remap, vec![None, Some(0), Some(1), Some(2)]);
        assert_eq!(m.len(), 3);
        assert!(m.generation() > g0, "dropping records bumps the generation");
        let after = m.resolve(0, 2200, &no_failures()).expect("resolve");
        // Byte-for-byte identical resolution.
        let owner = |plan: &ReadPlan| -> Vec<Option<(u32, u64)>> {
            let mut v = vec![None; plan.len as usize];
            for p in &plan.pieces {
                if let ReadPiece::Direct {
                    coord,
                    len,
                    dest_off,
                } = p
                {
                    for d in 0..*len {
                        v[(*dest_off + d) as usize] = Some((coord.node, coord.addr + d as u64));
                    }
                }
            }
            v
        };
        assert_eq!(owner(&before), owner(&after));
        // Idempotent: nothing left to drop.
        let res2 = m.compact();
        assert_eq!(res2.dropped, 0);
        assert_eq!(m.generation(), g0 + 1, "no-op compaction leaves it alone");
    }

    #[test]
    fn compact_keeps_partially_visible_records() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 100,
            coord: coord(1, 0),
        });
        m.record(ExtentRecord::Plain {
            offset: 10,
            len: 80,
            coord: coord(2, 0),
        }); // the head and tail of record 0 still show through
        let res = m.compact();
        assert_eq!(res.dropped, 0);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn partial_coverage_mixes_extent_and_hole() {
        let mut m = ExtentMap::new();
        m.record(ExtentRecord::Plain {
            offset: 0,
            len: 100,
            coord: coord(1, 0),
        });
        let plan = m.resolve(50, 100, &no_failures()).expect("resolve");
        assert_partition(&plan);
        assert!(plan.pieces.iter().any(|p| matches!(
            p,
            ReadPiece::Hole {
                dest_off: 50,
                len: 50
            }
        )));
    }
}
