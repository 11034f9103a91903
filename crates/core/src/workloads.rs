//! Synthetic workload generation for experiments and examples.
//!
//! The paper's evaluation uses fixed-size write streams; downstream users
//! of a DFS care about mixed, skewed traffic. This module provides
//! deterministic (seeded) generators for both, built on `rand`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{Job, MetaOp, ReadProtocol, WriteProtocol};
use nadfs_meta::LayoutSpec;

/// Write-size distribution.
#[derive(Clone, Debug)]
pub enum SizeDist {
    /// Every write has the same size.
    Fixed(u32),
    /// Uniform over [min, max].
    Uniform { min: u32, max: u32 },
    /// Log-uniform over [min, max]: sizes spread evenly across octaves,
    /// matching the log-scaled x-axes of the paper's figures.
    LogUniform { min: u32, max: u32 },
    /// Bimodal small/large mix: `small_frac` in \[0,1\] of writes take
    /// `small`, the rest take `large` (metadata-vs-bulk pattern).
    Bimodal {
        small: u32,
        large: u32,
        small_frac: f64,
    },
}

impl SizeDist {
    fn sample(&self, rng: &mut StdRng) -> u32 {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Uniform { min, max } => rng.gen_range(min..=max),
            SizeDist::LogUniform { min, max } => {
                assert!(min > 0 && min <= max);
                let lo = (min as f64).ln();
                let hi = (max as f64).ln();
                let v = rng.gen_range(lo..=hi);
                (v.exp().round() as u32).clamp(min, max)
            }
            SizeDist::Bimodal {
                small,
                large,
                small_frac,
            } => {
                if rng.gen_bool(small_frac.clamp(0.0, 1.0)) {
                    small
                } else {
                    large
                }
            }
        }
    }
}

/// How the read phase picks its offsets — the axis a client read cache
/// cares about.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReadPattern {
    /// Offsets sampled uniformly over the written region (the original
    /// behavior; worst case for caching).
    Uniform,
    /// A forward scan: each read starts where the previous one ended,
    /// wrapping at the end of the written region. The streaming pattern
    /// readahead exists for.
    Sequential,
    /// Skewed popularity: read `i` targets block `floor(N * u^exponent)`
    /// of the written region, concentrating accesses on a hot prefix
    /// (exponent 2.0 ≈ the classic zipf-ish hot set). What a cache's
    /// steady-state hit rate is measured against. Exponents below 1.0
    /// are clamped to 1.0 (uniform) — sub-uniform spread is not a skew.
    Zipfian { exponent: f64 },
}

/// A deterministic workload: `n` writes per client with a size
/// distribution and one protocol, optionally followed by a ranged-read
/// phase over the written region (a read-after-write mix).
#[derive(Clone, Debug)]
pub struct Workload {
    pub(crate) file: u64,
    pub(crate) protocol: WriteProtocol,
    pub(crate) sizes: SizeDist,
    pub(crate) writes_per_client: usize,
    /// Ranged reads appended after the writes (0 = write-only).
    pub(crate) reads_per_client: usize,
    pub(crate) read_protocol: ReadProtocol,
    /// Offset selection for the read phase.
    pub(crate) read_pattern: ReadPattern,
    pub(crate) seed: u64,
}

impl Workload {
    pub fn new(file: u64, protocol: WriteProtocol, sizes: SizeDist) -> Workload {
        Workload {
            file,
            protocol,
            sizes,
            writes_per_client: 16,
            reads_per_client: 0,
            read_protocol: ReadProtocol::Rdma,
            read_pattern: ReadPattern::Uniform,
            seed: 0xBEEF,
        }
    }

    pub fn with_writes(mut self, n: usize) -> Workload {
        self.writes_per_client = n;
        self
    }

    /// Append `n` ranged reads (offsets/lengths sampled over the region
    /// this client wrote) using `protocol`.
    pub fn with_reads(mut self, n: usize, protocol: ReadProtocol) -> Workload {
        self.reads_per_client = n;
        self.read_protocol = protocol;
        self
    }

    /// Pick how the read phase chooses offsets (sequential streaming,
    /// zipfian hot-set, or the uniform default).
    pub fn with_read_pattern(mut self, pattern: ReadPattern) -> Workload {
        self.read_pattern = pattern;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Workload {
        self.seed = seed;
        self
    }

    /// Generate client `idx`'s job list (deterministic per (seed, idx)).
    pub fn jobs_for_client(&self, idx: usize) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (idx as u64).wrapping_mul(0x9E37));
        let mut jobs: Vec<Job> = Vec::with_capacity(self.writes_per_client + self.reads_per_client);
        let mut written = 0u64;
        for i in 0..self.writes_per_client {
            let size = self.sizes.sample(&mut rng).max(1);
            written += size as u64;
            jobs.push(Job::Write {
                file: self.file,
                size,
                protocol: self.protocol,
                seed: self.seed ^ ((idx as u64) << 32) ^ i as u64,
            });
        }
        // Read phase: ranges within the bytes this client wrote. The
        // plan queue is in-order, so with window 1 every targeted byte is
        // committed before its read issues; wider windows or concurrent
        // clients can race a read past an uncommitted write, in which
        // case the uncovered range legally reads back as a zero-filled
        // hole (cheaper than a fetch — don't compare read latencies
        // across window settings without checking hole rates).
        let mut stream_off = 0u64;
        for i in 0..self.reads_per_client {
            let len = self.sizes.sample(&mut rng).max(1);
            let max_off = written.saturating_sub(len as u64);
            let offset = match self.read_pattern {
                ReadPattern::Uniform => {
                    if max_off == 0 {
                        0
                    } else {
                        rng.gen_range(0..=max_off)
                    }
                }
                ReadPattern::Sequential => {
                    // Forward scan; wrap when the next read would run
                    // past the written region.
                    if stream_off > max_off {
                        stream_off = 0;
                    }
                    let o = stream_off;
                    stream_off += len as u64;
                    o
                }
                ReadPattern::Zipfian { exponent } => {
                    // u^e concentrates mass near 0: a hot prefix whose
                    // skew grows with the exponent.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    ((u.powf(exponent.max(1.0)) * max_off as f64) as u64).min(max_off)
                }
            };
            jobs.push(Job::Read {
                file: self.file,
                offset,
                len,
                protocol: self.read_protocol,
                token: ((idx as u64) << 32) | i as u64,
                slot: None,
            });
        }
        jobs
    }

    /// Total bytes this workload writes across `n_clients`.
    pub fn total_bytes(&self, n_clients: usize) -> u64 {
        (0..n_clients)
            .flat_map(|c| self.jobs_for_client(c))
            .map(|j| match j {
                Job::Write { size, .. } => size as u64,
                _ => 0,
            })
            .sum()
    }
}

/// A metadata-heavy workload: touch/stat/rename/rm storms in the style of
/// the zippynfs directory-operation benchmarks (and the metadata traffic
/// SwitchFS/AsyncFS identify as the next bottleneck once the data path is
/// offloaded).
///
/// Each client works in its own subtree `{root}/c{idx}`, so runs are
/// deterministic and clients never conflict: it makes `dirs` directories,
/// touches `files_per_dir` files in each, stats paths in a skewed storm
/// (repeated lookups of popular files — what a client cache absorbs),
/// renames and then unlinks a fraction, and ends with one readdir per
/// directory.
#[derive(Clone, Debug)]
pub struct MetaWorkload {
    /// Workload root (must exist before the run; see
    /// [`MetaWorkload::prepare`]).
    pub(crate) root: String,
    pub(crate) dirs: usize,
    pub(crate) files_per_dir: usize,
    /// Number of stat (lookup) ops in the storm.
    pub(crate) stat_storm: usize,
    /// Fraction of files renamed after the storm, in [0, 1].
    pub(crate) rename_frac: f64,
    /// Fraction of files unlinked at the end, in [0, 1].
    pub(crate) unlink_frac: f64,
    /// Stripe layout for the touched files.
    pub(crate) layout: LayoutSpec,
    pub(crate) seed: u64,
}

impl MetaWorkload {
    pub fn new(root: impl Into<String>) -> MetaWorkload {
        MetaWorkload {
            root: root.into(),
            dirs: 4,
            files_per_dir: 8,
            stat_storm: 64,
            rename_frac: 0.25,
            unlink_frac: 0.25,
            layout: LayoutSpec::SINGLE,
            seed: 0xD1F5,
        }
    }

    pub fn with_dirs(mut self, dirs: usize, files_per_dir: usize) -> MetaWorkload {
        self.dirs = dirs;
        self.files_per_dir = files_per_dir;
        self
    }

    pub fn with_storm(mut self, lookups: usize) -> MetaWorkload {
        self.stat_storm = lookups;
        self
    }

    pub fn with_layout(mut self, layout: LayoutSpec) -> MetaWorkload {
        self.layout = layout;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> MetaWorkload {
        self.seed = seed;
        self
    }

    /// Create the shared workload root on the control plane (call once
    /// before submitting jobs).
    pub fn prepare(&self, control: &crate::control::SharedControl) {
        control
            .borrow_mut()
            .mkdir_p(&self.root, 0)
            .expect("workload root");
    }

    fn base(&self, idx: usize) -> String {
        format!("{}/c{idx}", self.root)
    }

    fn file_path(&self, idx: usize, dir: usize, file: usize) -> String {
        format!("{}/d{dir}/f{file}", self.base(idx))
    }

    /// Renamed and unlinked counts for `files` total files. Renames take
    /// the head of the list and unlinks the tail of the *original* paths,
    /// so the unlink count is capped at the un-renamed remainder — both
    /// fractions may legally be in [0, 1] without generating jobs that
    /// are guaranteed to fail.
    fn churn_counts(&self, files: usize) -> (usize, usize) {
        let renamed = ((files as f64 * self.rename_frac) as usize).min(files);
        let unlinked = ((files as f64 * self.unlink_frac) as usize).min(files - renamed);
        (renamed, unlinked)
    }

    /// Number of jobs [`MetaWorkload::jobs_for_client`] emits per client.
    pub fn ops_per_client(&self) -> usize {
        let files = self.dirs * self.files_per_dir;
        let (renamed, unlinked) = self.churn_counts(files);
        1 + self.dirs + files + self.stat_storm + renamed + unlinked + self.dirs
    }

    /// Generate client `idx`'s job list (deterministic per (seed, idx)).
    pub fn jobs_for_client(&self, idx: usize) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ (idx as u64).wrapping_mul(0xA5A5));
        let mut token = (idx as u64) << 32;
        let mut tok = || {
            token += 1;
            token
        };
        let mut jobs = Vec::with_capacity(self.ops_per_client());
        let base = self.base(idx);
        jobs.push(Job::Meta {
            op: MetaOp::Mkdir { path: base.clone() },
            token: tok(),
        });
        for d in 0..self.dirs {
            jobs.push(Job::Meta {
                op: MetaOp::Mkdir {
                    path: format!("{base}/d{d}"),
                },
                token: tok(),
            });
        }
        // Creates interleave round-robin across directories (f-major, not
        // d-major): consecutive mutations then carry different parent
        // inos, so a sharded metadata plane sees the storm spread over
        // the shard space instead of hammering one directory's shard
        // with a long same-parent run.
        let mut files = Vec::new();
        for f in 0..self.files_per_dir {
            for d in 0..self.dirs {
                let path = self.file_path(idx, d, f);
                files.push(path.clone());
                jobs.push(Job::Meta {
                    op: MetaOp::Create {
                        path,
                        spec: self.layout,
                    },
                    token: tok(),
                });
            }
        }
        // Stat storm with popularity skew: squaring a uniform sample
        // concentrates hits on low-index (popular) files, so a cache sees
        // a realistic hot set rather than a uniform sweep. With no files
        // (dirs or files_per_dir of 0), the storm stats the client base
        // dir instead of panicking on an empty list.
        for _ in 0..self.stat_storm {
            let path = if files.is_empty() {
                base.clone()
            } else {
                let u = rng.gen_range(0.0f64..1.0);
                let i = ((u * u) * files.len() as f64) as usize;
                files[i.min(files.len() - 1)].clone()
            };
            jobs.push(Job::Meta {
                op: MetaOp::Lookup { path },
                token: tok(),
            });
        }
        // Rename a fraction (the popular prefix, maximizing invalidation
        // pressure on the cache), then unlink a fraction from the
        // un-renamed tail.
        let (renamed, unlinked) = self.churn_counts(files.len());
        for (i, path) in files.iter().take(renamed).enumerate() {
            jobs.push(Job::Meta {
                op: MetaOp::Rename {
                    from: path.clone(),
                    to: format!("{path}.r{i}"),
                },
                token: tok(),
            });
        }
        for path in files.iter().rev().take(unlinked) {
            jobs.push(Job::Meta {
                op: MetaOp::Unlink { path: path.clone() },
                token: tok(),
            });
        }
        for d in 0..self.dirs {
            jobs.push(Job::Meta {
                op: MetaOp::Readdir {
                    path: format!("{base}/d{d}"),
                },
                token: tok(),
            });
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_sizes_are_fixed() {
        let w = Workload::new(1, WriteProtocol::Raw, SizeDist::Fixed(4096)).with_writes(5);
        for j in w.jobs_for_client(0) {
            let Job::Write { size, .. } = j else {
                panic!("write job")
            };
            assert_eq!(size, 4096);
        }
    }

    #[test]
    fn generation_is_deterministic_per_client() {
        let w = Workload::new(
            1,
            WriteProtocol::Raw,
            SizeDist::LogUniform {
                min: 1 << 10,
                max: 1 << 20,
            },
        )
        .with_writes(20)
        .with_seed(7);
        let a: Vec<u32> = w
            .jobs_for_client(3)
            .iter()
            .map(|j| match j {
                Job::Write { size, .. } => *size,
                _ => 0,
            })
            .collect();
        let b: Vec<u32> = w
            .jobs_for_client(3)
            .iter()
            .map(|j| match j {
                Job::Write { size, .. } => *size,
                _ => 0,
            })
            .collect();
        assert_eq!(a, b, "same client, same jobs");
        let c: Vec<u32> = w
            .jobs_for_client(4)
            .iter()
            .map(|j| match j {
                Job::Write { size, .. } => *size,
                _ => 0,
            })
            .collect();
        assert_ne!(a, c, "different clients diverge");
    }

    #[test]
    fn log_uniform_stays_in_range_and_spreads() {
        let w = Workload::new(
            1,
            WriteProtocol::Raw,
            SizeDist::LogUniform {
                min: 1 << 10,
                max: 1 << 20,
            },
        )
        .with_writes(200);
        let sizes: Vec<u32> = w
            .jobs_for_client(0)
            .iter()
            .map(|j| match j {
                Job::Write { size, .. } => *size,
                _ => 0,
            })
            .collect();
        assert!(sizes.iter().all(|&s| (1 << 10..=1 << 20).contains(&s)));
        let small = sizes.iter().filter(|&&s| s < 32 << 10).count();
        let large = sizes.iter().filter(|&&s| s >= 32 << 10).count();
        // Log-uniform: both halves of the log range well represented.
        assert!(small > 40 && large > 40, "small={small} large={large}");
    }

    #[test]
    fn bimodal_respects_fraction_roughly() {
        let w = Workload::new(
            1,
            WriteProtocol::Raw,
            SizeDist::Bimodal {
                small: 1024,
                large: 1 << 20,
                small_frac: 0.8,
            },
        )
        .with_writes(500);
        let small = w
            .jobs_for_client(1)
            .iter()
            .filter(|j| matches!(j, Job::Write { size: 1024, .. }))
            .count();
        assert!((320..=480).contains(&small), "small={small}");
    }

    #[test]
    fn total_bytes_accounts_all_clients() {
        let w = Workload::new(1, WriteProtocol::Raw, SizeDist::Fixed(1000)).with_writes(10);
        assert_eq!(w.total_bytes(3), 30_000);
    }

    #[test]
    fn read_mix_stays_within_written_region() {
        let w = Workload::new(1, WriteProtocol::Raw, SizeDist::Fixed(4096))
            .with_writes(8)
            .with_reads(20, ReadProtocol::Rpc);
        let jobs = w.jobs_for_client(2);
        assert_eq!(jobs.len(), 28);
        let written = 8 * 4096u64;
        let reads: Vec<(u64, u32)> = jobs
            .iter()
            .filter_map(|j| match j {
                Job::Read {
                    offset,
                    len,
                    protocol,
                    ..
                } => {
                    assert_eq!(*protocol, ReadProtocol::Rpc);
                    Some((*offset, *len))
                }
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 20);
        for (off, len) in reads {
            assert!(off + len as u64 <= written, "read escapes written region");
        }
    }

    #[test]
    fn sequential_pattern_scans_forward_and_wraps() {
        let w = Workload::new(1, WriteProtocol::Raw, SizeDist::Fixed(4096))
            .with_writes(4)
            .with_reads(8, ReadProtocol::Rdma)
            .with_read_pattern(ReadPattern::Sequential);
        let reads: Vec<(u64, u32)> = w
            .jobs_for_client(0)
            .iter()
            .filter_map(|j| match j {
                Job::Read { offset, len, .. } => Some((*offset, *len)),
                _ => None,
            })
            .collect();
        assert_eq!(reads.len(), 8);
        // 4 writes of 4096 = 16384 written; reads of 4096 scan 0, 4096,
        // 8192, 12288, then wrap.
        let offs: Vec<u64> = reads.iter().map(|&(o, _)| o).collect();
        assert_eq!(offs, vec![0, 4096, 8192, 12288, 0, 4096, 8192, 12288]);
        for (off, len) in reads {
            assert!(off + len as u64 <= 16384);
        }
    }

    #[test]
    fn zipfian_pattern_concentrates_on_a_hot_prefix() {
        let w = Workload::new(1, WriteProtocol::Raw, SizeDist::Fixed(1024))
            .with_writes(64)
            .with_reads(400, ReadProtocol::Rdma)
            .with_read_pattern(ReadPattern::Zipfian { exponent: 2.0 });
        let written = 64 * 1024u64;
        let offs: Vec<u64> = w
            .jobs_for_client(0)
            .iter()
            .filter_map(|j| match j {
                Job::Read { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offs.len(), 400);
        let hot = offs.iter().filter(|&&o| o < written / 4).count();
        // u^2 puts sqrt(1/4) = 50% of accesses in the first quarter.
        assert!(hot > 150, "hot-prefix skew missing: {hot}/400");
        assert!(offs.iter().all(|&o| o + 1024 <= written));
        // Determinism per (seed, client) holds for the pattern too.
        let again: Vec<u64> = w
            .jobs_for_client(0)
            .iter()
            .filter_map(|j| match j {
                Job::Read { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert_eq!(offs, again);
    }

    #[test]
    fn meta_workload_is_deterministic_and_sized() {
        let w = MetaWorkload::new("/bench").with_dirs(2, 4).with_storm(20);
        let a = w.jobs_for_client(1);
        let b = w.jobs_for_client(1);
        assert_eq!(a.len(), w.ops_per_client());
        let paths = |jobs: &[Job]| -> Vec<String> {
            jobs.iter()
                .map(|j| match j {
                    Job::Meta {
                        op: MetaOp::Lookup { path },
                        ..
                    } => path.clone(),
                    _ => String::new(),
                })
                .collect()
        };
        assert_eq!(paths(&a), paths(&b), "same client, same storm");
        assert_ne!(paths(&a), paths(&w.jobs_for_client(2)), "clients diverge");
    }

    #[test]
    fn meta_workload_churn_never_overlaps_even_for_large_fractions() {
        let mut w = MetaWorkload::new("/x").with_dirs(2, 8);
        w.rename_frac = 0.75;
        w.unlink_frac = 0.75;
        let jobs = w.jobs_for_client(0);
        assert_eq!(jobs.len(), w.ops_per_client());
        let renamed: Vec<String> = jobs
            .iter()
            .filter_map(|j| match j {
                Job::Meta {
                    op: MetaOp::Rename { from, .. },
                    ..
                } => Some(from.clone()),
                _ => None,
            })
            .collect();
        for j in &jobs {
            if let Job::Meta {
                op: MetaOp::Unlink { path },
                ..
            } = j
            {
                assert!(
                    !renamed.contains(path),
                    "unlink of an already-renamed path would always fail: {path}"
                );
            }
        }
        assert_eq!(renamed.len(), 12);
        // Unlinks capped to the un-renamed remainder (16 - 12 = 4).
        let unlinks = jobs
            .iter()
            .filter(|j| {
                matches!(
                    j,
                    Job::Meta {
                        op: MetaOp::Unlink { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(unlinks, 4);
    }

    #[test]
    fn meta_workload_with_no_files_does_not_panic() {
        let w = MetaWorkload::new("/x").with_dirs(0, 8).with_storm(10);
        let jobs = w.jobs_for_client(0);
        assert_eq!(jobs.len(), w.ops_per_client());
        // The storm degrades to stats of the client base dir.
        assert!(jobs.iter().any(|j| matches!(
            j,
            Job::Meta {
                op: MetaOp::Lookup { path },
                ..
            } if path == "/x/c0"
        )));
    }

    #[test]
    fn meta_workload_keeps_clients_in_disjoint_subtrees() {
        let w = MetaWorkload::new("/bench");
        for job in w.jobs_for_client(3) {
            let Job::Meta { op, .. } = job else {
                panic!("meta job")
            };
            let touches = |p: &str| p.starts_with("/bench/c3");
            let ok = match &op {
                MetaOp::Mkdir { path }
                | MetaOp::Create { path, .. }
                | MetaOp::Lookup { path }
                | MetaOp::Readdir { path }
                | MetaOp::Unlink { path } => touches(path),
                MetaOp::Rename { from, to } => touches(from) && touches(to),
            };
            assert!(ok, "op escapes the client subtree: {op:?}");
        }
    }
}
