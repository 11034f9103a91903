//! Where the simulator's own host time goes: a SIGPROF sampler around
//! two sPIN write storms, the shapes of the benchmark's
//! `small_write_storm` (16 clients × window 8, 4 KiB plain writes on 4
//! nodes) and `repl_write_ring` (8 × 4, 64 KiB Ring k = 4 writes).
//!
//! Files are created through [`FsClient`]; each storm then runs its
//! clients' seeded write jobs through the cluster underneath, on a fresh
//! cluster per repetition, as the benchmark does. A profiling timer
//! (`setitimer(ITIMER_PROF)`, 1 ms of process CPU time, which the kernel
//! delivers at its tick) raises SIGPROF; only samples taken inside
//! `SimCluster::run_until_writes` are kept.
//! Each keeps the interrupted PC and the return addresses a frame-pointer
//! walk from the interrupted `rbp` finds. The libc calls are declared
//! here (`extern "C"`), so no crate is added.
//!
//! Build with frame pointers, into a target directory of its own so the
//! flag does not rebuild the usual one, then symbolise:
//!
//! ```sh
//! RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=target/fp \
//!   cargo run --release -p nadfs-examples --example host_profile -- 40
//! .github/host-profile.sh target/fp/release/examples/host_profile \
//!   target/host-profile/4k.txt
//! ```
//!
//! Arguments: repetitions per storm (default 1) and the output directory
//! (default `target/host-profile`). It writes one samples file per storm
//! (`4k.txt`, `64k.txt`: a line per sample, innermost frame first, each
//! an address in the executable's own numbering or `[library]`) and
//! `maps.txt`, a copy of `/proc/self/maps`. Stdout depends only on the
//! arguments; sample counts go to stderr.

use nadfs_core::{
    ClusterSpec, FilePolicy, FsClient, LayoutSpec, SimCluster, SizeDist, StorageMode, Workload,
    WriteProtocol,
};
use nadfs_wire::{BcastStrategy, Status};

/// One write storm.
struct Storm {
    label: &'static str,
    clients: usize,
    window: usize,
    policy: FilePolicy,
    protocol: WriteProtocol,
    size: u32,
    writes_per_client: usize,
}

fn storms() -> [Storm; 2] {
    [
        Storm {
            label: "4k",
            clients: 16,
            window: 8,
            policy: FilePolicy::Plain,
            protocol: WriteProtocol::Spin,
            size: 4 << 10,
            writes_per_client: 1000,
        },
        Storm {
            label: "64k",
            clients: 8,
            window: 4,
            policy: FilePolicy::Replicated {
                k: 4,
                strategy: BcastStrategy::Ring,
            },
            protocol: WriteProtocol::SpinReplicated,
            size: 64 << 10,
            writes_per_client: 128,
        },
    ]
}

/// Build a fresh cluster, create one file per client through
/// [`FsClient`], and run every client's writes with `sampling` armed
/// around the run. Returns the writes and packets the storm made.
fn run_storm(s: &Storm, rep: usize, sampling: &impl Fn(bool)) -> (usize, u64) {
    let spec = ClusterSpec::new(s.clients, 4, StorageMode::Spin)
        .with_window(s.window)
        .with_observability(false);
    let mut fs = FsClient::new(SimCluster::build(spec));
    fs.mkdir_p("/storm").expect("mkdir");
    let jitter = s.size / 32;
    let sizes = SizeDist::Uniform {
        min: s.size - jitter,
        max: s.size + jitter,
    };
    for c in 0..s.clients {
        let path = format!("/storm/c{c}");
        let h = fs
            .create_with_policy(&path, LayoutSpec::SINGLE, s.policy.clone())
            .expect("create");
        let jobs = Workload::new(h.id(), s.protocol, sizes.clone())
            .with_writes(s.writes_per_client)
            .with_seed(rep as u64 + 1)
            .jobs_for_client(c);
        jobs.into_iter().for_each(|j| fs.cluster.submit(c, j));
    }
    let total = s.clients * s.writes_per_client;
    fs.cluster.start();
    sampling(true);
    let done = fs.cluster.run_until_writes(total, 600_000);
    sampling(false);
    assert_eq!(done, total, "{}: writes incomplete", s.label);
    let writes = std::mem::take(&mut fs.cluster.results.borrow_mut().writes);
    assert!(writes.iter().all(|w| w.status == Status::Ok));
    let pkts = fs.cluster.pspin_telemetry.iter().flatten();
    (total, pkts.map(|t| t.borrow().pkts_processed).sum())
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    let mut args = std::env::args().skip(1);
    let reps: usize = args.next().map_or(1, |a| a.parse().expect("repetitions"));
    let out = std::path::PathBuf::from(args.next().unwrap_or("target/host-profile".into()));
    std::fs::create_dir_all(&out).expect("output directory");
    let sampler = sampler::Sampler::install();
    for s in storms() {
        let (mut writes, mut pkts) = (0, 0);
        for rep in 0..reps {
            let (w, p) = run_storm(&s, rep, &|on| sampler.arm(on));
            writes += w;
            pkts += p;
        }
        let path = out.join(format!("{}.txt", s.label));
        let (samples, dropped) = sampler.drain_to(&path).expect("write samples");
        println!(
            "{}: {reps} x {} clients x {} writes of ~{} B, {writes} writes, {pkts} pSPIN packets -> {}",
            s.label,
            s.clients,
            s.writes_per_client,
            s.size,
            path.display()
        );
        eprintln!("{}: {samples} samples kept, {dropped} dropped", s.label);
    }
    std::fs::copy("/proc/self/maps", out.join("maps.txt")).expect("copy maps");
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    // The sampler reads x86-64 Linux signal frames; elsewhere the storms
    // still run, unsampled.
    for s in storms() {
        let (writes, pkts) = run_storm(&s, 0, &|_| {});
        println!(
            "{}: {writes} writes, {pkts} pSPIN packets (not sampled)",
            s.label
        );
    }
}

/// The SIGPROF sampler. The handler writes into a fixed buffer and
/// allocates nothing; frames are turned into addresses of the executable
/// after the run.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::ffi::c_void;
    use std::io::Write;
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t.uc_mcontext.gregs` and the two registers read from it.
    const GREGS: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RIP: usize = 16;
    const MAX_DEPTH: usize = 64;
    /// Sample words: a depth, then that many frames (16 MiB, zero pages
    /// until written).
    const WORDS: usize = 1 << 21;

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    // The handler runs on the thread it interrupts. `SeqCst` everywhere
    // keeps the compiler from moving this thread's accesses to what the
    // handler reads or wrote across the flag and cursor accesses.
    static ARMED: AtomicBool = AtomicBool::new(false);
    /// `WORDS` words, allocated once at install; the handler is the only
    /// writer while armed, and a drain reads them disarmed.
    static BUF: AtomicPtr<u64> = AtomicPtr::new(std::ptr::null_mut());
    static USED: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    /// The main thread's stack, `[lo, hi)`: the walk reads nothing else.
    static STACK: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

    extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, uc: *mut c_void) {
        if !ARMED.load(SeqCst) {
            return;
        }
        let start = USED.load(SeqCst);
        if start + 2 + MAX_DEPTH > WORDS {
            DROPPED.fetch_add(1, SeqCst);
            return;
        }
        // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
        // handler; `gregs` sits at a fixed offset in it on x86-64.
        let greg = |r: usize| unsafe { *(uc.cast::<u8>().add(GREGS + 8 * r) as *const u64) };
        let buf = BUF.load(SeqCst);
        // SAFETY: every index written is below `start + 2 + MAX_DEPTH`,
        // inside the buffer.
        let put = |i: usize, v: u64| unsafe { *buf.add(i) = v };
        let (lo, hi) = (STACK[0].load(SeqCst), STACK[1].load(SeqCst));
        let mut depth = 1;
        put(start + 1, greg(REG_RIP));
        let mut fp = greg(REG_RBP);
        while depth < MAX_DEPTH && fp >= lo && fp + 16 <= hi && fp % 8 == 0 {
            // SAFETY: `fp` and `fp + 8` lie inside the mapped stack.
            let (next, ret) = unsafe { (*(fp as *const u64), *((fp + 8) as *const u64)) };
            if ret == 0 {
                break;
            }
            // The call instruction, not the one after it.
            put(start + 1 + depth, ret - 1);
            depth += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
        put(start, depth as u64);
        USED.store(start + 1 + depth, SeqCst);
    }

    /// One line of `/proc/self/maps`: `[start, end)`, file offset, path.
    struct Map {
        start: u64,
        end: u64,
        offset: u64,
        path: String,
    }

    fn maps() -> Vec<Map> {
        let text = std::fs::read_to_string("/proc/self/maps").expect("read maps");
        let hex = |s: &str| u64::from_str_radix(s, 16).expect("hex field");
        text.lines()
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let (start, end) = f[0].split_once('-').expect("range");
                Map {
                    start: hex(start),
                    end: hex(end),
                    offset: hex(f[2]),
                    path: f.get(5).unwrap_or(&"").to_string(),
                }
            })
            .collect()
    }

    pub(crate) struct Sampler;

    impl Sampler {
        /// Install the handler and start the profiling timer.
        pub(crate) fn install() -> Sampler {
            let stack = maps().into_iter().find(|m| m.path == "[stack]");
            let stack = stack.expect("a [stack] mapping");
            STACK[0].store(stack.start, SeqCst);
            STACK[1].store(stack.end, SeqCst);
            BUF.store(vec![0u64; WORDS].leak().as_mut_ptr(), SeqCst);
            let act = SigAction {
                handler: on_sigprof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_RESTART,
                restorer: 0,
            };
            let tick = Timeval { sec: 0, usec: 1000 };
            let timer = Itimerval {
                interval: tick,
                value: tick,
            };
            // SAFETY: both structs are laid out as glibc declares them,
            // and the handler touches only atomics and the stack.
            unsafe {
                assert_eq!(sigaction(SIGPROF, &act, std::ptr::null_mut()), 0);
                assert_eq!(setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()), 0);
            }
            Sampler
        }

        pub(crate) fn arm(&self, on: bool) {
            ARMED.store(on, SeqCst);
        }

        /// Write the samples taken since the last drain to `path`, one a
        /// line, and reset the buffer. Returns samples written and
        /// dropped for want of room.
        pub(crate) fn drain_to(&self, path: &Path) -> std::io::Result<(usize, u64)> {
            self.arm(false);
            let maps = maps();
            let exe = std::env::current_exe()?.canonicalize()?;
            let exe = exe.to_string_lossy();
            // A position-independent executable's first segment is linked
            // at address 0: what it was loaded at is the bias.
            let bias = maps
                .iter()
                .find(|m| m.path == exe && m.offset == 0)
                .map_or(0, |m| m.start);
            let frame = |pc: u64| match maps.iter().find(|m| (m.start..m.end).contains(&pc)) {
                Some(m) if m.path == exe => format!("{:016x}", pc - bias),
                Some(m) if !m.path.is_empty() => {
                    format!("[{}]", m.path.rsplit('/').next().unwrap_or(&m.path))
                }
                _ => "[?]".to_owned(),
            };
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            let used = USED.load(SeqCst);
            // SAFETY: disarmed, so the handler writes nothing while this
            // reads the `used` words it wrote.
            let buf = unsafe { std::slice::from_raw_parts(BUF.load(SeqCst), used) };
            let (mut at, mut samples) = (0, 0);
            while at < used {
                let depth = buf[at] as usize;
                let frames = buf[at + 1..=at + depth].iter().map(|&pc| frame(pc));
                writeln!(w, "{}", frames.collect::<Vec<_>>().join(" "))?;
                at += 1 + depth;
                samples += 1;
            }
            w.flush()?;
            USED.store(0, SeqCst);
            Ok((samples, DROPPED.swap(0, SeqCst)))
        }
    }
}
