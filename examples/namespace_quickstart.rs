//! The metadata subsystem end-to-end: build a directory tree, create a
//! striped file, write through the simulated cluster (one RDMA write per
//! stripe extent), then rename and show the typed error a stale write
//! gets.

use nadfs_core::{ClusterSpec, Job, LayoutSpec, MetaOp, SimCluster, StorageMode, WriteProtocol};

fn main() {
    let mut cl = SimCluster::build(ClusterSpec::new(1, 4, StorageMode::Plain));

    // Directory tree + a 4-wide striped file, driven as client jobs.
    cl.submit(
        0,
        Job::Meta {
            op: MetaOp::Mkdir {
                path: "/proj".into(),
            },
            token: 1,
        },
    );
    cl.submit(
        0,
        Job::Meta {
            op: MetaOp::Create {
                path: "/proj/data".into(),
                spec: LayoutSpec::striped(4, 16 << 10),
            },
            token: 2,
        },
    );
    cl.start();
    cl.run_until_metas(2, 1_000);

    let file = cl
        .control
        .borrow_mut()
        .lookup_path("/proj/data")
        .expect("created");
    println!(
        "created /proj/data (ino {}) striped 4 wide x 16 KiB chunks",
        file.ino
    );

    // One 64 KiB write fans out as four 16 KiB extents.
    cl.submit(
        0,
        Job::Write {
            file: file.ino,
            size: 64 << 10,
            protocol: WriteProtocol::Raw,
            seed: 42,
        },
    );
    cl.start();
    cl.run_until_writes(1, 1_000);
    {
        let results = cl.results.borrow();
        let w = &results.writes[0];
        let nodes: Vec<u32> = w.placement.stripes.iter().map(|s| s.coord.node).collect();
        println!(
            "write {} KiB -> {} stripe extents on nodes {:?} in {:.2} us (status {:?})",
            w.size >> 10,
            w.placement.stripes.len(),
            nodes,
            w.end.since(w.start).ps() as f64 / 1e6,
            w.status
        );
    }
    let placed: Vec<u64> = cl
        .control
        .borrow()
        .node_ledgers()
        .map(|l| l.stripe_chunks_placed)
        .collect();
    println!("per-node stripe chunks placed: {placed:?}");

    // Rename the directory, then show a stale write failing typed.
    cl.control
        .borrow_mut()
        .rename("/proj", "/archive", 1)
        .expect("rename");
    let listing = cl.control.borrow_mut().readdir("/archive").expect("ls");
    println!(
        "after rename, /archive contains {:?}",
        listing.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    let err = cl
        .control
        .borrow_mut()
        .lookup_path("/proj/data")
        .unwrap_err();
    println!("lookup of the old path now fails typed: {err}");

    cl.control
        .borrow_mut()
        .unlink("/archive/data", 2)
        .expect("unlink");
    cl.submit(
        0,
        Job::Write {
            file: file.ino,
            size: 4096,
            protocol: WriteProtocol::Raw,
            seed: 7,
        },
    );
    cl.start();
    cl.run_until_writes(2, 1_000);
    let results = cl.results.borrow();
    println!(
        "write to the unlinked file completes as a failed job: status {:?}",
        results.writes[1].status
    );
}
