//! The paper's evaluation, regenerated: one table per figure (Figs 4–16,
//! Tables I–III, three ablations), each beside the paper's values. With
//! arguments, prints only the tables whose name contains one of them.
//! The output is deterministic, and `examples/figures.txt` is its snapshot.
//!
//! Run with: `cargo run --release -p nadfs-examples --example figures [-- fig09 table]`

fn main() {
    let filters: Vec<String> = std::env::args().skip(1).collect();
    nadfs_examples::print_figures(&filters);
}
