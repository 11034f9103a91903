//! Regenerates the paper's tables and figures: every entry of
//! `nadfs_bench::figures::ALL`, or, given arguments, only the entries whose
//! name contains one of them (`all_figures fig09 table`).
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for (name, run) in nadfs_bench::figures::ALL {
        if args.is_empty() || args.iter().any(|a| name.contains(a.as_str())) {
            println!("{}", run());
        }
    }
}
