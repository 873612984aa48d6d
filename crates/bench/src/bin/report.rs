//! Regenerates the evaluation tables/figures (E1–E8; see the README's
//! *Experiments* section and the snapshots in `BENCH.md`).
//!
//! ```text
//! cargo run --release -p cbq-bench --bin report            # all
//! cargo run --release -p cbq-bench --bin report -- e1 e6   # selected
//! ```
//!
//! Exits 1 after printing every table when an engine experiment found
//! two conclusive verdicts that differ under its agreement rule, or an
//! `e6c` replay that was not a tier-1 hit (each such row is also named on
//! stderr); a bounded or unknown cell prints its `!=` marker but does not
//! fail the run. Exits 2 on an unknown experiment id.

use cbq_bench::{run_experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let mut conflicts = 0;
    for id in ids {
        match run_experiment(&id) {
            Some(table) => {
                print!("{table}");
                for row in &table.conflicts {
                    eprintln!("{id}: conclusive verdicts disagree on {row}");
                }
                conflicts += table.conflicts.len();
            }
            None => {
                eprintln!("unknown experiment `{id}` (expected one of {EXPERIMENTS:?})");
                std::process::exit(2);
            }
        }
    }
    if conflicts > 0 {
        std::process::exit(1);
    }
}
