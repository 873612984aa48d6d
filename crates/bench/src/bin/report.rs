//! Regenerates the evaluation tables/figures (E1–E8; see the README's
//! *Experiments* section and the snapshots in `BENCH.md`).
//!
//! ```text
//! cargo run --release -p cbq-bench --bin report            # all
//! cargo run --release -p cbq-bench --bin report -- e1 e6   # selected
//! ```

use cbq_bench::{run_experiment, EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    for id in ids {
        match run_experiment(&id) {
            Some(table) => print!("{table}"),
            None => {
                eprintln!("unknown experiment `{id}` (expected one of {EXPERIMENTS:?})");
                std::process::exit(2);
            }
        }
    }
}
