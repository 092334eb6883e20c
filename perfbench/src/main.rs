//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable metric table on stderr and, as the last line
//! of stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
//! with `--trace 1`).

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload W --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.setup_only {
        return match perfbench::setup_once(args.workload, args.seed) {
            Ok(secs) => {
                println!("{secs}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match perfbench::run(&args) {
        Ok(outcome) => {
            for (name, m) in &outcome.metrics.0 {
                eprintln!("{name:<32} {:>14.6} {}", m.value, m.unit);
            }
            for p in &outcome.problems {
                eprintln!("perfbench: {p}");
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
