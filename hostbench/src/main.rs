//! Host-time benchmark of the phox photonic simulators.
//!
//! ```sh
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload functional --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A single-process, closed-loop benchmark with one client: it builds one
//! workload's inputs from `--seed`, times `--seconds` of iterations
//! through the simulators' public entry points, checks every simulated
//! output against a reference, and prints one JSON result line last.
//! `--trace 1` instead reports the per-layer breakdown. See README.md.

mod decode;
mod functional;
mod gnn;
mod harness;
mod metrics;
mod prefill;
mod stats;
mod sweep;
mod sys;

use std::process::ExitCode;

use phox_core::tensor::parallel;

use harness::{Args, Harness};

/// Worker threads of the simulators' parallel loops.
const WORKERS: usize = 1;

/// A workload: builds, checks and measures itself on the harness.
type Workload = fn(&mut Harness) -> Result<(), String>;

/// The workloads, by name.
const WORKLOADS: &[(&str, Workload)] =
    &[("functional", functional::run), ("model_sweep", sweep::run)];

fn run(args: Args) -> Result<String, String> {
    let workload = WORKLOADS
        .iter()
        .find(|(name, _)| *name == args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?
        .1;
    let mut h = Harness::new(args);
    workload(&mut h)?;
    h.finish()
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "hostbench: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join("|")
            );
            return ExitCode::from(2);
        }
    };
    // One worker thread, whatever the environment asks for. With two,
    // peak memory depended on which allocator arena each short-lived
    // worker's buffers landed in (482–559 MB on one seed across runs);
    // with one it repeats, and the second core is left to the machine.
    match parallel::with_threads(WORKERS, || run(args)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}
