//! The CI performance-regression gate: runs the fixed workloads, writes the
//! `BENCH_*.json` reports and fails on a regression. See [`qosrm_bench::gate`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(qosrm_bench::gate::gate_main(&args) as u8)
}
