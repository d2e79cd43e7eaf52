//! External sweep worker: drains shard leases from a coordinator.
//!
//! ```text
//! qosrm_worker --addr HOST:PORT [--worker NAME] [--run ID]
//!              [--shard-delay-ms MS] [--retries N]
//! ```
//!
//! The coordinator at `--addr` may be a `qosrm_serve` daemon or a
//! `qosrm_experiments sweep coordinate` process — both mount the same
//! lease/heartbeat/complete endpoints. The worker loops until the
//! coordinator reports the run finished, then prints a one-line report and
//! exits; `--run` pins it to one run id (the default empty id means "any
//! run with pending work"). Against a daemon, an any-run worker keeps
//! serving new submissions indefinitely — pin `--run` for a worker that
//! should exit when one sweep completes. Shard outcome logs travel back over
//! `POST /shards/{id}/complete` and the coordinator persists them, so a
//! worker needs no access to the run directory.

use experiments::dist::{run_worker, WorkerConfig};
use std::process::exit;

fn main() {
    let mut addr = String::new();
    let mut config = WorkerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--worker" => config.worker = value("--worker"),
            "--run" => config.run = value("--run"),
            "--shard-delay-ms" => {
                config.shard_delay_ms = parse(&value("--shard-delay-ms"), "--shard-delay-ms")
            }
            "--retries" => config.transport_retries = parse(&value("--retries"), "--retries"),
            "--help" | "-h" => {
                println!(
                    "usage: qosrm_worker --addr HOST:PORT [--worker NAME] [--run ID] \
                     [--shard-delay-ms MS] [--retries N]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                exit(2);
            }
        }
    }
    if addr.is_empty() {
        eprintln!("qosrm_worker: --addr HOST:PORT is required (try --help)");
        exit(2);
    }
    match run_worker(&addr, &config) {
        Ok(report) => {
            println!(
                "worker {}: {} shard(s) accepted, {} stale, {} scenario(s) evaluated",
                config.worker, report.shards_completed, report.shards_stale, report.scenarios
            );
        }
        Err(e) => {
            eprintln!("qosrm_worker: {e}");
            exit(1);
        }
    }
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {raw:?}");
        exit(2);
    })
}
