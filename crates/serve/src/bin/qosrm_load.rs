//! The deterministic load generator for `qosrm_serve`.
//!
//! ```text
//! qosrm_load --addr 127.0.0.1:7171 --spec examples/specs/synth_smoke.json
//!            [--clients N] [--per-client N] [--distinct N] [--seed S]
//!            [--full] [--shard-size N] [--timeout SECS]
//!            [--result FILE] [--summary FILE]
//! ```
//!
//! Submits `clients × per-client` specs (cycling over `distinct` derived
//! variants of the base spec), waits for each submitted run by streaming
//! its outcomes to the end, and byte-compares every run's merged result
//! across reader threads. Exits
//! nonzero if any run fails, any reader observes different bytes, or any
//! rejection other than the configured queue bound occurs. `--result`
//! writes variant 0's merged bytes (for `cmp` against an offline
//! `sweep run` of the unmodified spec); `--summary` writes the full
//! [`qosrm_serve::LoadReport`] as JSON.

use experiments::ScenarioSpec;
use qosrm_serve::LoadConfig;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

fn main() {
    let mut addr_text = "127.0.0.1:7171".to_string();
    let mut spec_path: Option<PathBuf> = None;
    let mut result_path: Option<PathBuf> = None;
    let mut summary_path: Option<PathBuf> = None;
    let mut timeout_secs: u64 = 600;
    let mut config = LoadConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr_text = value("--addr"),
            "--spec" => spec_path = Some(PathBuf::from(value("--spec"))),
            "--result" => result_path = Some(PathBuf::from(value("--result"))),
            "--summary" => summary_path = Some(PathBuf::from(value("--summary"))),
            "--clients" => config.clients = parse(&value("--clients"), "--clients"),
            "--per-client" => config.per_client = parse(&value("--per-client"), "--per-client"),
            "--distinct" => config.distinct = parse(&value("--distinct"), "--distinct"),
            "--seed" => config.seed = parse(&value("--seed"), "--seed"),
            "--shard-size" => config.shard_size = parse(&value("--shard-size"), "--shard-size"),
            "--timeout" => timeout_secs = parse(&value("--timeout"), "--timeout"),
            "--full" => config.quick = false,
            "--help" | "-h" => {
                println!(
                    "usage: qosrm_load --addr HOST:PORT --spec FILE [--clients N] \
                     [--per-client N] [--distinct N] [--seed S] [--full] [--shard-size N] \
                     [--timeout SECS] [--result FILE] [--summary FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                exit(2);
            }
        }
    }

    let Some(spec_path) = spec_path else {
        eprintln!("qosrm_load: --spec is required");
        exit(2);
    };
    let spec = ScenarioSpec::load(&spec_path).unwrap_or_else(|e| {
        eprintln!("qosrm_load: cannot load {}: {e}", spec_path.display());
        exit(2);
    });
    let addr: SocketAddr = addr_text
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .unwrap_or_else(|| {
            eprintln!("qosrm_load: cannot resolve {addr_text}");
            exit(2);
        });

    let plan = qosrm_serve::plan(&spec, &config).unwrap_or_else(|e| {
        eprintln!("qosrm_load: {e}");
        exit(2);
    });
    println!(
        "submitting {} specs ({} clients x {} each, {} distinct variants) to {addr}",
        config.clients * config.per_client,
        config.clients,
        config.per_client,
        plan.specs.len()
    );
    let (report, results) =
        qosrm_serve::execute(addr, &plan, &config, Duration::from_secs(timeout_secs));

    let summary = serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_string());
    println!("{summary}");
    if let Some(path) = summary_path {
        if let Err(e) = simdb::persist::write_atomic(&path, format!("{summary}\n").as_bytes()) {
            eprintln!("qosrm_load: cannot write summary: {e}");
            exit(1);
        }
    }
    if let Some(path) = result_path {
        match results.first() {
            Some((id, bytes)) => {
                if let Err(e) = simdb::persist::write_atomic(&path, bytes) {
                    eprintln!("qosrm_load: cannot write result: {e}");
                    exit(1);
                }
                println!("wrote merged result of run {id} to {}", path.display());
            }
            None => {
                eprintln!("qosrm_load: no completed run to write as --result");
                exit(1);
            }
        }
    }

    if !report.passed() {
        eprintln!(
            "qosrm_load: FAILED ({} errors, byte_identical={}, {}/{} runs complete)",
            report.errors.len(),
            report.byte_identical,
            report.runs_completed,
            report.distinct_runs
        );
        exit(1);
    }
    println!("qosrm_load: OK");
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{flag}: cannot parse {raw:?}");
        exit(2);
    })
}
