//! The resident sweep daemon.
//!
//! ```text
//! qosrm_serve --addr 127.0.0.1:7171 --data-dir serve-data [--workers N]
//!             [--max-queue N] [--max-payload BYTES] [--shard-size N]
//!             [--shard-delay-ms MS] [--lease-ms MS] [--quiet]
//! ```
//!
//! Prints `listening on ADDR` once the socket is bound (scripts parse this
//! line), then serves until killed. All durable state lives under
//! `--data-dir`; restarting with the same directory resumes in-flight runs.

use qosrm_serve::ServeConfig;
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

fn main() {
    let mut config = ServeConfig {
        verbose: true,
        ..Default::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--data-dir" => config.data_dir = PathBuf::from(value("--data-dir")),
            "--workers" => config.workers = parse(&value("--workers"), "--workers"),
            "--max-queue" => config.max_queue = parse(&value("--max-queue"), "--max-queue"),
            "--max-payload" => {
                config.max_payload_bytes = parse(&value("--max-payload"), "--max-payload")
            }
            "--shard-size" => {
                config.default_shard_size = parse(&value("--shard-size"), "--shard-size")
            }
            "--shard-delay-ms" => {
                config.shard_delay_ms = parse(&value("--shard-delay-ms"), "--shard-delay-ms")
            }
            "--lease-ms" => config.lease_ms = parse(&value("--lease-ms"), "--lease-ms"),
            "--quiet" => config.verbose = false,
            "--help" | "-h" => {
                println!(
                    "usage: qosrm_serve [--addr HOST:PORT] [--data-dir DIR] [--workers N] \
                     [--max-queue N] [--max-payload BYTES] [--shard-size N] \
                     [--shard-delay-ms MS] [--lease-ms MS] [--quiet]"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                exit(2);
            }
        }
    }

    match qosrm_serve::Server::start(config) {
        Ok(server) => {
            // The parseable readiness line (also printed by verbose logging,
            // but scripts rely on this one regardless of --quiet).
            println!("listening on {}", server.addr());
            let _ = std::io::stdout().flush();
            // Serve until killed; the daemon has no graceful-exit signal
            // handling on purpose — durable state makes SIGKILL safe, and
            // the CI smoke exercises exactly that.
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("qosrm_serve: {e}");
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
