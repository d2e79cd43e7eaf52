//! Command-line front end of the experiment pipeline.
//!
//! ```text
//! qosrm-experiments [--quick] [--cache-dir DIR] [--json FILE] [e1 e2 ...]
//! qosrm-experiments sweep run    --spec FILE --out DIR [--quick] [--shard-size N]
//!                                [--max-shards N] [--serial]
//! qosrm-experiments sweep resume --out DIR [--max-shards N] [--serial]
//! qosrm-experiments sweep merge  --out DIR --result FILE
//! qosrm-experiments sweep coordinate --spec FILE --out DIR --addr HOST:PORT
//!                                [--quick] [--shard-size N]
//!                                [--lease-ms MS] [--linger-ms MS]
//! qosrm-experiments sweep work   --addr HOST:PORT [--worker NAME]
//!                                [--shard-delay-ms MS]
//! qosrm-experiments sweep search --out DIR [--seed N] [--generations N]
//!                                [--population N] [--capacity N] [--quick] [--serial]
//! qosrm-experiments diagnose [--mix b1,b2,b3,b4]
//! ```
//!
//! Without a subcommand the paper experiments (E1–E10) run as before:
//! `--quick` uses fewer workloads and a coarser characterization so the
//! whole suite finishes in seconds (used by the smoke tests); the full
//! configuration is what `EXPERIMENTS.md` reports.
//!
//! The `sweep` subcommands drive the streaming executor over a
//! [`experiments::ScenarioSpec`] file: `run` starts a fresh sharded run in
//! an output directory, `resume` continues a killed or partial run
//! (completed scenarios are skipped; the final result is byte-identical to
//! an uninterrupted run), and `merge` folds the shard logs into one
//! `SweepResult` JSON file. `coordinate` serves the same run directory as
//! a lease-granting coordinator and `work` drains one from any number of
//! processes — the distributed pair shares the manifest/shard-log format
//! with `run`/`resume`, so `merge` of a distributed run is byte-identical
//! to a single-process one. `search` grows a Pareto archive of adversarial
//! scenarios via the seeded evolutionary loop in [`experiments::search`];
//! every archived spec replays through `run`/`merge`. `diagnose` dumps
//! RM3's decisions for one workload (formerly the separate `debug_s3`
//! binary).

use experiments::{
    diagnose, dist, run_experiment, search, stream, ExperimentContext, ScenarioSpec, StreamOptions,
    SweepOptions, ALL_EXPERIMENTS,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  qosrm-experiments [--quick] [--cache-dir DIR] [--json FILE] [e1..e10]
  qosrm-experiments sweep run --spec FILE --out DIR [--quick] [--shard-size N] [--max-shards N] [--serial]
  qosrm-experiments sweep resume --out DIR [--max-shards N] [--serial]
  qosrm-experiments sweep merge --out DIR --result FILE
  qosrm-experiments sweep coordinate --spec FILE --out DIR --addr HOST:PORT [--quick] [--shard-size N] [--lease-ms MS] [--linger-ms MS]
  qosrm-experiments sweep work --addr HOST:PORT [--worker NAME] [--shard-delay-ms MS]
  qosrm-experiments sweep search --out DIR [--seed N] [--generations N] [--population N] [--capacity N] [--quick] [--serial]
  qosrm-experiments diagnose [--mix b1,b2,...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sweep") => sweep_main(&args[1..]),
        Some("diagnose") => diagnose_main(&args[1..]),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => return experiments_main(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Legacy experiment mode (no subcommand)
// ---------------------------------------------------------------------------

struct ExperimentArgs {
    quick: bool,
    cache_dir: Option<PathBuf>,
    json_out: Option<PathBuf>,
    experiments: Vec<String>,
}

fn parse_experiment_args(args: &[String]) -> Result<ExperimentArgs, String> {
    let mut parsed = ExperimentArgs {
        quick: false,
        cache_dir: None,
        json_out: None,
        experiments: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--cache-dir" => {
                let dir = iter.next().ok_or("--cache-dir requires a path")?;
                parsed.cache_dir = Some(PathBuf::from(dir));
            }
            "--json" => {
                let path = iter.next().ok_or("--json requires a path")?;
                parsed.json_out = Some(PathBuf::from(path));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => parsed.experiments.push(other.to_string()),
        }
    }
    if parsed.experiments.is_empty() {
        parsed.experiments = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    Ok(parsed)
}

fn experiments_main(args: &[String]) -> ExitCode {
    let args = match parse_experiment_args(args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut ctx = ExperimentContext::new(args.quick);
    if let Some(dir) = &args.cache_dir {
        ctx = ctx.with_cache_dir(dir.clone());
    }

    println!(
        "qosrm-experiments: reproducing the paper's evaluation ({} mode)\n",
        if args.quick { "quick" } else { "full" }
    );

    let mut reports = Vec::new();
    for id in &args.experiments {
        match run_experiment(id, &ctx) {
            Some(report) => {
                print!("{}", report.render());
                reports.push(report);
            }
            None => {
                eprintln!("unknown experiment id: {id} (expected one of {ALL_EXPERIMENTS:?})");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &args.json_out {
        match serde_json::to_string_pretty(&reports) {
            Ok(json) => {
                if let Err(err) = std::fs::write(path, json) {
                    eprintln!("failed to write {}: {err}", path.display());
                    return ExitCode::from(1);
                }
                println!("wrote {} reports to {}", reports.len(), path.display());
            }
            Err(err) => {
                eprintln!("failed to serialize reports: {err}");
                return ExitCode::from(1);
            }
        }
    }

    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// sweep run / resume / merge
// ---------------------------------------------------------------------------

#[derive(Default)]
struct SweepArgs {
    spec: Option<PathBuf>,
    out: Option<PathBuf>,
    result: Option<PathBuf>,
    quick: bool,
    serial: bool,
    shard_size: Option<usize>,
    max_shards: usize,
    addr: Option<String>,
    worker: Option<String>,
    lease_ms: Option<u64>,
    linger_ms: Option<u64>,
    shard_delay_ms: Option<u64>,
    seed: Option<u64>,
    generations: Option<usize>,
    population: Option<usize>,
    capacity: Option<usize>,
}

/// The flags `sweep ACTION` takes: exactly those its `USAGE` line lists.
fn sweep_flags(action: &str) -> Result<&'static str, String> {
    Ok(match action {
        "run" => "--spec --out --quick --shard-size --max-shards --serial",
        "resume" => "--out --max-shards --serial",
        "merge" => "--out --result",
        "coordinate" => "--spec --out --addr --quick --shard-size --lease-ms --linger-ms",
        "work" => "--addr --worker --shard-delay-ms",
        "search" => "--out --seed --generations --population --capacity --quick --serial",
        other => return Err(format!("unknown sweep action {other}\n{USAGE}")),
    })
}

/// Parses the flags of `sweep ACTION`. A flag the action does not list is a
/// usage error naming both, raised before anything touches the filesystem.
fn parse_sweep_args(action: &str, args: &[String]) -> Result<SweepArgs, String> {
    let accepted = sweep_flags(action)?;
    let mut parsed = SweepArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg.starts_with("--") && !accepted.split_whitespace().any(|flag| flag == arg) {
            return Err(format!("sweep {action} takes no {arg}\n{USAGE}"));
        }
        match arg.as_str() {
            "--spec" => {
                parsed.spec = Some(PathBuf::from(iter.next().ok_or("--spec requires a path")?))
            }
            "--out" => {
                parsed.out = Some(PathBuf::from(iter.next().ok_or("--out requires a path")?))
            }
            "--result" => {
                parsed.result = Some(PathBuf::from(
                    iter.next().ok_or("--result requires a path")?,
                ))
            }
            "--quick" => parsed.quick = true,
            "--serial" => parsed.serial = true,
            "--shard-size" => {
                parsed.shard_size = Some(parse_count(iter.next(), "--shard-size")?);
            }
            "--max-shards" => {
                parsed.max_shards = parse_count(iter.next(), "--max-shards")?;
            }
            "--addr" => {
                parsed.addr = Some(iter.next().ok_or("--addr requires HOST:PORT")?.clone());
            }
            "--worker" => {
                parsed.worker = Some(iter.next().ok_or("--worker requires a name")?.clone());
            }
            "--lease-ms" => {
                parsed.lease_ms = Some(parse_count(iter.next(), "--lease-ms")? as u64);
            }
            "--linger-ms" => {
                parsed.linger_ms = Some(parse_count(iter.next(), "--linger-ms")? as u64);
            }
            "--shard-delay-ms" => {
                parsed.shard_delay_ms = Some(parse_count(iter.next(), "--shard-delay-ms")? as u64);
            }
            "--seed" => {
                parsed.seed = Some(parse_count(iter.next(), "--seed")? as u64);
            }
            "--generations" => {
                parsed.generations = Some(parse_count(iter.next(), "--generations")?);
            }
            "--population" => {
                parsed.population = Some(parse_count(iter.next(), "--population")?);
            }
            "--capacity" => {
                parsed.capacity = Some(parse_count(iter.next(), "--capacity")?);
            }
            other => {
                return Err(format!(
                    "unexpected sweep {action} argument {other}\n{USAGE}"
                ))
            }
        }
    }
    Ok(parsed)
}

fn parse_count(value: Option<&String>, flag: &str) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} requires a number"))?
        .parse::<usize>()
        .map_err(|_| format!("{flag} requires a number"))
}

fn stream_options(args: &SweepArgs) -> StreamOptions {
    let mut options = StreamOptions {
        max_shards: args.max_shards,
        ..Default::default()
    };
    if let Some(size) = args.shard_size {
        options.shard_size = size.max(1);
    }
    options
}

/// The experiment context of a sweep subcommand: `--serial` selects the
/// serial, cold reference path.
fn sweep_context(quick: bool, args: &SweepArgs) -> ExperimentContext {
    let ctx = ExperimentContext::new(quick);
    if args.serial {
        ctx.with_sweep_options(SweepOptions::serial())
    } else {
        ctx
    }
}

fn report_progress(report: &experiments::StreamReport, out: &std::path::Path) {
    println!(
        "sweep: {}/{} scenarios complete in {} ({} skipped as already done, {} shard(s) run this \
         call){}",
        report.completed,
        report.total,
        out.display(),
        report.skipped,
        report.shards_run,
        if report.finished {
            "; run `sweep merge` to fold the shards into a result file"
        } else {
            "; run `sweep resume` to continue"
        }
    );
}

fn sweep_main(args: &[String]) -> Result<(), String> {
    let (action, rest) = args
        .split_first()
        .ok_or_else(|| format!("sweep requires an action\n{USAGE}"))?;
    let parsed = parse_sweep_args(action, rest)?;
    if action == "work" {
        return work_main(&parsed);
    }
    let out = parsed
        .out
        .clone()
        .ok_or_else(|| format!("sweep {action} requires --out DIR\n{USAGE}"))?;
    match action.as_str() {
        "run" => {
            let spec_path = parsed
                .spec
                .clone()
                .ok_or_else(|| format!("sweep run requires --spec FILE\n{USAGE}"))?;
            let spec = ScenarioSpec::load(&spec_path)
                .map_err(|e| format!("failed to load {}: {e}", spec_path.display()))?;
            let ctx = sweep_context(parsed.quick, &parsed);
            let report = stream::run(&spec, &ctx, &out, &stream_options(&parsed))
                .map_err(|e| e.to_string())?;
            report_progress(&report, &out);
            Ok(())
        }
        "resume" => {
            // The quick/full mode comes from the run's manifest.
            let manifest = experiments::SweepManifest::load(&out)
                .map_err(|e| format!("failed to load the manifest in {}: {e}", out.display()))?;
            let ctx = sweep_context(manifest.quick, &parsed);
            let mut options = stream_options(&parsed);
            // Without an explicit --shard-size, keep the run's checkpoint
            // granularity rather than resetting it to the default.
            if parsed.shard_size.is_none() {
                options.shard_size = manifest.shard_size.max(1);
            }
            let report = stream::resume(&ctx, &out, &options).map_err(|e| e.to_string())?;
            report_progress(&report, &out);
            Ok(())
        }
        "merge" => {
            let result_path = parsed
                .result
                .clone()
                .ok_or_else(|| format!("sweep merge requires --result FILE\n{USAGE}"))?;
            let result = stream::merge(&out).map_err(|e| e.to_string())?;
            result.save(&result_path).map_err(|e| e.to_string())?;
            println!(
                "merged {} scenarios from {} into {}",
                result.scenarios.len(),
                out.display(),
                result_path.display()
            );
            Ok(())
        }
        "coordinate" => coordinate_main(&parsed, &out),
        "search" => search_main(&parsed, &out),
        other => unreachable!("sweep_flags accepted the action {other}"),
    }
}

// ---------------------------------------------------------------------------
// sweep search (Pareto-front scenario search)
// ---------------------------------------------------------------------------

fn search_main(parsed: &SweepArgs, out: &std::path::Path) -> Result<(), String> {
    let mut config = search::SearchConfig::default();
    if let Some(seed) = parsed.seed {
        config.seed = seed;
    }
    if let Some(generations) = parsed.generations {
        config.generations = generations.max(1);
    }
    if let Some(population) = parsed.population {
        config.population = population.max(2);
    }
    if let Some(capacity) = parsed.capacity {
        config.capacity = capacity.max(1);
    }
    let ctx = sweep_context(parsed.quick, parsed);
    let report = search::run(&config, &ctx, out).map_err(|e| e.to_string())?;
    println!(
        "search: {} generation(s), {} candidate(s) proposed, {} evaluated ({} scenario runs), \
         archive of {} in {}",
        report.generations,
        report.candidates,
        report.evaluations,
        report.scenarios,
        report.archive_size,
        out.display()
    );
    println!(
        "replay any archived spec with `sweep run --spec {}/spec-<id>.json --out DIR` \
         followed by `sweep merge --out DIR --result FILE`",
        out.display()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// sweep coordinate / work (distributed mode)
// ---------------------------------------------------------------------------

fn coordinate_main(parsed: &SweepArgs, out: &std::path::Path) -> Result<(), String> {
    use std::io::Write as _;

    let spec_path = parsed
        .spec
        .clone()
        .ok_or_else(|| format!("sweep coordinate requires --spec FILE\n{USAGE}"))?;
    let addr = parsed
        .addr
        .clone()
        .ok_or_else(|| format!("sweep coordinate requires --addr HOST:PORT\n{USAGE}"))?;
    let spec = ScenarioSpec::load(&spec_path)
        .map_err(|e| format!("failed to load {}: {e}", spec_path.display()))?;
    let config = dist::CoordinatorConfig {
        shard_size: parsed.shard_size.unwrap_or(32).max(1),
        lease_ms: parsed.lease_ms.unwrap_or(10_000).max(100),
        verbose: true,
        ..Default::default()
    };
    let hub = std::sync::Arc::default();
    let coordinator = std::sync::Arc::new(
        dist::Coordinator::open(&spec.name, &spec, parsed.quick, out, &config, hub)
            .map_err(|e| e.to_string())?,
    );
    let server = dist::serve_coordinator(&addr, coordinator.clone()).map_err(|e| e.to_string())?;
    // Parseable liveness line (the smoke scripts wait for it). Flushed
    // explicitly: stdout is block-buffered when redirected to a log file.
    println!("coordinating on {}", server.addr());
    std::io::stdout().flush().ok();

    // Every accepted completion bumps the coordinator's signal.
    let signal = coordinator.signal();
    let mut seen = signal.generation();
    while !coordinator.finished() {
        signal.wait_past(seen, std::time::Duration::MAX);
        seen = signal.generation();
    }
    // Linger so workers between two lease requests observe `finished` and
    // exit cleanly instead of dying on a refused connection.
    let linger = parsed.linger_ms.unwrap_or(3_000);
    #[allow(clippy::disallowed_methods)] // The linger is a grace period, not a wait on anything.
    std::thread::sleep(std::time::Duration::from_millis(linger));
    let (completed, total) = coordinator.progress();
    let telemetry = coordinator.telemetry();
    server.stop();
    println!(
        "coordinated {completed}/{total} scenarios in {}",
        out.display()
    );
    println!("{telemetry}");
    println!("run `sweep merge` to fold the shards into a result file");
    Ok(())
}

fn work_main(parsed: &SweepArgs) -> Result<(), String> {
    let addr = parsed
        .addr
        .clone()
        .ok_or_else(|| format!("sweep work requires --addr HOST:PORT\n{USAGE}"))?;
    let mut config = dist::WorkerConfig::default();
    if let Some(worker) = &parsed.worker {
        config.worker = worker.clone();
    }
    if let Some(delay) = parsed.shard_delay_ms {
        config.shard_delay_ms = delay;
    }
    let report = dist::run_worker(&addr, &config).map_err(|e| e.to_string())?;
    println!(
        "worker {}: {} shard(s) accepted, {} stale, {} scenario(s) evaluated",
        config.worker, report.shards_completed, report.shards_stale, report.scenarios
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// diagnose
// ---------------------------------------------------------------------------

fn diagnose_main(args: &[String]) -> Result<(), String> {
    let mut mix = diagnose::default_mix();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--mix" => {
                let list = iter.next().ok_or("--mix requires a comma-separated list")?;
                let benchmarks: Vec<&str> = list.split(',').map(str::trim).collect();
                mix = workload::WorkloadMix::new("diagnose", benchmarks);
            }
            other => return Err(format!("unknown diagnose flag {other}\n{USAGE}")),
        }
    }
    let ctx = ExperimentContext::new(true);
    let report = diagnose::run(&ctx, &mix).map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn coordinate_rejects_serial_before_touching_the_run_directory() {
        let out = std::path::Path::new("no-such-run-directory");
        let line =
            "coordinate --spec s.json --out no-such-run-directory --addr 127.0.0.1:0 --serial";
        let err = sweep_main(&args(line)).unwrap_err();
        assert!(
            err.starts_with("sweep coordinate takes no --serial"),
            "{err}"
        );
        assert!(!out.exists());
    }

    #[test]
    fn merge_rejects_the_flags_of_other_actions() {
        for (action, line, flag) in [
            (
                "merge",
                "--out D --result F --serial --max-shards 3 --seed 4",
                "--serial",
            ),
            ("merge", "--out D --result F --seed 4", "--seed"),
            ("run", "--spec s.json --out D --bogus", "--bogus"),
        ] {
            let Err(err) = parse_sweep_args(action, &args(line)) else {
                panic!("sweep {action} accepted {line}");
            };
            let want = format!("sweep {action} takes no {flag}");
            assert!(err.starts_with(&want), "{err}");
        }
    }

    #[test]
    fn each_action_accepts_its_documented_flags() {
        for (action, line) in [
            (
                "run",
                "--spec s.json --out D --quick --shard-size 4 --max-shards 2 --serial",
            ),
            ("resume", "--out D --max-shards 2 --serial"),
            ("merge", "--out D --result F"),
            (
                "coordinate",
                "--spec s.json --out D --addr 127.0.0.1:0 --quick --shard-size 4 \
                 --lease-ms 500 --linger-ms 0",
            ),
            ("work", "--addr 127.0.0.1:0 --worker w --shard-delay-ms 5"),
            (
                "search",
                "--out D --seed 4 --generations 2 --population 6 --capacity 8 --quick --serial",
            ),
        ] {
            if let Err(err) = parse_sweep_args(action, &args(line)) {
                panic!("sweep {action} rejected a documented flag: {err}");
            }
            // Each flag above is one the action's `USAGE` line lists.
            let usage = USAGE
                .lines()
                .find(|usage| usage.contains(&format!(" sweep {action} ")))
                .expect("the action has a usage line");
            for flag in args(line).iter().filter(|arg| arg.starts_with("--")) {
                assert!(usage.contains(flag.as_str()), "{flag} is not in {usage}");
            }
        }
    }
}
