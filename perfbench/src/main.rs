//! End-to-end benchmark of the four user-facing paths of the qosrm system,
//! with a separate traced run that attributes wall time to layers.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//! ```
//!
//! Normally started through `python3 perfbench/run.py`, which builds the
//! binaries first. The last stdout line is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). See
//! `perfbench/GLOSSARY.md` for every metric.

mod gen;
mod procs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{EndToEnd, Env, Tally};

/// The workloads. `BENCHMARK.json` lists all but `serve-small`, which runs
/// by hand (see `perfbench/NOTES.md`).
const WORKLOADS: &[&str] = &[
    "paper-quick",
    "sweep-manycore",
    "serve-small",
    "dist-shards",
];

/// Every per-layer metric with its unit. A traced run reports all of them;
/// one its workload does not exercise reads 0 (see the glossary).
const PER_LAYER: &[(&str, &str)] = &[
    ("spec.lower_s", "s"),
    ("simdb.build_s", "s"),
    ("simdb.builds", "count"),
    ("rma_sim.baseline_s", "s"),
    ("rma_sim.self_s", "s"),
    ("rma_sim.intervals", "count"),
    ("rma_sim.ns_per_interval", "ns"),
    ("core.rma_s", "s"),
    ("core.invocations", "count"),
    ("core.curve_builds", "count"),
    ("core.local_evaluations", "count"),
    ("core.reduction_ops", "count"),
    ("core.reduction_pruned", "count"),
    ("core.curve_cache_hit_rate", "ratio"),
    ("core.delta_invocations", "count"),
    ("core.game_rounds", "count"),
    ("core.equilibria_examined", "count"),
    ("paper.e1_s", "s"),
    ("paper.e2_s", "s"),
    ("paper.e3_s", "s"),
    ("paper.e4_s", "s"),
    ("paper.e5_s", "s"),
    ("paper.e6_s", "s"),
    ("paper.e7_s", "s"),
    ("paper.e8_s", "s"),
    ("paper.e9_s", "s"),
    ("paper.e10_s", "s"),
    ("persist.write_s", "s"),
    ("persist.writes", "count"),
    ("persist.manifest_bytes", "bytes"),
    ("persist.manifest_save_s", "s"),
    ("stream.shards", "count"),
    ("stream.merge_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.first_outcome_s", "s"),
    ("serve.stream_s", "s"),
    ("serve.result_s", "s"),
    ("serve.dedup_result_s", "s"),
    ("serve.compute_s", "s"),
    ("serve.idle_s", "s"),
    ("serve.http_requests_per_spec", "count"),
    ("serve.curve_cache_hit_rate", "ratio"),
    ("dist.compute_s", "s"),
    ("dist.wait_s", "s"),
    ("dist.single_wall_s", "s"),
    ("dist.leases_granted", "count"),
    ("dist.leases_renewed", "count"),
    ("dist.stale_completions", "count"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut work_dir) = (None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => trace = Some(value == "1"),
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin_dir: bin_dir.ok_or("--bin-dir is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, String);

fn end_to_end_metrics(run: &EndToEnd) -> Vec<Metric> {
    let latencies = &run.latencies;
    let wall = run.phase_wall.unwrap_or_else(|| stats::median(latencies));
    let timed = run.phase_wall.unwrap_or_else(|| latencies.iter().sum());
    let specs_per_s = if timed > 0.0 {
        run.completed as f64 / timed
    } else {
        0.0
    };
    let metric = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    vec![
        metric("wall_s", wall, "s"),
        metric("specs_per_s", specs_per_s, "1/s"),
        metric("latency_p50_s", stats::median(latencies), "s"),
        metric(
            "latency_p90_s",
            stats::quantile(latencies, stats::TAIL_QUANTILE),
            "s",
        ),
        metric("setup_s", stats::median(&run.setup), "s"),
        metric("peak_rss_mb", stats::peak_child_rss_mb(), "MiB"),
    ]
}

fn print_result(tally: &Tally, metrics: &[Metric], require_positive: bool) {
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let positive = !require_positive || metrics.iter().all(|(_, v, _)| *v > 0.0);
    let correct = tally.failed == 0 && tally.attempted > 0 && finite && positive;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
}

fn run_end_to_end(args: &Args, env: &Env) -> (Tally, Vec<Metric>) {
    let run = match args.workload.as_str() {
        "paper-quick" => workloads::paper_quick(env),
        "sweep-manycore" => workloads::sweep_manycore(env),
        "serve-small" => workloads::serve_small(env),
        _ => workloads::dist_shards(env),
    };
    let metrics = end_to_end_metrics(&run);
    println!("workload {} seed {} (end to end)", args.workload, args.seed);
    for (name, value, unit) in &metrics {
        println!("  {name:<16} {value:>12.6} {unit}");
    }
    let tally = &run.tally;
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("  {:<16} {failed_frac:>12.6} ratio", "failed_frac");
    let n = run.latencies.len();
    let deciles: Vec<String> = (1..=10)
        .map(|d| format!("{:.4}", stats::quantile(&run.latencies, d as f64 / 10.0)))
        .collect();
    println!("  latency deciles (s): {}", deciles.join(" "));
    println!(
        "  {n} latency sample(s), {} beyond p90 (the tail rule wants {}); {} set-up(s)",
        stats::samples_beyond(n, stats::TAIL_QUANTILE),
        stats::MIN_BEYOND,
        run.setup.len()
    );
    for error in &tally.errors {
        println!("  FAILED: {error}");
    }
    (run.tally, metrics)
}

fn run_traced(args: &Args, env: &Env) -> (Tally, Vec<Metric>) {
    let mut report = match args.workload.as_str() {
        "paper-quick" => trace::paper_quick(env),
        "sweep-manycore" => trace::sweep_manycore(env),
        "serve-small" => trace::serve_small(env),
        _ => {
            // `serve-small` is not a workload of BENCHMARK.json (its latency
            // follows the host's durable-write latency too closely to gate
            // on), so the traced run of the other wire path prices its layer.
            let mut report = trace::dist_shards(env);
            report.absorb(trace::serve_small(env), "serve.");
            report
        }
    };
    let unattributed = report.unattributed();
    report
        .metrics
        .insert("trace.wall_s".to_string(), report.wall);
    report
        .metrics
        .insert("trace.unattributed_s".to_string(), unattributed);
    println!("workload {} seed {} (traced)", args.workload, args.seed);
    println!("  layer table of a {:.6} s wall:", report.wall);
    for (name, seconds) in &report.rows {
        println!(
            "    {name:<28} {seconds:>12.6} s {:>6.1}%",
            100.0 * seconds / report.wall.max(f64::MIN_POSITIVE)
        );
    }
    println!("    {:<28} {unattributed:>12.6} s", "(unattributed)");
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let value = report.metrics.get(*name).copied().unwrap_or(0.0);
            (name.to_string(), value, unit.to_string())
        })
        .collect();
    for (name, value, unit) in &metrics {
        if report.metrics.contains_key(name) {
            println!("  {name:<30} {value:>16.6} {unit}");
        }
    }
    let trace_path = env
        .work
        .parent()
        .unwrap_or(&env.work)
        .join("traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    match trace::write_jsonl(&trace_path, &args.workload, &report.spans) {
        Ok(()) => println!(
            "  {} spans written to {}",
            report.spans.len(),
            trace_path.display()
        ),
        Err(e) => report.tally.record(Err(format!("cannot write spans: {e}"))),
    }
    for error in &report.tally.errors {
        println!("  FAILED: {error}");
    }
    (report.tally, metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let bins = ["qosrm_experiments", "qosrm_serve", "qosrm_worker"];
    if let Some(missing) = bins.iter().find(|b| !args.bin_dir.join(b).is_file()) {
        eprintln!(
            "perfbench: {missing} is not built in {}",
            args.bin_dir.display()
        );
        return ExitCode::from(2);
    }
    let work = args
        .work_dir
        .join(format!("run-{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let env = Env {
        bins: args.bin_dir.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let (tally, metrics) = if args.trace {
        run_traced(&args, &env)
    } else {
        run_end_to_end(&args, &env)
    };
    let _ = std::fs::remove_dir_all(&work);
    print_result(&tally, &metrics, !args.trace);
    ExitCode::SUCCESS
}
