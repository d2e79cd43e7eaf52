//! The untraced, end-to-end runs of the four workloads. Every run drives
//! the shipped binaries, checks every output byte for byte against a
//! reference the benchmark computed in-process, and times only what a user
//! of that path waits for.

use crate::gen;
use crate::procs::{self, Proc};
use experiments::{run_experiment, sweep, ExperimentContext, ScenarioSpec, ALL_EXPERIMENTS};
use qosrm_serve::{Client, ClientError};
use std::fs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Closed-loop clients of `serve-small`.
pub const SERVE_CLIENTS: usize = 2;

/// Requests of `serve-small`'s timed phase (all clients together).
pub const SERVE_REQUESTS: usize = 352;

/// Every `DEDUP_EVERY`-th request of a client re-submits its previous spec.
const DEDUP_EVERY: usize = 4;

/// Fresh (computed, not deduplicated) requests of the timed phase: the
/// latency samples of `serve-small`.
pub const SERVE_FRESH: usize = SERVE_REQUESTS - SERVE_REQUESTS / DEDUP_EVERY;

/// What a run needs to know about its surroundings.
pub struct Env {
    /// Directory holding the release binaries.
    pub bins: PathBuf,
    /// Scratch directory of this run (inside the checkout).
    pub work: PathBuf,
    pub seed: u64,
    /// Measurement budget of the timed phase.
    pub seconds: f64,
}

impl Env {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }

    /// A fresh, empty directory under the run's scratch space.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch directory is writable");
        dir
    }
}

/// Operations attempted and failed, with the reason of each failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation; `Err` (a failure or an output mismatch) fails
    /// it.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.errors.push(e);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }
}

/// Compares produced bytes with the reference.
pub fn same(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{what}: {} bytes differ from the {}-byte reference",
            got.len(),
            want.len()
        ))
    }
}

/// The measurements of one end-to-end run.
#[derive(Default)]
pub struct EndToEnd {
    pub tally: Tally,
    /// Seconds of each set-up.
    pub setup: Vec<f64>,
    /// Seconds from submitting one spec until its verified result is in
    /// hand, per completed spec.
    pub latencies: Vec<f64>,
    /// Wall seconds of the timed phase; `None` means "median latency" (the
    /// batch workloads, whose timed phase is one operation repeated).
    pub phase_wall: Option<f64>,
    /// Specs completed and verified in the timed phase.
    pub completed: usize,
}

/// The stdout `qosrm_experiments --quick` prints, computed in-process.
pub fn paper_reference() -> Vec<u8> {
    let ctx = ExperimentContext::new(true);
    let mut out =
        String::from("qosrm-experiments: reproducing the paper's evaluation (quick mode)\n\n");
    for id in ALL_EXPERIMENTS {
        out.push_str(&run_experiment(id, &ctx).expect("known experiment").render());
    }
    out.into_bytes()
}

/// The merged-result bytes of `spec`, from the in-memory sweep executor on
/// `ctx` (the bytes `sweep merge` writes and `/result` serves).
pub fn in_memory_result(spec: &ScenarioSpec, ctx: &ExperimentContext) -> Vec<u8> {
    let grid = spec.lower().expect("generated specs lower");
    serde_json::to_string(&sweep::run(&grid, ctx))
        .expect("results serialize")
        .into_bytes()
}

/// Runs `set_up` [`SETUPS`] times, timing each; every set-up must produce
/// the same reference.
fn set_up_repeatedly(run: &mut EndToEnd, mut set_up: impl FnMut() -> Vec<u8>) -> Vec<u8> {
    let mut reference: Option<Vec<u8>> = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let bytes = set_up();
        run.setup.push(start.elapsed().as_secs_f64());
        let outcome = match &reference {
            Some(first) => same("repeated set-up reference", &bytes, first),
            None => Ok(()),
        };
        run.tally.record(outcome);
        reference.get_or_insert(bytes);
    }
    reference.expect("at least one set-up")
}

/// Repeats `sample` (which returns its own timed seconds) until the
/// measurement budget is spent.
fn sample_repeatedly(
    env: &Env,
    run: &mut EndToEnd,
    mut sample: impl FnMut(usize) -> Result<f64, String>,
) {
    let start = Instant::now();
    let mut index = 0;
    while index == 0 || start.elapsed().as_secs_f64() < env.seconds {
        match sample(index) {
            Ok(seconds) => {
                run.latencies.push(seconds);
                run.completed += 1;
                run.tally.record(Ok(()));
            }
            Err(e) => run.tally.record(Err(e)),
        }
        index += 1;
    }
}

/// `paper-quick`: the cold quick suite, whose stdout is the golden contract.
pub fn paper_quick(env: &Env) -> EndToEnd {
    let mut run = EndToEnd::default();
    let reference = set_up_repeatedly(&mut run, paper_reference);
    let bin = env.bin("qosrm_experiments");
    sample_repeatedly(env, &mut run, |_| {
        let start = Instant::now();
        let stdout = procs::run(&bin, &["--quick"])?;
        let seconds = start.elapsed().as_secs_f64();
        same("qosrm_experiments --quick stdout", &stdout, &reference)?;
        Ok(seconds)
    });
    run
}

pub fn path_str(path: &Path) -> &str {
    path.to_str().expect("checkout paths are UTF-8")
}

/// Writes `spec` as a spec file and returns its path.
pub fn write_spec(env: &Env, spec: &ScenarioSpec) -> PathBuf {
    let path = env.work.join(format!("{}.json", spec.name));
    fs::write(&path, gen::to_json(spec)).expect("scratch directory is writable");
    path
}

/// `sweep merge` of `dir`, returning the merged bytes.
fn merge(env: &Env, dir: &Path) -> Result<Vec<u8>, String> {
    let result = dir.with_extension("result.json");
    procs::run(
        &env.bin("qosrm_experiments"),
        &[
            "sweep",
            "merge",
            "--out",
            path_str(dir),
            "--result",
            path_str(&result),
        ],
    )?;
    fs::read(&result).map_err(|e| format!("cannot read the merged result: {e}"))
}

/// `sweep run --quick` of `spec_path` into `out`, then `sweep merge`;
/// returns the merged bytes.
pub fn sweep_run_and_merge(env: &Env, spec_path: &Path, out: &Path) -> Result<Vec<u8>, String> {
    procs::run(
        &env.bin("qosrm_experiments"),
        &[
            "sweep",
            "run",
            "--spec",
            path_str(spec_path),
            "--out",
            path_str(out),
            "--quick",
        ],
    )?;
    merge(env, out)
}

/// `sweep-manycore`: `sweep run --quick` then `sweep merge` of a seeded
/// many-core spec.
pub fn sweep_manycore(env: &Env) -> EndToEnd {
    let mut run = EndToEnd::default();
    let mut spec_path = PathBuf::new();
    let reference = set_up_repeatedly(&mut run, || {
        let spec = gen::sweep_manycore(env.seed);
        spec_path = write_spec(env, &spec);
        in_memory_result(&spec, &ExperimentContext::new(true))
    });
    sample_repeatedly(env, &mut run, |index| {
        let out = env.work.join(format!("sweep-{index}"));
        let start = Instant::now();
        let merged = sweep_run_and_merge(env, &spec_path, &out)?;
        let seconds = start.elapsed().as_secs_f64();
        let _ = fs::remove_dir_all(&out);
        same("sweep merge of sweep run", &merged, &reference)?;
        Ok(seconds)
    });
    run
}

/// Linger of the coordinator after the run finishes: long enough for a
/// worker parked on a lease retry to observe `finished` and exit cleanly.
const COORDINATOR_LINGER_MS: &str = "1000";

/// One coordinated run of `spec_path` into `out`: spawns the coordinator
/// (returned, ready) so the caller can time from readiness.
pub fn spawn_coordinator(
    env: &Env,
    spec_path: &Path,
    out: &Path,
) -> Result<(Proc, String), String> {
    let coordinator = Proc::spawn(
        &env.bin("qosrm_experiments"),
        &[
            "sweep",
            "coordinate",
            "--spec",
            path_str(spec_path),
            "--out",
            path_str(out),
            "--addr",
            "127.0.0.1:0",
            "--quick",
            "--shard-size",
            "1",
            "--linger-ms",
            COORDINATOR_LINGER_MS,
        ],
        true,
    )?;
    let addr = coordinator.wait_line("coordinating on ")?;
    Ok((coordinator, addr))
}

/// Runs two `qosrm_worker`s against `addr` until both exit.
pub fn run_workers(env: &Env, addr: &str) -> Result<(), String> {
    let bin = env.bin("qosrm_worker");
    let mut workers = ["w1", "w2"]
        .iter()
        .map(|name| Proc::spawn(&bin, &["--addr", addr, "--worker", name], false))
        .collect::<Result<Vec<_>, _>>()?;
    for worker in &mut workers {
        worker.wait_ok().map_err(|e| format!("qosrm_worker {e}"))?;
    }
    Ok(())
}

/// `dist-shards`: `sweep coordinate --shard-size 1` drained by two
/// `qosrm_worker` processes, then `sweep merge`.
pub fn dist_shards(env: &Env) -> EndToEnd {
    let mut run = EndToEnd::default();
    let spec = gen::dist_shards(env.seed);
    let spec_path = write_spec(env, &spec);
    let reference = in_memory_result(&spec, &ExperimentContext::new(true));
    let mut setups = Vec::new();
    sample_repeatedly(env, &mut run, |index| {
        let out = env.work.join(format!("dist-{index}"));
        let spawned = Instant::now();
        let (coordinator, addr) = spawn_coordinator(env, &spec_path, &out)?;
        setups.push(spawned.elapsed().as_secs_f64());
        let start = Instant::now();
        run_workers(env, &addr)?;
        let merged = merge(env, &out)?;
        let seconds = start.elapsed().as_secs_f64();
        // Both workers have exited, so nothing needs the coordinator's
        // linger any more: it is killed rather than waited out.
        drop(coordinator);
        let _ = fs::remove_dir_all(&out);
        same("sweep merge of the coordinated run", &merged, &reference)?;
        Ok(seconds)
    });
    run.setup = setups;
    run
}

/// A running `qosrm_serve` daemon and its client.
pub struct Daemon {
    _proc: Proc,
    pub addr: SocketAddr,
    pub client: Client,
}

/// Spawns a daemon on a fresh data directory and waits until it listens.
pub fn spawn_daemon(env: &Env, name: &str) -> Result<Daemon, String> {
    let data = env.fresh_dir(name);
    let proc = Proc::spawn(
        &env.bin("qosrm_serve"),
        &[
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            path_str(&data),
            "--workers",
            "2",
            "--quiet",
        ],
        true,
    )?;
    let addr: SocketAddr = proc
        .wait_line("listening on ")?
        .parse()
        .map_err(|e| format!("bad listening address: {e}"))?;
    Ok(Daemon {
        _proc: proc,
        addr,
        client: Client::new(addr),
    })
}

/// One closed-loop request: submit, wait for the stream to close, fetch
/// the result bytes.
pub fn serve_request(client: &Client, spec_json: &str, who: &str) -> Result<Vec<u8>, ClientError> {
    let (_, status) = client.submit(spec_json, who, true, 1)?;
    client.stream(&status.id, 0, |_| {})?;
    client.result(&status.id)
}

/// The inputs of `serve-small` with their reference result bytes.
pub struct ServePlan {
    pub warmup: (String, Vec<u8>),
    /// Per client, its requests in order: `(spec json, reference, dedup)`.
    pub clients: Vec<Vec<(String, Vec<u8>, bool)>>,
}

impl ServePlan {
    /// Generates the specs and computes every reference in-process.
    pub fn new(seed: u64) -> ServePlan {
        let per_client = SERVE_REQUESTS / SERVE_CLIENTS;
        let inputs = gen::serve_small(seed, SERVE_FRESH);
        let ctx = ExperimentContext::new(true);
        let warmup = (
            gen::to_json(&inputs.warmup),
            in_memory_result(&inputs.warmup, &ctx),
        );
        let mut fresh = inputs
            .specs
            .iter()
            .map(|spec| (gen::to_json(spec), in_memory_result(spec, &ctx)));
        let clients = (0..SERVE_CLIENTS)
            .map(|_| {
                let mut requests: Vec<(String, Vec<u8>, bool)> = Vec::new();
                for k in 0..per_client {
                    if k % DEDUP_EVERY == DEDUP_EVERY - 1 {
                        let (json, reference, _) = requests[k - 1].clone();
                        requests.push((json, reference, true));
                    } else {
                        let (json, reference) = fresh.next().expect("enough fresh specs");
                        requests.push((json, reference, false));
                    }
                }
                requests
            })
            .collect();
        ServePlan { warmup, clients }
    }
}

/// Spawns a daemon and runs the warm-up submission on it.
pub fn ready_daemon(env: &Env, name: &str, plan: &ServePlan) -> Result<Daemon, String> {
    let daemon = spawn_daemon(env, name)?;
    let bytes = serve_request(&daemon.client, &plan.warmup.0, "warmup")
        .map_err(|e| format!("warm-up submission: {e}"))?;
    same("warm-up /result", &bytes, &plan.warmup.1)?;
    Ok(daemon)
}

/// `serve-small`: closed-loop clients against a warmed daemon.
pub fn serve_small(env: &Env) -> EndToEnd {
    let mut run = EndToEnd::default();
    let plan = ServePlan::new(env.seed);
    let mut daemon = None;
    for k in 0..SETUPS {
        // The previous daemon is killed before the next set-up starts; the
        // last one serves the timed phase.
        drop(daemon.take());
        let start = Instant::now();
        let ready = ready_daemon(env, &format!("serve-data-{k}"), &plan);
        run.setup.push(start.elapsed().as_secs_f64());
        run.tally
            .record(ready.as_ref().map(|_| ()).map_err(Clone::clone));
        daemon = ready.ok();
    }
    let Some(daemon) = daemon else { return run };
    let (wall, latencies, tally) = untraced_phase(&daemon, &plan);
    run.phase_wall = Some(wall);
    run.completed = latencies.len();
    // Latency percentiles describe specs that had to be computed; the
    // dedup path (a disk read) is timed by the traced run.
    run.latencies = latencies
        .into_iter()
        .filter(|(_, dedup)| !dedup)
        .map(|(seconds, _)| seconds)
        .collect();
    run.tally.absorb(tally);
    run
}

/// One request plan of a client: `(spec json, reference, dedup)`.
pub type Requests = [(String, Vec<u8>, bool)];

/// Runs every client of `plan` on its own thread at once and returns the
/// phase's wall seconds with each client's result.
pub fn closed_loop<R: Send>(
    plan: &ServePlan,
    run_client: impl Fn(usize, &Requests) -> R + Sync,
) -> (f64, Vec<R>) {
    let start = Instant::now();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .clients
            .iter()
            .enumerate()
            .map(|(c, requests)| {
                let run_client = &run_client;
                scope.spawn(move || run_client(c, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), results)
}

/// The timed phase of `serve-small`: every client's requests through the
/// plain [`Client`]. Returns the phase wall, the latencies of the verified
/// requests (with whether each was a dedup re-submission), and the tally.
pub fn untraced_phase(daemon: &Daemon, plan: &ServePlan) -> (f64, Vec<(f64, bool)>, Tally) {
    let client = &daemon.client;
    let (wall, results) = closed_loop(plan, |c, requests| {
        let who = format!("client-{c}");
        let mut latencies = Vec::new();
        let mut tally = Tally::default();
        for (json, reference, dedup) in requests {
            let sent = Instant::now();
            let outcome = serve_request(client, json, &who)
                .map_err(|e| format!("{who}: {e}"))
                .and_then(|bytes| same("/result", &bytes, reference));
            if outcome.is_ok() {
                latencies.push((sent.elapsed().as_secs_f64(), *dedup));
            }
            tally.record(outcome);
        }
        (latencies, tally)
    });
    let mut all = Vec::new();
    let mut total = Tally::default();
    for (latencies, tally) in results {
        all.extend(latencies);
        total.absorb(tally);
    }
    (wall, all, total)
}
