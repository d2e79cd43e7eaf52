//! The load generator behind `qosrm_load`: a deterministic plan of spec
//! submissions, hammered at the daemon from many client threads, with every
//! merged result byte-compared across readers.
//!
//! Determinism matters twice: the CI smoke must be reproducible (same seed
//! → same specs → same run ids → same merged bytes), and the serving
//! benchmark exact-compares counters derived from the plan. So the plan is
//! pure: variant `i` of a base spec rewrites synthetic workload seeds with
//! a SplitMix64 stream keyed on `(seed, i)` and suffixes the sweep name —
//! no clocks, no RNG state shared between threads.

use crate::client::{Client, ClientError};
use experiments::spec::WorkloadSource;
use experiments::{LockUnpoisoned, ScenarioSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Shape of a load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Submissions per client thread.
    pub per_client: usize,
    /// Distinct spec variants the submissions cycle over (1 = every
    /// submission is the same spec and deduplicates to one run).
    pub distinct: usize,
    /// Seed of the variant derivation.
    pub seed: u64,
    /// Database mode requested for every run.
    pub quick: bool,
    /// Shard size requested for every run.
    pub shard_size: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            per_client: 4,
            distinct: 1,
            seed: 7,
            quick: true,
            shard_size: 4,
        }
    }
}

/// A deterministic submission plan: the distinct spec variants, already
/// serialized (every thread submits identical bytes for a given variant).
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The distinct specs, in variant order.
    pub specs: Vec<ScenarioSpec>,
    /// Serialized form of each spec.
    pub payloads: Vec<String>,
}

/// SplitMix64 finalizer, keyed on the plan seed and variant index.
fn variant_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives the deterministic submission plan for a base spec.
///
/// Variant 0 is the base spec verbatim (so a CI smoke's reference `sweep
/// run` of the unmodified spec file matches run ids with the load run);
/// variants 1..distinct rewrite every synthetic workload seed and suffix
/// the name. A base spec without synthetic sources still yields distinct
/// run ids (the name is part of the fingerprint), just over identical
/// scenario grids.
pub fn plan(base: &ScenarioSpec, config: &LoadConfig) -> Result<LoadPlan, String> {
    let distinct = config.distinct.max(1);
    let mut specs = Vec::with_capacity(distinct);
    let mut payloads = Vec::with_capacity(distinct);
    for index in 0..distinct {
        let mut spec = base.clone();
        if index > 0 {
            spec.name = format!("{}-v{index}", base.name);
            for (axis_no, axis) in spec.platforms.iter_mut().enumerate() {
                if let WorkloadSource::Synth(synth) = &mut axis.workloads {
                    synth.seed = variant_seed(config.seed, (index * 1009 + axis_no) as u64);
                }
            }
        }
        spec.lower()
            .map_err(|e| format!("variant {index} of spec {} does not lower: {e}", base.name))?;
        payloads.push(serde_json::to_string(&spec).map_err(|e| e.to_string())?);
        specs.push(spec);
    }
    Ok(LoadPlan { specs, payloads })
}

/// What a load run observed, serialized as the `--summary` artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadReport {
    /// Client threads run.
    pub clients: usize,
    /// Total submissions attempted.
    pub submissions: u64,
    /// Submissions answered as newly admitted runs.
    pub admitted: u64,
    /// Submissions answered with an existing run id.
    pub deduplicated: u64,
    /// Submissions that hit the queue bound (each was retried until
    /// admitted or the retry budget ran out).
    pub queue_full_rejections: u64,
    /// Transport-level retries (connection refused/reset — e.g. the
    /// daemon restart window of the kill smoke).
    pub transport_retries: u64,
    /// Outcome lines received over `/stream` across all threads: each
    /// thread tails every run it submitted to its end, so this is the sum
    /// over threads of their runs' outcome counts.
    pub outcomes_streamed: u64,
    /// Distinct runs the plan mapped to.
    pub distinct_runs: usize,
    /// Distinct runs that reached `complete`.
    pub runs_completed: usize,
    /// Whether every result fetch of a given run returned identical bytes
    /// across all client threads.
    pub byte_identical: bool,
    /// Errors that exhausted their retry budget.
    pub errors: Vec<String>,
}

impl LoadReport {
    /// Whether the load run met its contract: all runs completed, every
    /// reader saw identical bytes, and nothing failed terminally.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.byte_identical && self.runs_completed == self.distinct_runs
    }
}

struct LoadShared {
    results: Mutex<HashMap<String, Vec<u8>>>,
    report: Mutex<LoadReport>,
}

/// Executes a plan against a daemon. Returns the report plus the merged
/// result bytes of every completed run (variant-ordered), so callers can
/// write them out or compare against an offline execution.
pub fn execute(
    addr: SocketAddr,
    plan: &LoadPlan,
    config: &LoadConfig,
    timeout: Duration,
) -> (LoadReport, Vec<(String, Vec<u8>)>) {
    let shared = Arc::new(LoadShared {
        results: Mutex::new(HashMap::new()),
        report: Mutex::new(LoadReport {
            clients: config.clients.max(1),
            submissions: 0,
            admitted: 0,
            deduplicated: 0,
            queue_full_rejections: 0,
            transport_retries: 0,
            outcomes_streamed: 0,
            distinct_runs: plan.specs.len(),
            runs_completed: 0,
            byte_identical: true,
            errors: Vec::new(),
        }),
    });

    let mut handles = Vec::new();
    for thread_no in 0..config.clients.max(1) {
        let shared = shared.clone();
        let plan = plan.clone();
        let config = config.clone();
        handles.push(thread::spawn(move || {
            client_thread(addr, thread_no, &plan, &config, timeout, &shared)
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }

    let mut report = shared.report.lock_unpoisoned().clone();
    let results = shared.results.lock_unpoisoned();
    report.runs_completed = results.len();
    // Variant-ordered (run id per variant in plan order) result bytes.
    let mut ordered = Vec::new();
    for spec in &plan.specs {
        let id = crate::server::run_id(spec, config.quick);
        if let Some(bytes) = results.get(&id) {
            ordered.push((id, bytes.clone()));
        }
    }
    (report, ordered)
}

/// One client thread: submits its share of the plan, waits for every
/// submitted run by streaming its outcomes to the end, and byte-checks the
/// merged results.
fn client_thread(
    addr: SocketAddr,
    thread_no: usize,
    plan: &LoadPlan,
    config: &LoadConfig,
    timeout: Duration,
    shared: &LoadShared,
) {
    let client = Client::new(addr).with_timeout(timeout.min(Duration::from_secs(30)));
    let name = format!("load-{thread_no}");
    let deadline = std::time::Instant::now() + timeout;
    let mut my_runs: Vec<String> = Vec::new();

    for submission in 0..config.per_client {
        let variant = (thread_no + submission) % plan.payloads.len();
        let payload = &plan.payloads[variant];
        bump(shared, |r| r.submissions += 1);
        let mut attempts = 0u32;
        loop {
            match client.submit(payload, &name, config.quick, config.shard_size) {
                Ok((created, status)) => {
                    if created {
                        bump(shared, |r| r.admitted += 1);
                    } else {
                        bump(shared, |r| r.deduplicated += 1);
                    }
                    if !my_runs.contains(&status.id) {
                        my_runs.push(status.id);
                    }
                    break;
                }
                Err(ClientError::Rejected { kind, .. }) if kind == "QueueFull" => {
                    // Backpressure, not failure: wait out the bound.
                    bump(shared, |r| r.queue_full_rejections += 1);
                    if std::time::Instant::now() > deadline {
                        fail(
                            shared,
                            format!("{name}: queue stayed full past the deadline"),
                        );
                        return;
                    }
                    #[allow(clippy::disallowed_methods)] // Backoff before resubmitting.
                    thread::sleep(Duration::from_millis(100));
                }
                Err(ClientError::Transport(detail)) => {
                    // The daemon may be mid-restart (the kill smoke).
                    bump(shared, |r| r.transport_retries += 1);
                    attempts += 1;
                    if std::time::Instant::now() > deadline || attempts > 600 {
                        fail(
                            shared,
                            format!("{name}: transport retries exhausted: {detail}"),
                        );
                        return;
                    }
                    #[allow(clippy::disallowed_methods)] // Backoff before a transport retry.
                    thread::sleep(Duration::from_millis(200));
                }
                Err(e) => {
                    fail(shared, format!("{name}: submission failed: {e}"));
                    return;
                }
            }
        }
    }

    // Wait for every submitted run: tail its stream to the end (the daemon
    // closes a tail exactly when the run is terminal), then confirm with one
    // status read. A daemon kill ends a tail too, so a run still live then
    // is tailed again, from the lines already received. A tail may sit
    // silent while its run is queued, so only the deadline bounds its reads.
    for id in my_runs {
        let mut received = 0usize;
        loop {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let tail = client
                .clone()
                .with_timeout(left.max(Duration::from_millis(1)));
            let tailed = tail.stream(&id, received, |_| {}).and_then(|lines| {
                received += lines;
                client.status(&id)
            });
            match tailed {
                Ok(status) if status.state == "complete" => break,
                Ok(status) if status.state == "cancelled" || status.state == "failed" => {
                    fail(shared, format!("{name}: run {id} ended {}", status.state));
                    return;
                }
                Ok(_) | Err(ClientError::Transport(_)) if std::time::Instant::now() > deadline => {
                    fail(shared, format!("{name}: run {id} did not finish in time"));
                    return;
                }
                Ok(_) => {}
                Err(ClientError::Transport(_)) => {
                    bump(shared, |r| r.transport_retries += 1);
                    #[allow(clippy::disallowed_methods)] // Backoff before a transport retry.
                    thread::sleep(Duration::from_millis(200));
                }
                Err(e) => {
                    fail(shared, format!("{name}: waiting on {id} failed: {e}"));
                    return;
                }
            }
        }
        bump(shared, |r| r.outcomes_streamed += received as u64);
        match client.result(&id) {
            Ok(bytes) => {
                let mut results = shared.results.lock_unpoisoned();
                match results.get(&id) {
                    Some(existing) if existing != &bytes => {
                        drop(results);
                        bump(shared, |r| r.byte_identical = false);
                        fail(
                            shared,
                            format!("{name}: result bytes of {id} differ between readers"),
                        );
                    }
                    Some(_) => {}
                    None => {
                        results.insert(id.clone(), bytes);
                    }
                }
            }
            Err(e) => fail(shared, format!("{name}: result fetch of {id} failed: {e}")),
        }
    }
}

fn bump(shared: &LoadShared, update: impl FnOnce(&mut LoadReport)) {
    update(&mut shared.report.lock_unpoisoned());
}

fn fail(shared: &LoadShared, message: String) {
    shared.report.lock_unpoisoned().errors.push(message);
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::spec::{PlatformAxisSpec, PlatformSpec};
    use experiments::{QosAxis, RmaVariant};
    use qosrm_types::QosSpec;
    use workload::{MixPopulation, SynthSpec};

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "load-test".to_string(),
            platforms: vec![PlatformAxisSpec {
                label: "p4".to_string(),
                platform: PlatformSpec::Paper1 { num_cores: 4 },
                workloads: WorkloadSource::Synth(SynthSpec {
                    seed: 11,
                    count: 2,
                    num_cores: 4,
                    population: MixPopulation::Mixed,
                    name_prefix: "ld-".to_string(),
                }),
            }],
            qos: vec![QosAxis::uniform("strict", QosSpec::STRICT)],
            variants: vec![RmaVariant::Paper1],
            options: None,
        }
    }

    #[test]
    fn plan_is_deterministic_for_a_seed() {
        let config = LoadConfig {
            distinct: 4,
            seed: 99,
            ..Default::default()
        };
        let a = plan(&base_spec(), &config).unwrap();
        let b = plan(&base_spec(), &config).unwrap();
        assert_eq!(a.payloads, b.payloads);
        // Variant 0 is the base spec verbatim.
        assert_eq!(a.specs[0], base_spec());
        // All variants are distinct specs (distinct run ids).
        let ids: Vec<String> = a
            .specs
            .iter()
            .map(|s| crate::server::run_id(s, true))
            .collect();
        let mut deduped = ids.clone();
        deduped.sort();
        deduped.dedup();
        assert_eq!(deduped.len(), ids.len());
    }

    #[test]
    fn different_seeds_give_different_variants() {
        let a = plan(
            &base_spec(),
            &LoadConfig {
                distinct: 3,
                seed: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let b = plan(
            &base_spec(),
            &LoadConfig {
                distinct: 3,
                seed: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            a.payloads[0], b.payloads[0],
            "variant 0 is seed-independent"
        );
        assert_ne!(a.payloads[1], b.payloads[1]);
        assert_ne!(a.payloads[2], b.payloads[2]);
    }
}
