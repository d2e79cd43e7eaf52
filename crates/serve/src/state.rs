//! Run registry, admission queue and counters of the daemon.
//!
//! The registry is the single source of truth for run state in a live
//! daemon; every transition is mirrored durably to the run's `run.json`
//! (see [`RunMeta`]) so a killed daemon recovers the same picture on
//! restart. The admission queue is *fair per client*: queued runs drain
//! round-robin over the clients that submitted them, so one client
//! enqueueing fifty sweeps cannot starve a client with one.

use experiments::ScenarioSpec;
use qosrm_types::QosrmError;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lifecycle of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing shards.
    Running,
    /// All scenarios complete; the merged result is available.
    Complete,
    /// Cancelled by a client (between shards; completed shards stay on
    /// disk, so a later resubmission of the same spec resumes them).
    Cancelled,
    /// Execution failed; see the run's `error`.
    Failed,
}

impl RunState {
    /// Whether the state is terminal (no worker will touch the run again
    /// without a new submission).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            RunState::Complete | RunState::Cancelled | RunState::Failed
        )
    }

    /// Stable lower-case label used in status payloads and logs.
    pub fn label(self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Complete => "complete",
            RunState::Cancelled => "cancelled",
            RunState::Failed => "failed",
        }
    }
}

/// The durable per-run record, persisted as `run.json` next to the run's
/// streaming manifest and shard logs.
///
/// `run.json` is daemon bookkeeping only — the sweep state itself lives in
/// the unchanged `manifest.json` + `shard-*.jsonl` format, which is what
/// keeps daemon merges byte-identical to CLI `sweep run` output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Run id: the fingerprint of `(spec, quick)`, so identical submissions
    /// deduplicate to one run.
    pub id: String,
    /// The client that first submitted the run.
    pub client: String,
    /// Whether the run uses quick-mode databases.
    pub quick: bool,
    /// Scenarios per shard.
    pub shard_size: usize,
    /// Current lifecycle state.
    pub state: RunState,
    /// Failure detail when `state` is `Failed`.
    pub error: Option<String>,
    /// The submitted spec (embedded so restart recovery needs nothing but
    /// the run directory).
    pub spec: ScenarioSpec,
}

/// File name of the durable run record within a run directory.
pub const RUN_META_FILE: &str = "run.json";

impl RunMeta {
    /// Loads the run record of a run directory.
    pub fn load(dir: &Path) -> Result<Self, QosrmError> {
        simdb::persist::load_json(&dir.join(RUN_META_FILE))
    }

    /// Durably persists the run record (fsync of file and directory: a
    /// crash right after a state transition must not roll it back).
    pub fn save(&self, dir: &Path) -> Result<(), QosrmError> {
        simdb::persist::save_json_durable(self, &dir.join(RUN_META_FILE))
    }
}

/// Round-robin-per-client admission queue.
///
/// `push` appends to the submitting client's FIFO lane; `pop` serves lanes
/// in rotation, so dequeue order interleaves clients regardless of how
/// bursty each one is. Within one client, submission order is preserved.
#[derive(Debug, Default)]
pub struct FairQueue {
    lanes: Vec<(String, VecDeque<String>)>,
    cursor: usize,
    len: usize,
}

impl FairQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        FairQueue::default()
    }

    /// Queued run count across all clients.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no runs are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a run for a client.
    pub fn push(&mut self, client: &str, run_id: String) {
        if let Some((_, lane)) = self.lanes.iter_mut().find(|(c, _)| c == client) {
            lane.push_back(run_id);
        } else {
            let mut lane = VecDeque::new();
            lane.push_back(run_id);
            self.lanes.push((client.to_string(), lane));
        }
        self.len += 1;
    }

    /// Dequeues the next run, rotating over client lanes.
    pub fn pop(&mut self) -> Option<String> {
        if self.len == 0 {
            return None;
        }
        let lanes = self.lanes.len();
        for offset in 0..lanes {
            let index = (self.cursor + offset) % lanes;
            if let Some(run_id) = self.lanes[index].1.pop_front() {
                self.cursor = (index + 1) % lanes;
                self.len -= 1;
                return Some(run_id);
            }
        }
        None
    }

    /// Removes a queued run (cancellation before a worker claimed it).
    /// Returns whether the run was queued.
    pub fn remove(&mut self, run_id: &str) -> bool {
        for (_, lane) in self.lanes.iter_mut() {
            if let Some(pos) = lane.iter().position(|id| id == run_id) {
                lane.remove(pos);
                self.len -= 1;
                return true;
            }
        }
        false
    }
}

/// Monotonic counters of the daemon, exposed on `/stats`.
///
/// All counters are process-lifetime (they reset on restart — durable state
/// is the runs, not the telemetry).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Requests parsed off the wire (any endpoint, any outcome).
    pub http_requests: AtomicU64,
    /// `POST /runs` submissions received.
    pub submissions: AtomicU64,
    /// Submissions admitted as *new* runs.
    pub admitted: AtomicU64,
    /// Submissions answered with an already-known run id.
    pub deduplicated: AtomicU64,
    /// Submissions rejected because the queue was at its bound.
    pub rejected_queue_full: AtomicU64,
    /// Submissions rejected because the spec failed to parse or lower.
    pub rejected_invalid_spec: AtomicU64,
    /// Requests rejected for exceeding a size limit.
    pub rejected_payload: AtomicU64,
    /// Runs that reached `Complete`.
    pub runs_completed: AtomicU64,
    /// Runs that reached `Cancelled`.
    pub runs_cancelled: AtomicU64,
    /// Runs that reached `Failed`.
    pub runs_failed: AtomicU64,
    /// Outcome lines written to `/stream` responses.
    pub outcomes_streamed: AtomicU64,
}

impl ServeCounters {
    /// Increments a counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn read(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// The mutable registry behind the daemon's mutex: every known run plus
/// the admission queue.
#[derive(Default)]
pub struct RegistryInner {
    /// All runs known to the daemon, by id.
    pub runs: HashMap<String, RunMeta>,
    /// Admitted runs waiting for a worker.
    pub queue: FairQueue,
}

/// Per-state tallies of the registry, reported on `/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunTallies {
    /// Runs in `Queued`.
    pub queued: usize,
    /// Runs in `Running`.
    pub running: usize,
    /// Runs in `Complete`.
    pub complete: usize,
    /// Runs in `Cancelled`.
    pub cancelled: usize,
    /// Runs in `Failed`.
    pub failed: usize,
}

impl RegistryInner {
    /// Tallies runs by state.
    pub fn tallies(&self) -> RunTallies {
        let mut t = RunTallies::default();
        for run in self.runs.values() {
            match run.state {
                RunState::Queued => t.queued += 1,
                RunState::Running => t.running += 1,
                RunState::Complete => t.complete += 1,
                RunState::Cancelled => t.cancelled += 1,
                RunState::Failed => t.failed += 1,
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_queue_interleaves_clients() {
        let mut q = FairQueue::new();
        for i in 0..3 {
            q.push("a", format!("a{i}"));
        }
        q.push("b", "b0".to_string());
        q.push("c", "c0".to_string());
        assert_eq!(q.len(), 5);
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        // Client a submitted first but must not drain before b and c get a
        // turn each: rotation serves a, b, c, then a's backlog.
        assert_eq!(order, vec!["a0", "b0", "c0", "a1", "a2"]);
        assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_preserves_per_client_fifo() {
        let mut q = FairQueue::new();
        for i in 0..4 {
            q.push("solo", format!("r{i}"));
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec!["r0", "r1", "r2", "r3"]);
    }

    #[test]
    fn fair_queue_remove_unqueues() {
        let mut q = FairQueue::new();
        q.push("a", "a0".to_string());
        q.push("a", "a1".to_string());
        assert!(q.remove("a0"));
        assert!(!q.remove("a0"));
        assert_eq!(q.pop().as_deref(), Some("a1"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn run_state_terminality_and_labels() {
        assert!(!RunState::Queued.is_terminal());
        assert!(!RunState::Running.is_terminal());
        assert!(RunState::Complete.is_terminal());
        assert!(RunState::Cancelled.is_terminal());
        assert!(RunState::Failed.is_terminal());
        assert_eq!(RunState::Running.label(), "running");
    }
}
