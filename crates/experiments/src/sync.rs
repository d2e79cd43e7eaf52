//! Poison-tolerant locking for shared pipeline state, and the one change
//! signal every wait in the serving and distributed paths blocks on
//! ([`Signal`]).
//!
//! Every long-lived service in the workspace — the serve daemon, the sweep
//! coordinator, the experiment context's telemetry and database cache —
//! shares state between worker threads through [`std::sync::Mutex`]. A
//! panicking worker poisons any mutex it holds, and a bare
//! `.lock().unwrap()` then re-panics in *every* subsequent accessor,
//! cascading one bad run into a dead daemon.
//!
//! That cascade is never the right trade here: all durable state is written
//! **save-before-grant** (snapshots and shard logs reach disk via atomic
//! renames *before* in-memory bookkeeping advances), so the value behind a
//! poisoned lock is at worst a step behind the disk — consistent, and
//! exactly what crash recovery already tolerates. These helpers inherit the
//! inner value and keep serving.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Poison-tolerant [`Mutex`] locking.
pub trait LockUnpoisoned<T> {
    /// Locks the mutex, inheriting the inner value if a previous holder
    /// panicked (see the module docs for why that is sound here).
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T>;
}

impl<T> LockUnpoisoned<T> for Mutex<T> {
    fn lock_unpoisoned(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// A change signal: a generation counter behind a mutex, with a condition
/// variable. A waiter reads the [`generation`](Signal::generation) *first*,
/// then checks its condition, and only if it does not hold blocks in
/// [`wait_past`](Signal::wait_past): a change between the check and the
/// wait has already moved the generation, so no wake-up is lost.
#[derive(Debug, Default)]
pub struct Signal {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Signal {
    /// The current generation.
    pub fn generation(&self) -> u64 {
        *self.generation.lock_unpoisoned()
    }

    /// Advances the generation and wakes every waiter.
    pub fn bump(&self) {
        *self.generation.lock_unpoisoned() += 1;
        self.changed.notify_all();
    }

    /// Blocks until the generation moves past `seen` or `timeout` elapses
    /// (`Duration::MAX` waits without a deadline). Returns whether it moved.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let guard = self.generation.lock_unpoisoned();
        let (guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |generation| *generation == seen)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard != seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::Instant;

    #[test]
    fn a_poisoned_mutex_is_recovered_with_its_last_state() {
        let state = Arc::new(Mutex::new(0u64));
        let poisoner = Arc::clone(&state);
        let _ = std::thread::spawn(move || {
            let mut guard = poisoner.lock().unwrap();
            *guard = 7;
            panic!("poison the lock mid-update");
        })
        .join();
        assert!(state.lock().is_err(), "the lock must actually be poisoned");
        assert_eq!(*state.lock_unpoisoned(), 7, "inner state is inherited");
        // And the recovery is repeatable: the lock stays usable.
        *state.lock_unpoisoned() += 1;
        assert_eq!(*state.lock_unpoisoned(), 8);
    }

    #[test]
    fn a_signal_wait_returns_once_the_generation_moves_or_at_its_timeout() {
        let signal = Arc::new(Signal::default());
        // Already moved: no wait at all, even without a deadline.
        let seen = signal.generation();
        signal.bump();
        assert!(signal.wait_past(seen, Duration::MAX));

        // Released by a bump from another thread.
        let seen = signal.generation();
        let (parked, released) = mpsc::channel();
        let waiter = Arc::clone(&signal);
        std::thread::spawn(move || {
            let _ = parked.send(waiter.wait_past(seen, Duration::MAX));
        });
        assert!(
            released.recv_timeout(Duration::from_millis(100)).is_err(),
            "the waiter stays parked while the generation stands"
        );
        signal.bump();
        let moved = released.recv_timeout(Duration::from_secs(60));
        assert_eq!(moved, Ok(true), "the bump releases the waiter");

        // Otherwise it returns at its timeout, reporting no change.
        let start = Instant::now();
        assert!(!signal.wait_past(signal.generation(), Duration::from_millis(50)));
        assert!(start.elapsed() >= Duration::from_millis(50));
    }
}
