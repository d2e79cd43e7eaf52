//! Child processes of the system under test: spawn, wait for a readiness
//! line, wait with a deadline, and never leak one.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long any single wait on the system may take before the benchmark
/// gives up on it.
pub const DEADLINE: Duration = Duration::from_secs(120);

/// A child process, killed and reaped on drop. Its stdout, when captured,
/// is drained line by line on a thread so the child never blocks on a full
/// pipe.
pub struct Proc {
    child: Child,
    lines: Option<Receiver<String>>,
    drain: Option<JoinHandle<()>>,
}

impl Proc {
    /// Spawns `program args` with stderr discarded; `capture` keeps stdout
    /// lines for [`Proc::wait_line`] (otherwise stdout is discarded too).
    pub fn spawn(program: &Path, args: &[&str], capture: bool) -> Result<Proc, String> {
        let mut command = Command::new(program);
        command
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .stdout(if capture {
                Stdio::piped()
            } else {
                Stdio::null()
            });
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", program.display()))?;
        let (lines, drain) = match child.stdout.take() {
            Some(stdout) => {
                let (tx, rx) = channel();
                let drain = std::thread::spawn(move || {
                    for line in BufReader::new(stdout).lines() {
                        let Ok(line) = line else { break };
                        if tx.send(line).is_err() {
                            break;
                        }
                    }
                });
                (Some(rx), Some(drain))
            }
            None => (None, None),
        };
        Ok(Proc {
            child,
            lines,
            drain,
        })
    }

    /// Waits for the first stdout line starting with `prefix` and returns
    /// the rest of it.
    pub fn wait_line(&self, prefix: &str) -> Result<String, String> {
        let lines = self.lines.as_ref().ok_or("stdout was not captured")?;
        let deadline = Instant::now() + DEADLINE;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return Ok(rest.trim().to_string());
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("no {prefix:?} line within {DEADLINE:?}"))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(format!("exited before printing {prefix:?}"))
                }
            }
        }
    }

    /// Waits for exit; fails on a non-zero status or after [`DEADLINE`].
    pub fn wait_ok(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return check(status);
            }
            if Instant::now() >= deadline {
                return Err(format!("still running after {DEADLINE:?}"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

fn check(status: ExitStatus) -> Result<(), String> {
    if status.success() {
        Ok(())
    } else {
        Err(format!("exited with {status}"))
    }
}

/// Runs `program args` to completion and returns its stdout.
pub fn run(program: &Path, args: &[&str]) -> Result<Vec<u8>, String> {
    let output = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", program.display()))?;
    check(output.status).map_err(|e| format!("{} {e}", program.display()))?;
    Ok(output.stdout)
}
