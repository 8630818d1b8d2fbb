//! Child processes under test: wall time, exit status and peak resident
//! memory, with a kill deadline.
//!
//! Peak memory is the child's own `VmHWM`, sampled from `/proc` while it
//! runs. `wait4`'s `ru_maxrss` would not do: a spawned child starts with
//! the spawning process's high-water mark, so it reports at least the
//! harness's own resident size.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often a running child's exit is polled.
const POLL: Duration = Duration::from_micros(500);

/// How often a running child's `VmHWM` is read.
const HWM_EVERY: Duration = Duration::from_millis(5);

/// How a child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exit code, `None` when killed by a signal.
    pub code: Option<i32>,
    /// The deadline passed and the benchmark killed it.
    pub timed_out: bool,
    /// Peak resident set size, KiB, as last sampled (at most about 5 ms
    /// before the child exited).
    pub maxrss_kib: u64,
    /// From spawn to reaping.
    pub wall: Duration,
}

impl Exit {
    pub fn ok(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

/// `VmHWM` of a live process, KiB.
fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A running child, when it was started, its peak memory so far, and the
/// thread draining its stderr (if piped).
pub struct Running {
    child: Child,
    started: Instant,
    maxrss_kib: u64,
    drain: Option<JoinHandle<()>>,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Running> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Running {
            child,
            started,
            maxrss_kib: 0,
            drain: None,
        })
    }

    fn sample_memory(&mut self) {
        if let Some(kib) = vm_hwm_kib(self.child.id()) {
            self.maxrss_kib = self.maxrss_kib.max(kib);
        }
    }

    /// Reads the child's piped stderr until a line satisfies `pick`,
    /// returning its result, then keeps draining the pipe on a thread so
    /// the child never blocks on a full pipe; the thread is joined when
    /// the child is reaped. `None` when the stream ends or `timeout`
    /// passes first.
    pub fn watch_stderr<T: Send + 'static>(
        &mut self,
        timeout: Duration,
        pick: impl Fn(&str) -> Option<T> + Send + 'static,
    ) -> Option<T> {
        let stderr = self.child.stderr.take()?;
        let (tx, rx) = mpsc::channel();
        self.drain = Some(std::thread::spawn(move || {
            let mut found = false;
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if !found {
                    if let Some(v) = pick(&line) {
                        found = true;
                        let _ = tx.send(v);
                    }
                }
            }
        }));
        rx.recv_timeout(timeout).ok()
    }

    /// Polls for exit, sampling peak memory; kills the child once
    /// `deadline` passes. Always reaps it, so no zombie or stray process
    /// outlives the call.
    pub fn wait(mut self, deadline: Instant) -> Exit {
        let mut timed_out = false;
        let mut next_sample = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) => {}
                Err(_) => break None,
            }
            let now = Instant::now();
            if now >= next_sample {
                self.sample_memory();
                next_sample = now + HWM_EVERY;
            }
            if now >= deadline && !timed_out {
                timed_out = true;
                let _ = self.child.kill();
            }
            std::thread::sleep(POLL);
        };
        self.finish(status, timed_out)
    }

    /// Samples peak memory, kills the child now and reaps it (for servers,
    /// which never exit on their own).
    pub fn stop(mut self) -> Exit {
        self.sample_memory();
        let _ = self.child.kill();
        let status = self.child.wait().ok();
        self.finish(status, false)
    }

    fn finish(mut self, status: Option<ExitStatus>, timed_out: bool) -> Exit {
        // The pipe closed with the child, so the drain ends.
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
        Exit {
            code: status.and_then(|s| s.code()),
            timed_out,
            maxrss_kib: self.maxrss_kib,
            wall: self.started.elapsed(),
        }
    }
}

impl Drop for Running {
    /// A child still running when its handle goes away (the harness is
    /// unwinding from a panic) is killed and reaped, never left behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A command for the binary under test with stdout discarded and stderr
/// either discarded or piped.
pub fn command(bin: &str, args: &[String], pipe_stderr: bool) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(if pipe_stderr {
            Stdio::piped()
        } else {
            Stdio::null()
        });
    cmd
}
