//! Processes the benchmark starts: `srank serve` over TCP, and fresh
//! copies of the benchmark itself for the in-process kernel phases.
//! Every process is killed (if still running) and waited for on drop.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Instant;

/// A memory figure of a process from `/proc/PID/status`, in KiB:
/// `VmHWM` (peak resident set) or `VmRSS` (resident set now).
pub fn vm_kib(pid: &str, field: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Clock ticks per second of the CPU times in `/proc/PID/stat`
/// (`USER_HZ`, 100 on every Linux ABI).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds a process has spent, user and system, its ended threads
/// included, from `/proc/PID/stat`. The kernel charges time the host
/// stole from a virtual CPU as steal, not to the process; contention for
/// the caches other tenants share still slows it (see [`crate::probe`]).
pub fn cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the command name, which ends at the last ')': state is
    // field 3, utime and stime are fields 14 and 15.
    let mut fields = stat
        .get(stat.rfind(')')? + 2..)?
        .split_whitespace()
        .skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_S)
}

/// Threads and connections the load may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A running `srank serve --listen` with `--workers nproc` and otherwise
/// default flags.
pub struct Server {
    child: Child,
    pub addr: String,
    pub started: Instant,
    drain: Option<JoinHandle<()>>,
}

impl Server {
    pub fn spawn(srank: &Path) -> Result<Self, String> {
        let started = Instant::now();
        let mut child = Command::new(srank)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(nproc().to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", srank.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let read = stderr.read_line(&mut line);
            if matches!(read, Ok(0) | Err(_)) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("srank serve exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        // Keep reading stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        });
        Ok(Self {
            child,
            addr,
            started,
            drain: Some(drain),
        })
    }

    pub fn hwm_kib(&self) -> Option<u64> {
        vm_kib(&self.child.id().to_string(), "VmHWM")
    }

    pub fn cpu_s(&self) -> Option<f64> {
        cpu_s(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A fresh copy of this benchmark running one in-process phase. It
/// prints `ready` once set up, then one JSON line with its results.
pub struct Phase {
    child: Child,
    out: BufReader<ChildStdout>,
    pub started: Instant,
}

impl Phase {
    pub fn spawn(args: &[String]) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let started = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start a phase process: {e}"))?;
        let out = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            out,
            started,
        })
    }

    /// Waits for the `ready` line; returns the seconds since spawn.
    pub fn ready(&mut self) -> Result<f64, String> {
        let line = self.line()?;
        if line.trim() != "ready" {
            return Err(format!("phase process said {line:?} instead of ready"));
        }
        Ok(self.started.elapsed().as_secs_f64())
    }

    /// Reads the result line and waits for the process to exit.
    pub fn finish(mut self) -> Result<serde_json::Value, String> {
        let line = self.line()?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("phase process failed: {status}"));
        }
        serde_json::from_str(line.trim()).map_err(|e| format!("phase output: {e}"))
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.out.read_line(&mut line) {
            Ok(0) => Err("phase process ended early".into()),
            Ok(_) => Ok(line),
            Err(e) => Err(e.to_string()),
        }
    }
}

impl Drop for Phase {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
