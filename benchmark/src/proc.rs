//! The real `rdfa-server` binary as a child process: spawn, wait until it
//! serves, signal, reap — and read its CPU time and peak RSS from `/proc`.
//! The server only ever sees a file, flags and HTTP requests.

use crate::affinity::CpuSet;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Ingesting the full dataset takes about a second; a server that has not
/// bound its port after this long is broken.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    /// When `spawn` was called — restart times count from here.
    pub spawned_at: Instant,
    stderr: Option<std::thread::JoinHandle<String>>,
}

impl ServerProc {
    /// Start the server on an ephemeral port and wait for the line it prints
    /// once the listener is bound. `RDFA_FSYNC=always` is always set, so the
    /// flush policy is the same on every run and does not depend on the
    /// caller's environment. The server runs on `cores` and no others.
    pub fn spawn(bin: &Path, args: &[String], cores: CpuSet) -> Result<ServerProc, String> {
        let spawned_at = Instant::now();
        let mut command = Command::new(bin);
        cores.confine(&mut command);
        let mut child = command
            .args(args)
            .arg("0")
            .env("RDFA_FSYNC", "always")
            .env_remove("RDFA_SEGMENTS")
            .env_remove("RDFA_CRASHPOINT")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let pipe = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel::<SocketAddr>();
        // Drain stderr for the child's whole life so it never blocks on a
        // full pipe; the text is kept for the error message of a failed run.
        let stderr = std::thread::spawn(move || {
            let mut log = String::new();
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                if let Some(rest) = line.strip_prefix("SPARQL endpoint at http://") {
                    if let Some(addr) = rest.split('/').next().and_then(|a| a.parse().ok()) {
                        let _ = tx.send(addr);
                    }
                }
                log.push_str(&line);
                log.push('\n');
            }
            log
        });
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => Ok(ServerProc {
                child,
                addr,
                spawned_at,
                stderr: Some(stderr),
            }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                let log = stderr.join().unwrap_or_default();
                Err(format!(
                    "rdfa-server {args:?} never announced its endpoint:\n{log}"
                ))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the process has used so far.
    pub fn cpu_seconds(&self) -> f64 {
        let stat =
            std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).unwrap_or_default();
        // fields after the parenthesised command name; utime and stime are
        // the 14th and 15th of the whole line
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        (ticks(11) + ticks(12)) / clock_ticks_per_second()
    }

    /// Peak resident set size (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// SIGTERM: the server drains, checkpoints a durable store, and exits.
    /// Returns how long that took.
    pub fn terminate(mut self) -> Result<Duration, String> {
        let started = Instant::now();
        let sent = Command::new("kill")
            .args(["-TERM", &self.pid().to_string()])
            .status()
            .map_err(|e| format!("cannot run kill: {e}"))?;
        if !sent.success() {
            return Err("kill -TERM failed".to_owned());
        }
        let status = self.child.wait().map_err(|e| e.to_string())?;
        let took = started.elapsed();
        let log = self
            .stderr
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!(
                "rdfa-server exited with {status} after SIGTERM:\n{log}"
            ));
        }
        Ok(took)
    }

    /// SIGKILL: no drain, no checkpoint — what a crash leaves behind.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerProc {
    /// No run, failed or not, leaves a server behind.
    fn drop(&mut self) {
        self.reap();
    }
}

fn clock_ticks_per_second() -> f64 {
    use std::sync::OnceLock;
    static TICKS: OnceLock<f64> = OnceLock::new();
    *TICKS.get_or_init(|| {
        Command::new("getconf")
            .arg("CLK_TCK")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.trim().parse::<f64>().ok())
            .filter(|t| *t > 0.0)
            .unwrap_or(100.0)
    })
}

/// Total size of the regular files directly inside `dir`, and their names.
pub fn dir_listing(dir: &Path) -> (u64, Vec<String>) {
    let mut bytes = 0;
    let mut names = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            if let Ok(meta) = entry.metadata() {
                if meta.is_file() {
                    bytes += meta.len();
                    names.push(entry.file_name().to_string_lossy().into_owned());
                }
            }
        }
    }
    names.sort();
    (bytes, names)
}
