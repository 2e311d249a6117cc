//! The served process: spawn the shipped `urbane-serve`, find its port,
//! read its `/metrics`, its peak RSS, and stop it.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;
use urbane_serve::Client;

/// Longest a request may take before the client gives up on it.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest the server may take to print its listening line.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `PR_SET_PDEATHSIG` from `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
/// `SIGKILL` on Linux.
const SIGKILL: u64 = 9;

/// A running `urbane-serve` child, killed and reaped on drop.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    // Held open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawn `bin args...` (stderr to `log`) and wait for its listening line.
    pub fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Server, String> {
        let log = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log);
        // If the benchmark is killed before it can stop the server (say, by
        // a harness timeout), the kernel kills the server too.
        // SAFETY: the hook runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout was not captured".into());
        };
        // Read the listening line on a helper thread so a wedged boot turns
        // into a timeout instead of a hang.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut out = BufReader::new(stdout);
            let mut line = String::new();
            let addr = loop {
                line.clear();
                match out.read_line(&mut line) {
                    Ok(0) | Err(_) => break None,
                    Ok(_) => {
                        if let Some(rest) = line
                            .trim()
                            .strip_prefix("urbane-serve listening on http://")
                        {
                            break rest.parse::<SocketAddr>().ok();
                        }
                    }
                }
            };
            let _ = tx.send(addr);
            out
        });
        let addr = rx.recv_timeout(BOOT_TIMEOUT).ok().flatten();
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "{} did not report a listening address",
                bin.display()
            ));
        };
        let stdout = reader
            .join()
            .map_err(|_| "stdout reader panicked".to_string())?;
        Ok(Server {
            child,
            addr,
            _stdout: stdout,
        })
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh keep-alive connection.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(self.addr, CLIENT_TIMEOUT)
            .map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// The server's peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.pid());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Every sample on `/metrics`, keyed by name plus labels.
    pub fn metrics(&self) -> Result<Counters, String> {
        let mut client = self.connect()?;
        let resp = client
            .get("/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if resp.status != 200 {
            return Err(format!("GET /metrics: status {}", resp.status));
        }
        let mut out = BTreeMap::new();
        for line in resp.body.lines().filter(|l| !l.starts_with('#')) {
            if let Some((name, value)) = line.rsplit_once(' ') {
                if let Ok(v) = value.parse::<f64>() {
                    out.insert(name.to_string(), v);
                }
            }
        }
        Ok(Counters(out))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `/metrics` snapshot.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    /// One sample (0 when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self - earlier` for one sample.
    pub fn delta(&self, earlier: &Counters, name: &str) -> f64 {
        self.get(name) - earlier.get(name)
    }
}
