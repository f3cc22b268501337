//! The daemons under test as child processes, and what `/proc` says about
//! them.
//!
//! Each daemon runs with its default flags except `--addr 127.0.0.1:0`; the
//! port comes from its `listening on` line. A daemon is ready once it
//! answers `stats`. Dropping a [`Proc`] kills and reaps it, so no run
//! leaves a process behind, whatever path it exits by.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A child process, killed and reaped on drop.
pub struct Proc {
    child: Child,
    pub stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Proc {
    pub fn spawn(bin: &Path, args: &[String]) -> Result<Proc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Proc {
            stdin: child.stdin.take(),
            stdout,
            child,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("child closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Wait up to `grace` for a clean exit, then kill.
    pub fn finish(mut self, grace: Duration) {
        drop(self.stdin.take());
        let until = Instant::now() + grace;
        while Instant::now() < until {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One daemon: its process and bound address.
pub struct Daemon {
    proc: Proc,
    pub addr: SocketAddr,
}

impl Daemon {
    fn spawn(bin: &Path, extra: &[String]) -> Result<Daemon, String> {
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        args.extend_from_slice(extra);
        let mut proc = Proc::spawn(bin, &args)?;
        let banner = proc.read_line()?;
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("no address in banner `{banner}`"))?;
        Ok(Daemon { proc, addr })
    }

    /// Block until the daemon answers `stats`.
    fn await_stats(&self) -> Result<(), String> {
        let reply = request(self.addr, "{\"op\":\"stats\"}\n")?;
        if reply.contains("\"ok\":true") {
            Ok(())
        } else {
            Err(format!("stats failed: {reply}"))
        }
    }

    fn stop(self) {
        let _ = request(self.addr, "{\"op\":\"shutdown\"}\n");
        self.proc.finish(Duration::from_secs(5));
    }
}

/// One request on a fresh connection; the reply line.
fn request(addr: SocketAddr, line: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(line.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| e.to_string())?;
    Ok(reply)
}

/// A raw Prometheus scrape: plain text until the daemon closes.
pub fn scrape(addr: SocketAddr) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"{\"op\":\"metrics\",\"raw\":true}\n")
        .map_err(|e| e.to_string())?;
    let mut text = String::new();
    std::io::Read::read_to_string(&mut stream, &mut text).map_err(|e| e.to_string())?;
    Ok(text)
}

/// The processes of one service workload: a single `sdlo-service`, or two
/// backends behind `sdlo-router`. Requests go to `entry`.
pub struct Fleet {
    /// Backends first, then the router if any.
    pub daemons: Vec<Daemon>,
    pub entry: SocketAddr,
    routed: bool,
}

impl Fleet {
    pub fn start(bin_dir: &Path, routed: bool) -> Result<Fleet, String> {
        let service = bin_dir.join("sdlo-service");
        let mut daemons = vec![Daemon::spawn(&service, &[])?];
        if routed {
            daemons.push(Daemon::spawn(&service, &[])?);
            let mut flags = Vec::new();
            for d in &daemons {
                flags.push("--backend".to_string());
                flags.push(d.addr.to_string());
            }
            daemons.push(Daemon::spawn(&bin_dir.join("sdlo-router"), &flags)?);
        }
        for d in &daemons {
            d.await_stats()?;
        }
        let entry = daemons.last().expect("at least one daemon").addr;
        Ok(Fleet {
            daemons,
            entry,
            routed,
        })
    }

    pub fn backends(&self) -> &[Daemon] {
        if self.routed {
            &self.daemons[..self.daemons.len() - 1]
        } else {
            &self.daemons
        }
    }

    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(|d| d.proc.pid()).collect()
    }

    /// Shut down the router first, then the backends.
    pub fn stop(mut self) {
        while let Some(d) = self.daemons.pop() {
            d.stop();
        }
    }
}

/// Clock ticks per second, from the auxiliary vector (`AT_CLKTCK`).
fn clk_tck() -> u64 {
    const AT_CLKTCK: u64 = 17;
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|raw| {
            raw.chunks_exact(16)
                .map(|kv| {
                    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
                    (word(&kv[..8]), word(&kv[8..]))
                })
                .find(|(k, _)| *k == AT_CLKTCK)
                .map(|(_, v)| v)
        })
        .unwrap_or(100)
}

/// User plus system CPU seconds a process has used, all its threads,
/// finished ones included.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).map_err(|e| e.to_string())?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or("malformed stat")
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / clk_tck() as f64)
}

/// Peak resident set (`VmHWM`), MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status =
        std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM".to_string())
}
