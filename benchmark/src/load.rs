//! The load generator: one process, one thread per connection, at most two
//! of each. Closed loops send a connection's next request when its reply
//! arrives; the open loop sends on a Poisson schedule regardless and times
//! each request from when it was due.

use crate::gen::Req;
use crate::layers::{self, Value};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Index into the stream.
    pub idx: usize,
    /// Send (closed loop) or due time (open loop) to reply, ns.
    pub latency_ns: u64,
    /// How late the generator sent it, ns (open loop only).
    pub late_ns: u64,
    /// The reply line, until it is judged after the window.
    reply: String,
    pub ok: bool,
    /// The reply's server timing, µs: queue, exec, write.
    pub timing: Option<[u64; 3]>,
}

impl Sample {
    fn new(idx: usize, latency_ns: u64, late_ns: u64, reply: String) -> Sample {
        Sample {
            idx,
            latency_ns,
            late_ns,
            reply,
            ok: false,
            timing: None,
        }
    }
}

/// What a measured window produced.
#[derive(Debug, Default)]
pub struct Load {
    pub samples: Vec<Sample>,
    /// Seconds from the window's start to its last reply.
    pub wall: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that got no reply (transport errors, replies still missing
    /// at the end of the drain).
    pub lost: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl Load {
    pub fn failed(&self) -> u64 {
        self.lost + self.samples.iter().filter(|s| !s.ok).count() as u64
    }

    /// Check every reply against its oracle. Runs after the window, so
    /// parsing replies costs the measured requests nothing.
    fn judge(&mut self, reqs: &[Req]) {
        for sample in &mut self.samples {
            let reply = std::mem::take(&mut sample.reply);
            (sample.ok, sample.timing) = judge(&reqs[sample.idx], &reply, &mut self.failures);
        }
    }

    fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.wall = self.wall.max(other.wall);
        self.attempted += other.attempted;
        self.lost += other.lost;
        for f in other.failures {
            note(&mut self.failures, f);
        }
    }
}

fn note(failures: &mut Vec<String>, f: String) {
    if failures.len() < 8 {
        failures.push(f);
    }
}

/// Check one reply line against its request's oracle.
fn judge(req: &Req, reply: &str, failures: &mut Vec<String>) -> (bool, Option<[u64; 3]>) {
    let verdict = layers::parse_json(reply).and_then(|v| {
        req.expect.check(&v)?;
        let t = |k| v.path(&["timing", k]).and_then(Value::as_u64);
        Ok(
            match (t("queue_micros"), t("exec_micros"), t("write_micros")) {
                (Some(q), Some(e), Some(w)) => Some([q, e, w]),
                _ => None,
            },
        )
    });
    match verdict {
        Ok(timing) => (true, timing),
        Err(e) => {
            note(failures, format!("{}: {e}", req.spec.op()));
            (false, None)
        }
    }
}

fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Send `lines[i]` for each `i` in order on one connection, waiting for
/// each reply: the warm-up pass.
pub fn sequential(addr: SocketAddr, reqs: &[Req], lines: &[String]) -> Load {
    let mut load = closed_conn(addr, lines, &mut (0..reqs.len()), None);
    load.judge(reqs);
    load
}

fn closed_conn(
    addr: SocketAddr,
    lines: &[String],
    order: &mut dyn Iterator<Item = usize>,
    deadline: Option<Instant>,
) -> Load {
    let mut load = Load::default();
    let stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            load.lost = 1;
            load.attempted = 1;
            note(&mut load.failures, format!("connect: {e}"));
            return load;
        }
    };
    let mut reader = BufReader::new(stream.try_clone().expect("clone a connected socket"));
    let mut writer = stream;
    let mut reply = String::new();
    for idx in order {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        load.attempted += 1;
        reply.clear();
        let sent = Instant::now();
        let io = writer
            .write_all(lines[idx].as_bytes())
            .and_then(|()| reader.read_line(&mut reply));
        let latency_ns = sent.elapsed().as_nanos() as u64;
        match io {
            Ok(n) if n > 0 => {
                load.samples
                    .push(Sample::new(idx, latency_ns, 0, std::mem::take(&mut reply)))
            }
            other => {
                load.lost += 1;
                note(&mut load.failures, format!("transport: {other:?}"));
                break;
            }
        }
    }
    load
}

/// Closed loop for `seconds` on `conns` connections. Each connection takes
/// the next unsent stream entry from `first` on, cycling, so the requests
/// served are a prefix of the stream whichever connection is faster.
pub fn closed(
    addr: SocketAddr,
    reqs: &[Req],
    lines: &[String],
    conns: usize,
    seconds: f64,
    first: usize,
) -> Load {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let cursor = AtomicUsize::new(first);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut order = std::iter::from_fn(|| {
                        Some(cursor.fetch_add(1, Ordering::Relaxed) % reqs.len())
                    });
                    let mut load = closed_conn(addr, lines, &mut order, Some(deadline));
                    load.wall = start.elapsed().as_secs_f64();
                    load
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("load thread panicked"));
        }
    });
    total.judge(reqs);
    total
}

/// Replies still missing this long after the last send count as lost.
const DRAIN: Duration = Duration::from_secs(10);
/// Longest idle nap between polls of an open-loop connection.
const NAP: Duration = Duration::from_micros(100);

/// Open loop: stream entry `first + k` goes at `schedule[k]` (seconds from
/// the start) on connection `k % conns`, pipelined.
pub fn open(
    addr: SocketAddr,
    reqs: &[Req],
    lines: &[String],
    conns: usize,
    schedule: &[f64],
    first: usize,
) -> Load {
    let start = Instant::now() + Duration::from_millis(5);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                let mine: Vec<(usize, Instant)> = schedule
                    .iter()
                    .enumerate()
                    .skip(c)
                    .step_by(conns)
                    .map(|(k, t)| {
                        (
                            (first + k) % reqs.len(),
                            start + Duration::from_secs_f64(*t),
                        )
                    })
                    .collect();
                s.spawn(move || {
                    let mut load = open_conn(addr, lines, &mine);
                    load.wall = start.elapsed().as_secs_f64();
                    load
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("load thread panicked"));
        }
    });
    total.judge(reqs);
    total
}

fn open_conn(addr: SocketAddr, lines: &[String], due: &[(usize, Instant)]) -> Load {
    let mut load = Load::default();
    let mut stream = match connect(addr).and_then(|s| s.set_nonblocking(true).map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            load.attempted = due.len() as u64;
            load.lost = due.len() as u64;
            note(&mut load.failures, format!("connect: {e}"));
            return load;
        }
    };
    // Sent requests awaiting replies, in order: (stream index, due, sent).
    let mut pending = std::collections::VecDeque::new();
    let mut inbox: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let mut next = 0;
    let mut drain_until = None;
    'run: loop {
        let now = Instant::now();
        while next < due.len() && due[next].1 <= now {
            let (idx, at) = due[next];
            if let Err(e) = write_fully(&mut stream, lines[idx].as_bytes()) {
                note(&mut load.failures, format!("transport: {e}"));
                break 'run;
            }
            pending.push_back((idx, at, Instant::now()));
            load.attempted += 1;
            next += 1;
        }
        let mut progressed = false;
        match stream.read(&mut chunk) {
            Ok(0) => {
                note(&mut load.failures, "transport: connection closed".into());
                break;
            }
            Ok(n) => {
                progressed = true;
                inbox.extend_from_slice(&chunk[..n]);
                let received = Instant::now();
                while let Some(end) = inbox.iter().position(|b| *b == b'\n') {
                    let line: Vec<u8> = inbox.drain(..=end).collect();
                    let Some((idx, at, sent)) = pending.pop_front() else {
                        note(&mut load.failures, "reply without a request".into());
                        continue;
                    };
                    load.samples.push(Sample::new(
                        idx,
                        received.duration_since(at).as_nanos() as u64,
                        sent.duration_since(at).as_nanos() as u64,
                        String::from_utf8_lossy(&line).into_owned(),
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                note(&mut load.failures, format!("transport: {e}"));
                break;
            }
        }
        if next == due.len() {
            if pending.is_empty() {
                break;
            }
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() >= until {
                break;
            }
        }
        if !progressed {
            let wait = due.get(next).map_or(NAP, |(_, at)| {
                at.saturating_duration_since(Instant::now()).min(NAP)
            });
            std::thread::sleep(wait);
        }
    }
    load.lost += pending.len() as u64 + (due.len() - next) as u64;
    load.attempted += (due.len() - next) as u64;
    load
}

fn write_fully(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(20))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
