//! Newline-delimited-JSON TCP transport: an **event-driven connection
//! loop** feeding a **bounded worker pool**, generic over the
//! [`LineHandler`] that answers each line. The daemon serves the
//! [`Engine`]; `sdlo-router` serves its proxy on the same loop, so both
//! get everything below from one implementation.
//!
//! ## Architecture
//!
//! One *reactor* thread owns the (non-blocking) listener and every open
//! connection, and sleeps in `poll(2)` until one of them, or a worker, has
//! something for it. Each wake-up it:
//!
//! 1. accepts new connections (until the OS says `WouldBlock`),
//! 2. drains worker completions into the owning connection's reorder
//!    buffer,
//! 3. per connection: reads and frames new request lines if the socket is
//!    readable — submitting each to the worker pool — then moves in-order
//!    responses into the write buffer and writes as many bytes as the
//!    socket takes.
//!
//! Workers wake the reactor by writing one byte to a socket pair it polls.
//! A connection is polled for reading only while the reactor would read
//! it, for writing only while it has unsent bytes, and not at all
//! otherwise, so a hung-up peer cannot keep `poll` returning. An idle
//! server does not wake.
//!
//! No thread is ever parked on one client, so thousands of mostly-idle
//! connections cost one thread plus their buffers — not a thread each.
//!
//! ## Backpressure & admission control
//!
//! The reactor-to-workers queue is a **bounded** `sync_channel`; when
//! `try_send` fails the request is rejected *immediately* with the
//! structured `overloaded` error envelope — the client's `id` and
//! `request_id` echoed — instead of stalling the socket (`stats.rejected`
//! counts these). Per connection, the reactor stops reading while the
//! write buffer is above `MAX_WRITE_BUFFER` (4 MiB), so a client
//! that pipelines faster than it drains responses is throttled by TCP flow
//! control rather than ballooning server memory.
//!
//! Requests on one connection may execute on different workers
//! concurrently (pipelining), but responses are written in request order:
//! each request carries a per-connection sequence number and completions
//! wait in a reorder buffer until their turn.
//!
//! ## Graceful drain
//!
//! Shutdown (the `{"op":"shutdown"}` request or
//! [`ServerHandle::shutdown`]) is a *drain*, not an abort: the listener
//! closes first (new connects are refused), no further request lines are
//! read, every request already submitted to the pool completes and its
//! response is flushed, and only then do connections close and the reactor
//! exit. [`ServerConfig::drain_timeout_ms`] bounds how long a stuck worker
//! can hold the drain open.
//!
//! ## Robustness
//!
//! Request lines are framed under a byte cap (oversized lines are
//! discarded and answered with `too_large`; the connection survives),
//! malformed JSON gets a structured error from the engine, a request whose
//! handler panics is answered with the `internal` error envelope by a
//! worker that lives on (`sdlo_worker_panics_total` counts these), and
//! `{"op":"metrics","raw":true}` is answered transport-side with the
//! Prometheus text exposition itself (not JSON) followed by EOF, so
//! `echo '{"op":"metrics","raw":true}' | nc host port` is a complete
//! scrape.

use crate::api::{self, ApiError, ErrorKind};
use crate::engine::{Engine, EngineConfig};
use crate::metrics::Metrics;
use crate::poll::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLOUT};
use sdlo_trace::flight::FlightRecorder;
use sdlo_trace::AttrValue;
use sdlo_wire::Value;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the transport serves: one request line in, one reply line out.
/// The reactor and the workers read nothing else of their handler.
pub trait LineHandler: Send + Sync + 'static {
    /// The `component` of the transport's log records.
    const COMPONENT: &'static str;

    /// Answer one line that waited `queue_micros` for a worker. With a
    /// [`RequestMeta`] the reactor accounts the write phase when the reply
    /// is written.
    fn handle_line_timed(&self, line: &str, queue_micros: u64) -> (String, Option<RequestMeta>);

    /// The counters and histograms the transport updates.
    fn metrics(&self) -> Arc<Metrics>;

    /// The flight recorder the write phase amends and the drain flushes.
    fn flight(&self) -> Arc<FlightRecorder>;

    /// The Prometheus text a raw scrape answers with.
    fn prometheus(&self) -> String;

    /// A request id for a transport-side reply (an error envelope or the
    /// shutdown acknowledgement) whose request carried none.
    fn next_request_id(&self) -> String;

    /// The handler's own fields of the final `drain.summary` record.
    fn drain_fields(&self) -> Vec<(&'static str, AttrValue)>;
}

/// Per-request facts the transport needs *after* the reply text exists: the
/// flight-recorder ticket (to amend the write phase in), the request's root
/// span (to parent fabricated phase spans under) and whether the reply
/// carries an opt-in `timing` object the reactor should complete.
#[derive(Debug, Clone, Copy)]
pub struct RequestMeta {
    pub flight_ticket: u64,
    pub root_span: Option<u64>,
    pub server_timing: bool,
}

/// Transport configuration wrapped around an [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads executing requests. Defaults to the machine's
    /// available parallelism: requests are CPU-bound, so more workers than
    /// cores add memory (each thread gets its own malloc arena), not
    /// throughput.
    pub workers: usize,
    /// Bounded queue depth between the reactor and the workers; beyond it
    /// requests are rejected with `overloaded`.
    pub queue: usize,
    /// Maximum accepted request line length in bytes.
    pub max_line_bytes: usize,
    /// Upper bound on how long a drain waits for in-flight requests before
    /// closing connections anyway.
    pub drain_timeout_ms: u64,
    pub engine: EngineConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue: 64,
            max_line_bytes: 1 << 20,
            drain_timeout_ms: 10_000,
            engine: EngineConfig::default(),
        }
    }
}

/// Per-connection write-buffer cap: the reactor stops reading new requests
/// from a connection whose unsent responses exceed this, so TCP flow
/// control throttles the client instead of server memory.
const MAX_WRITE_BUFFER: usize = 4 << 20;

/// One request on its way to the worker pool.
struct Job {
    slot: usize,
    generation: u64,
    seq: u64,
    line: String,
    /// Trace-clock timestamp when the reactor queued the job; the worker's
    /// pickup minus this is the queue phase.
    submitted_micros: u64,
}

/// One finished response on its way back to the reactor.
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    text: String,
    /// Plain-text payload (raw Prometheus scrape): written without JSON
    /// framing and the connection closes once flushed.
    raw: bool,
    /// Engine-side facts for the write-phase accounting; `None` for
    /// transport-side completions (rejections, shutdown acks, raw scrapes).
    meta: Option<RequestMeta>,
    /// Phase boundaries on the trace clock: queued, picked up by a worker,
    /// engine finished. The reactor adds the flush time when it writes.
    submitted_micros: u64,
    picked_micros: u64,
    done_micros: u64,
}

impl Completion {
    /// A response the reactor produces itself (rejections, shutdown acks,
    /// raw scrapes): no engine phases to account.
    fn transport(slot: usize, generation: u64, seq: u64, text: String, raw: bool) -> Completion {
        Completion {
            slot,
            generation,
            seq,
            text,
            raw,
            meta: None,
            submitted_micros: 0,
            picked_micros: 0,
            done_micros: 0,
        }
    }
}

/// The reactor's doorbell: a socket pair whose read end it polls. Workers
/// ring it once per completion and [`ServerHandle::shutdown`] once to start
/// a drain. Both ends share one owner so a late ring never hits a closed
/// peer.
struct Wake {
    rx: UnixStream,
    tx: UnixStream,
}

impl Wake {
    fn new() -> std::io::Result<Wake> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(Wake { rx, tx })
    }

    /// A full buffer means wake-ups are already pending, so a failed write
    /// loses nothing.
    fn ring(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Consume pending rings.
    fn clear(&self) {
        let mut buf = [0u8; 256];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Handle to a running server; dropping it does *not* stop the server —
/// call [`shutdown`](ServerHandle::shutdown) (or send `{"op":"shutdown"}`).
pub struct ServerHandle<H = Engine> {
    addr: SocketAddr,
    handler: Arc<H>,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    job_tx: Option<SyncSender<Job>>,
}

impl ServerHandle {
    pub fn engine(&self) -> Arc<Engine> {
        Arc::clone(&self.handler)
    }

    pub fn metrics(&self) -> Arc<Metrics> {
        self.handler.metrics()
    }
}

impl<H: LineHandler> ServerHandle<H> {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown request has been received.
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Initiate a drain and block until it completes: stop accepting,
    /// finish every request already submitted, flush every response, close
    /// connections, join the reactor and the workers.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.ring();
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        // Workers exit when every job sender is gone (the reactor's clone
        // dropped when it exited).
        drop(self.job_tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Block until a `{"op":"shutdown"}` request arrives and the drain
    /// completes (the server binary's main loop).
    pub fn run_until_shutdown(mut self) {
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        self.shutdown();
    }
}

/// Bind and serve an [`Engine`] built from `config.engine`. Returns once
/// the listener is bound; all work happens on background threads.
pub fn serve(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let engine = Arc::new(Engine::new(config.engine.clone()));
    serve_with(config, engine)
}

/// Bind and serve `handler` with `config`'s transport settings (its
/// `engine` field is not read).
pub fn serve_with<H: LineHandler>(
    config: ServerConfig,
    handler: Arc<H>,
) -> std::io::Result<ServerHandle<H>> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(Wake::new()?);

    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(config.queue.max(1));
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let job_rx = Arc::clone(&job_rx);
            let handler = Arc::clone(&handler);
            let done_tx = done_tx.clone();
            let wake = Arc::clone(&wake);
            let metrics = handler.metrics();
            std::thread::spawn(move || loop {
                let job = match job_rx.lock().unwrap().recv() {
                    Ok(j) => j,
                    Err(_) => break,
                };
                let completion = run_job(&*handler, &metrics, job);
                let _ = done_tx.send(completion);
                wake.ring();
            })
        })
        .collect();
    drop(done_tx);

    let reactor = {
        let stop = Arc::clone(&stop);
        let handler = Arc::clone(&handler);
        let wake = Arc::clone(&wake);
        let job_tx = job_tx.clone();
        let config = config.clone();
        Some(std::thread::spawn(move || {
            Reactor::new(listener, handler, stop, wake, job_tx, done_rx, config).run();
        }))
    };

    sdlo_trace::log::info(
        H::COMPONENT,
        "server.started",
        &[
            ("addr", AttrValue::Str(addr.to_string())),
            ("workers", AttrValue::UInt(config.workers.max(1) as u64)),
            ("queue", AttrValue::UInt(config.queue.max(1) as u64)),
        ],
    );
    Ok(ServerHandle {
        addr,
        handler,
        stop,
        wake,
        reactor,
        workers,
        job_tx: Some(job_tx),
    })
}

/// One job on a worker. A panic inside the handler is caught here: the
/// request gets the `internal` error envelope under its own sequence
/// number, and the worker goes on to the next job.
fn run_job<H: LineHandler>(handler: &H, metrics: &Metrics, job: Job) -> Completion {
    let picked_micros = sdlo_trace::now_micros();
    let queue_micros = picked_micros.saturating_sub(job.submitted_micros);
    metrics.queue_wait.observe_micros(queue_micros);
    let handled = std::panic::catch_unwind(AssertUnwindSafe(|| {
        handler.handle_line_timed(&job.line, queue_micros)
    }));
    let (text, meta) = handled.unwrap_or_else(|payload| {
        metrics.worker_panics.fetch_add(1, Ordering::Relaxed);
        let cause = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        sdlo_trace::log::error(
            H::COMPONENT,
            "worker.panic",
            &[("cause", AttrValue::Str(cause))],
        );
        let request = sdlo_wire::parse(&job.line).ok();
        let text = error_line(
            handler,
            request.as_ref(),
            ErrorKind::Internal,
            "the request failed inside the server",
        );
        (text, None)
    });
    metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
    Completion {
        slot: job.slot,
        generation: job.generation,
        seq: job.seq,
        text,
        raw: false,
        meta,
        submitted_micros: job.submitted_micros,
        picked_micros,
        done_micros: sdlo_trace::now_micros(),
    }
}

/// Transport-side failures use the same unified error envelope as engine
/// failures. `id` and `request_id` are echoed when the offending line
/// parsed far enough to carry them, so rejected clients can still
/// correlate.
fn error_line<H: LineHandler>(
    handler: &H,
    request: Option<&Value>,
    kind: ErrorKind,
    message: &str,
) -> String {
    let (id, request_id) = api::correlation(request, || handler.next_request_id());
    api::error_reply(id, &request_id, &ApiError::new(kind, message)).render()
}

/// Per-connection state owned by the reactor.
struct Conn {
    stream: TcpStream,
    /// Reused slot marker: completions for an earlier tenant of this slot
    /// carry a stale generation and are dropped.
    generation: u64,
    /// Partial-line accumulator (bytes read but not yet newline-framed).
    acc: Vec<u8>,
    /// Currently discarding an oversized line (until its newline).
    overflowed: bool,
    /// Unsent response bytes plus the cursor of what is already written.
    out: Vec<u8>,
    out_cursor: usize,
    /// Sequence number for the next submitted request.
    next_seq: u64,
    /// Sequence number of the next response to write.
    next_write: u64,
    /// Completions that arrived out of order, keyed by sequence number.
    reorder: BTreeMap<u64, Completion>,
    /// Peer closed its write side (EOF seen); flush what remains and
    /// retire.
    read_closed: bool,
    /// Close once the write buffer drains (raw Prometheus scrape).
    close_after_flush: bool,
    /// Socket error: retire immediately.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            acc: Vec::new(),
            overflowed: false,
            out: Vec::new(),
            out_cursor: 0,
            next_seq: 0,
            next_write: 0,
            reorder: BTreeMap::new(),
            read_closed: false,
            close_after_flush: false,
            dead: false,
        }
    }

    /// Requests submitted whose responses are not yet fully ordered into
    /// the write buffer.
    fn in_flight(&self) -> u64 {
        self.next_seq - self.next_write
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_cursor
    }
}

/// Fixed entries at the front of the reactor's poll set; connection `slot`
/// is entry `CONN_BASE + slot`.
const WAKE_ENTRY: usize = 0;
const LISTENER_ENTRY: usize = 1;
const CONN_BASE: usize = 2;

struct Reactor<H> {
    listener: Option<TcpListener>,
    handler: Arc<H>,
    metrics: Arc<Metrics>,
    stop: Arc<AtomicBool>,
    wake: Arc<Wake>,
    job_tx: SyncSender<Job>,
    done_rx: Receiver<Completion>,
    config: ServerConfig,
    conns: Vec<Option<Conn>>,
    generation: u64,
    /// The poll set of the last wait, with its readiness results.
    fds: Vec<PollFd>,
}

impl<H: LineHandler> Reactor<H> {
    fn new(
        listener: TcpListener,
        handler: Arc<H>,
        stop: Arc<AtomicBool>,
        wake: Arc<Wake>,
        job_tx: SyncSender<Job>,
        done_rx: Receiver<Completion>,
        config: ServerConfig,
    ) -> Reactor<H> {
        let metrics = handler.metrics();
        Reactor {
            listener: Some(listener),
            handler,
            metrics,
            stop,
            wake,
            job_tx,
            done_rx,
            config,
            conns: Vec::new(),
            generation: 0,
            fds: Vec::new(),
        }
    }

    fn run(mut self) {
        let mut draining_since: Option<Instant> = None;
        loop {
            if self.ready(LISTENER_ENTRY, POLLIN) {
                self.accept_ready();
            }
            // Clear rings before draining completions: every ring consumed
            // here belongs to a completion already in the channel.
            if self.ready(WAKE_ENTRY, POLLIN) {
                self.wake.clear();
            }
            self.drain_completions();

            for slot in 0..self.conns.len() {
                if let Some(mut conn) = self.conns[slot].take() {
                    let readable = self.ready(CONN_BASE + slot, POLLIN | POLLHUP | POLLERR);
                    self.service_conn(slot, &mut conn, readable);
                    if self.should_retire(&conn) {
                        self.metrics
                            .connections_active
                            .fetch_sub(1, Ordering::SeqCst);
                    } else {
                        self.conns[slot] = Some(conn);
                    }
                }
            }

            if self.stop.load(Ordering::SeqCst) {
                // Drain begins: the listener closes (connects are now
                // refused) and no further request lines are read.
                self.listener = None;
                draining_since.get_or_insert_with(Instant::now);
            }
            let mut timeout = None;
            if let Some(since) = draining_since {
                let idle = self
                    .conns
                    .iter()
                    .flatten()
                    .all(|c| c.in_flight() == 0 && c.unsent() == 0);
                let left = Duration::from_millis(self.config.drain_timeout_ms)
                    .saturating_sub(since.elapsed());
                let expired = left.is_zero();
                if idle || expired {
                    // Flight-recorder flush + final summary: the last thing
                    // the process says before connections drop and clients
                    // see EOF after their last response.
                    self.drain_summary(since, expired);
                    return;
                }
                timeout = Some(left);
            }
            self.wait(timeout);
        }
    }

    /// Whether the last wait reported any of `mask` on poll entry `entry`.
    /// Entries added since (fresh connections) are not ready yet.
    fn ready(&self, entry: usize, mask: std::os::raw::c_short) -> bool {
        self.fds.get(entry).is_some_and(|fd| fd.ready(mask))
    }

    /// Whether the reactor reads this connection: only while running (a
    /// drain submits no new work) and only while the peer is keeping up
    /// with its responses.
    fn wants_read(&self, conn: &Conn) -> bool {
        !self.stop.load(Ordering::SeqCst)
            && !conn.read_closed
            && !conn.dead
            && !conn.close_after_flush
            && conn.unsent() <= MAX_WRITE_BUFFER
    }

    /// Block until a socket the reactor has business with is ready, a
    /// worker rings, or `timeout` (the drain deadline) passes. A connection
    /// with nothing to read or write is left out of the set, so its
    /// hang-up cannot wake the loop.
    fn wait(&mut self, timeout: Option<Duration>) {
        let mut fds = std::mem::take(&mut self.fds);
        fds.clear();
        fds.push(PollFd::new(Some(self.wake.rx.as_raw_fd()), POLLIN));
        fds.push(PollFd::new(
            self.listener.as_ref().map(AsRawFd::as_raw_fd),
            POLLIN,
        ));
        for conn in &self.conns {
            let mut events = 0;
            if let Some(conn) = conn {
                if self.wants_read(conn) {
                    events |= POLLIN;
                }
                if conn.unsent() > 0 {
                    events |= POLLOUT;
                }
            }
            let fd = conn.as_ref().filter(|_| events != 0);
            fds.push(PollFd::new(fd.map(|c| c.stream.as_raw_fd()), events));
        }
        if let Err(e) = poll::wait(&mut fds, timeout) {
            // Not expected beyond EINTR. Try every entry as if ready, and
            // pace the loop so a persistent failure cannot spin it.
            for fd in &mut fds {
                fd.assume_ready();
            }
            if e.kind() != std::io::ErrorKind::Interrupted {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.fds = fds;
        self.metrics.reactor_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Flush the flight recorder and emit the final `drain.summary` record:
    /// requests served, overloads, the handler's own fields, flight counts.
    /// Slow captures still retained at drain time get one record each —
    /// they would otherwise die with the process.
    fn drain_summary(&self, draining_since: Instant, expired: bool) {
        use std::sync::atomic::Ordering::Relaxed;
        let served: u64 = self
            .metrics
            .ops()
            .map(|(_, s)| s.requests.load(Relaxed))
            .sum();
        let flight = self.handler.flight();
        for capture in flight.slow() {
            sdlo_trace::log::info(
                H::COMPONENT,
                "drain.slow_request",
                &[
                    ("op", AttrValue::Str(capture.record.op.clone())),
                    (
                        "request_id",
                        AttrValue::Str(capture.record.request_id.clone()),
                    ),
                    ("total_micros", AttrValue::UInt(capture.record.total_micros)),
                ],
            );
        }
        let mut fields = vec![
            ("requests_served", AttrValue::UInt(served)),
            (
                "overloads",
                AttrValue::UInt(self.metrics.rejected.load(Relaxed)),
            ),
        ];
        fields.extend(self.handler.drain_fields());
        fields.extend([
            ("flight_recorded", AttrValue::UInt(flight.pushed())),
            ("slow_captures", AttrValue::UInt(flight.slow().len() as u64)),
            (
                "drain_millis",
                AttrValue::UInt(draining_since.elapsed().as_millis() as u64),
            ),
            ("timed_out", AttrValue::Bool(expired)),
        ]);
        sdlo_trace::log::info(H::COMPONENT, "drain.summary", &fields);
    }

    /// Accept every connection the listener has ready.
    fn accept_ready(&mut self) {
        while let Some(listener) = self.listener.as_ref() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.metrics.connections.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .connections_active
                        .fetch_add(1, Ordering::SeqCst);
                    self.generation += 1;
                    let conn = Conn::new(stream, self.generation);
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Move every completed response into its connection's reorder buffer.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.done_rx.try_recv() {
            if let Some(conn) = self.conns.get_mut(completion.slot).and_then(Option::as_mut) {
                if conn.generation == completion.generation {
                    conn.reorder.insert(completion.seq, completion);
                }
            }
        }
    }

    /// One wake-up's work for one connection: read if the socket is
    /// readable, then order responses and write. Anything left unsent is
    /// polled for writability before the next wait.
    fn service_conn(&mut self, slot: usize, conn: &mut Conn, readable: bool) {
        if readable && self.wants_read(conn) {
            self.read_ready(slot, conn);
        }

        // Responses whose turn has come move into the write buffer.
        while let Some(mut completion) = conn.reorder.remove(&conn.next_write) {
            conn.next_write += 1;
            if let Some(meta) = completion.meta {
                self.account_write_phase(&mut completion, meta);
            }
            conn.out.extend_from_slice(completion.text.as_bytes());
            if completion.raw {
                conn.close_after_flush = true;
            } else {
                conn.out.push(b'\n');
            }
        }

        if conn.unsent() > 0 {
            self.write_ready(conn);
        }
    }

    /// The write phase ends here: the reply's turn in the response order
    /// has come and its bytes enter the write buffer. Observe the phase
    /// histogram, amend the flight record, complete the opt-in `timing`
    /// object in the reply text, and — when tracing — fabricate the
    /// queue/exec/write phase spans under the request's root span.
    fn account_write_phase(&self, completion: &mut Completion, meta: RequestMeta) {
        let now = sdlo_trace::now_micros();
        let write_micros = now.saturating_sub(completion.done_micros);
        self.metrics.write.observe_micros(write_micros);
        self.handler
            .flight()
            .amend_write(meta.flight_ticket, write_micros);
        if meta.server_timing {
            // The handler appended `timing` as the *last* body field, so the
            // reply ends `…,"timing":{…}}` — splice the write phase in just
            // before the two closing braces.
            if completion.text.rfind("\"timing\":{").is_some() && completion.text.ends_with("}}") {
                let at = completion.text.len() - 2;
                completion
                    .text
                    .insert_str(at, &format!(",\"write_micros\":{write_micros}"));
            }
        }
        if let Some(root) = meta.root_span {
            sdlo_trace::record_span_at(
                "request.queue",
                Some(root),
                completion.submitted_micros,
                completion.picked_micros,
            );
            sdlo_trace::record_span_at(
                "request.exec",
                Some(root),
                completion.picked_micros,
                completion.done_micros,
            );
            sdlo_trace::record_span_at("request.write", Some(root), completion.done_micros, now);
        }
    }

    /// Write as much of the pending output as the socket accepts.
    fn write_ready(&self, conn: &mut Conn) {
        while conn.out_cursor < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_cursor..]) {
                Ok(0) => {
                    conn.dead = true;
                    break;
                }
                Ok(n) => conn.out_cursor += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
        if conn.out_cursor == conn.out.len() && !conn.out.is_empty() {
            conn.out.clear();
            conn.out_cursor = 0;
        } else if conn.out_cursor > (64 << 10) {
            conn.out.drain(..conn.out_cursor);
            conn.out_cursor = 0;
        }
    }

    /// Read whatever the socket has, frame complete lines, submit them.
    fn read_ready(&mut self, slot: usize, conn: &mut Conn) {
        let mut scratch = [0u8; 16 << 10];
        loop {
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.ingest(slot, conn, &scratch[..n]);
                    // Stop reading the moment backpressure engages.
                    if conn.unsent() > MAX_WRITE_BUFFER || conn.close_after_flush {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Append freshly read bytes to the accumulator and dispatch every
    /// complete line, honoring the per-line byte cap.
    fn ingest(&mut self, slot: usize, conn: &mut Conn, mut bytes: &[u8]) {
        let cap = self.config.max_line_bytes;
        while let Some(pos) = bytes.iter().position(|b| *b == b'\n') {
            let (head, rest) = bytes.split_at(pos);
            bytes = &rest[1..];
            if conn.overflowed {
                conn.overflowed = false;
                conn.acc.clear();
                self.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                let text = error_line(
                    &*self.handler,
                    None,
                    ErrorKind::TooLarge,
                    &format!("request line exceeds {cap} bytes"),
                );
                self.complete_inline(slot, conn, text, false);
                continue;
            }
            if conn.acc.len() + head.len() > cap {
                conn.acc.clear();
                self.metrics.oversized.fetch_add(1, Ordering::Relaxed);
                let text = error_line(
                    &*self.handler,
                    None,
                    ErrorKind::TooLarge,
                    &format!("request line exceeds {cap} bytes"),
                );
                self.complete_inline(slot, conn, text, false);
                continue;
            }
            let line = if conn.acc.is_empty() {
                String::from_utf8_lossy(head).into_owned()
            } else {
                conn.acc.extend_from_slice(head);
                let l = String::from_utf8_lossy(&conn.acc).into_owned();
                conn.acc.clear();
                l
            };
            self.submit(slot, conn, line);
            if conn.close_after_flush {
                return;
            }
        }
        if conn.overflowed {
            return;
        }
        if conn.acc.len() + bytes.len() > cap {
            conn.overflowed = true;
            conn.acc.clear();
        } else {
            conn.acc.extend_from_slice(bytes);
        }
    }

    /// Dispatch one framed request line: transport fast paths, then the
    /// bounded worker queue with immediate `overloaded` rejection.
    fn submit(&mut self, slot: usize, conn: &mut Conn, line: String) {
        if line.trim().is_empty() {
            return;
        }
        // Raw Prometheus scrape: answered transport-side as plain text (a
        // scraper can't frame a JSON envelope), then the connection closes
        // so the reader sees EOF — `nc`-friendly. Parse only when the
        // token appears so the hot path stays a substring check.
        if line.contains("metrics") {
            if let Ok(v) = sdlo_wire::parse(&line) {
                if v.get("op").and_then(Value::as_str) == Some("metrics")
                    && v.get("raw").and_then(Value::as_bool) == Some(true)
                {
                    let started = Instant::now();
                    let text = self.handler.prometheus();
                    let metrics_slot = crate::ops::find("metrics").0;
                    let micros = started.elapsed().as_micros() as u64;
                    self.metrics.op(metrics_slot).record(micros, true);
                    self.complete_inline(slot, conn, text, true);
                    return;
                }
            }
        }
        // Shutdown is handled transport-side so it works even when the
        // worker queue is saturated. Parse only when the token appears.
        if line.contains("shutdown") {
            if let Ok(v) = sdlo_wire::parse(&line) {
                if v.get("op").and_then(Value::as_str) == Some("shutdown") {
                    self.stop.store(true, Ordering::SeqCst);
                    let (id, request_id) =
                        api::correlation(Some(&v), || self.handler.next_request_id());
                    let body = vec![("stopping", Value::from(true))];
                    let text = api::reply(id, &request_id, body).render();
                    self.complete_inline(slot, conn, text, false);
                    return;
                }
            }
        }
        let seq = conn.next_seq;
        conn.next_seq += 1;
        self.metrics.queue_depth.fetch_add(1, Ordering::SeqCst);
        match self.job_tx.try_send(Job {
            slot,
            generation: conn.generation,
            seq,
            line,
            submitted_micros: sdlo_trace::now_micros(),
        }) {
            Ok(()) => {}
            Err(TrySendError::Full(job)) => {
                self.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
                self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                // Admission control: reject now, echoing the client's
                // correlation ids so the retry logic can match this reply
                // to its request.
                let parsed = sdlo_wire::parse(&job.line).ok();
                let text = error_line(
                    &*self.handler,
                    parsed.as_ref(),
                    ErrorKind::Overloaded,
                    "request queue is full, retry later",
                );
                conn.reorder.insert(
                    seq,
                    Completion::transport(slot, conn.generation, seq, text, false),
                );
            }
            Err(TrySendError::Disconnected(_)) => {
                self.metrics.queue_depth.fetch_sub(1, Ordering::SeqCst);
                conn.dead = true;
            }
        }
    }

    /// Register a transport-side response under the connection's response
    /// ordering (it still queues behind earlier in-flight requests).
    fn complete_inline(&self, slot: usize, conn: &mut Conn, text: String, raw: bool) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.reorder.insert(
            seq,
            Completion::transport(slot, conn.generation, seq, text, raw),
        );
    }

    /// A connection retires once nothing more can or should be said on it.
    fn should_retire(&self, conn: &Conn) -> bool {
        if conn.dead {
            return true;
        }
        let flushed = conn.in_flight() == 0 && conn.unsent() == 0 && conn.reorder.is_empty();
        (conn.read_closed || conn.close_after_flush) && flushed
    }
}
