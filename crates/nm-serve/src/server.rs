//! TCP front end: newline-delimited JSON over `std::net`.
//!
//! A supervised accept loop hands each connection to a handler thread;
//! a connection-slot semaphore bounds concurrency, and each request
//! gets a deadline that propagates into the engine — a slow or broken
//! pass degrades to a structured reply instead of wedging the client.
//!
//! Framing is defensive: oversized frames, torn frames (EOF mid-line),
//! idle timeouts, and non-UTF-8 bytes all get a structured protocol
//! error (with a machine-readable `code`) and a counter bump — never a
//! silent drop.

use crate::chaos::Deadline;
use crate::engine::Engine;
use crate::protocol::{self, Request};
use crate::reqtrace::DegradedKind;
use crate::snapshot::Snapshot;
use nm_obs::json::Json;
use nm_sync::backend::lock_recover;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Max concurrently served connections; excess block in accept.
    pub max_conns: usize,
    /// Per-request deadline, propagated into the engine; past it the
    /// request degrades (stale cache or empty) instead of waiting.
    pub deadline: Duration,
    /// Read timeout on idle client connections.
    pub idle_timeout: Duration,
    /// Largest accepted request frame (bytes, excluding the newline);
    /// longer frames get an `oversized` error and the connection closes.
    pub max_frame_bytes: usize,
    /// Deterministic telemetry tick source: when non-zero, every
    /// `sample_every`-th completed request records a flight-recorder
    /// tick. Keyed to the request ordinal, not wall clock, so a seeded
    /// workload produces a byte-identical recorded series.
    pub sample_every: u64,
    /// Production telemetry tick source: when set, a sampler thread
    /// records a tick every interval on the monotonic clock. Intended
    /// for long-lived `nmcdr serve` processes; tests and chaos drills
    /// use `sample_every` instead so series stay deterministic.
    pub sample_interval: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_conns: 64,
            deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(60),
            max_frame_bytes: 64 * 1024,
            sample_every: 0,
            sample_interval: None,
        }
    }
}

/// Accept-loop restarts allowed before giving up (the loop is not
/// expected to panic; the budget is a backstop against a panic that
/// recurs on every incarnation).
const ACCEPT_RESTART_BUDGET: u32 = 5;

/// Counting semaphore for connection slots (also used to drain on
/// stop). The check-and-claim core is [`nm_sync::ConnGate`]: the
/// accept loop sheds load when `try_acquire` returns false instead of
/// blocking, so a burst of connections cannot wedge accepts for
/// well-behaved clients. `nmcdr check` model-checks this same gate
/// code under its virtual backend.
type ConnSlots = nm_sync::ConnGate<nm_sync::StdBackend>;

struct Shared {
    engine: Arc<Engine>,
    cfg: ServerConfig,
    stopping: AtomicBool,
    slots: ConnSlots,
    addr: Mutex<Option<SocketAddr>>,
    /// Connection ordinal, used as a chaos draw coordinate so injected
    /// wire faults are keyed to (connection, request), not wall clock.
    conn_seq: AtomicU64,
    /// Completed-request ordinal across all connections: the logical
    /// tick source when `sample_every` is set.
    req_ordinal: AtomicU64,
    /// Live connections, so stop() can unblock handlers parked in
    /// read instead of draining at the mercy of the idle timeout.
    conns: Mutex<Vec<(u64, TcpStream)>>,
}

impl Shared {
    fn drop_conn(&self, id: u64) {
        lock_recover(&self.conns).retain(|(cid, _)| *cid != id);
    }
}

/// A running server. Dropping it (or calling [`Server::stop`]) shuts
/// the listener down and drains in-flight connections.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    sampler_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `bind` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept loop.
    pub fn start(engine: Arc<Engine>, bind: &str, cfg: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            slots: ConnSlots::new(cfg.max_conns),
            cfg,
            stopping: AtomicBool::new(false),
            addr: Mutex::new(Some(addr)),
            conn_seq: AtomicU64::new(0),
            req_ordinal: AtomicU64::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("nm-serve-accept".into())
            .spawn(move || supervised_accept(listener, accept_shared))?;
        let sampler_thread = match shared.cfg.sample_interval {
            Some(interval) if !interval.is_zero() => {
                let sampler_shared = Arc::clone(&shared);
                Some(
                    thread::Builder::new()
                        .name("nm-serve-sampler".into())
                        .spawn(move || sampler_loop(sampler_shared, interval))?,
                )
            }
            _ => None,
        };
        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            sampler_thread,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a `shutdown` request has been received.
    pub fn is_stopping(&self) -> bool {
        self.shared.stopping.load(Ordering::Acquire)
    }

    /// Blocks until the accept loop exits (after a `shutdown` request
    /// or [`Server::stop`]).
    pub fn wait(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.slots.wait_idle();
        // By here the accept loop has exited, which only happens with
        // the stop flag set — the sampler observes it and exits too.
        self.shared.stopping.store(true, Ordering::Release);
        if let Some(t) = self.sampler_thread.take() {
            let _ = t.join();
        }
    }

    /// Initiates shutdown and drains: stops accepting, wakes the accept
    /// loop with a loopback connection, and waits for in-flight
    /// connections to finish.
    pub fn stop(&mut self) {
        self.shared.stopping.store(true, Ordering::Release);
        // The accept loop blocks in accept(); poke it so it re-checks
        // the flag. Error is fine — it may have already exited.
        let _ = TcpStream::connect(self.addr);
        // Unblock handlers parked in read on open client connections;
        // without this, drain waits out the idle timeout per handler.
        for (_, s) in lock_recover(&self.shared.conns).iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
        self.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Supervises [`accept_loop`]: a panic there (never expected, but the
/// one thread whose death would silently stop all service) restarts
/// the loop on a clone of the listener, with seeded backoff, up to
/// [`ACCEPT_RESTART_BUDGET`] times.
fn supervised_accept(listener: TcpListener, shared: Arc<Shared>) {
    let mut restarts: u32 = 0;
    loop {
        let incarnation = match listener.try_clone() {
            Ok(l) => l,
            Err(_) => break,
        };
        let loop_shared = Arc::clone(&shared);
        let exit = catch_unwind(AssertUnwindSafe(|| accept_loop(incarnation, loop_shared)));
        if exit.is_ok() || shared.stopping.load(Ordering::Acquire) {
            // accept_loop only returns on stop; a panic after the stop
            // flag is set is also a clean exit.
            break;
        }
        if restarts >= ACCEPT_RESTART_BUDGET {
            nm_obs::trace::event("serve.quarantine", |e| {
                e.s("child", "accept").u("restarts", restarts as u64);
            });
            break;
        }
        restarts += 1;
        shared.engine.stats().accept_restarts.inc();
        nm_obs::trace::event("serve.restart", |e| {
            e.s("child", "accept").u("attempt", restarts as u64);
        });
        thread::sleep(crate::chaos::seeded_backoff(
            Duration::from_millis(1),
            Duration::from_millis(50),
            restarts,
            0,
            0xACCE97,
        ));
    }
}

/// Production tick source: records a flight-recorder tick every
/// `interval`, sleeping in short chunks so stop() is observed promptly.
fn sampler_loop(shared: Arc<Shared>, interval: Duration) {
    let chunk = Duration::from_millis(50).min(interval);
    let mut elapsed = Duration::ZERO;
    while !shared.stopping.load(Ordering::Acquire) {
        thread::sleep(chunk);
        elapsed += chunk;
        if elapsed >= interval {
            elapsed = Duration::ZERO;
            shared.engine.tick_telemetry();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.stopping.load(Ordering::Acquire) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        if !shared.slots.try_acquire() {
            // Saturated: shed this connection with a structured error
            // rather than stalling the accept loop behind a slot.
            let stats = shared.engine.stats();
            stats.shed.inc();
            stats.errors.inc();
            let msg = protocol::encode_error(&format!(
                "overloaded: {} connections already active, retry later",
                shared.cfg.max_conns
            ));
            let _ = send_line(&stream, msg);
            continue;
        }
        if shared.stopping.load(Ordering::Acquire) {
            shared.slots.release();
            break;
        }
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_recover(&shared.conns).push((conn_id, clone));
        }
        let conn_shared = Arc::clone(&shared);
        let spawned = thread::Builder::new()
            .name("nm-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &conn_shared, conn_id);
                conn_shared.drop_conn(conn_id);
                conn_shared.slots.release();
            });
        if spawned.is_err() {
            shared.drop_conn(conn_id);
            shared.slots.release();
        }
    }
}

/// Sends one reply line: `msg` and its `\n` in one buffer, with one
/// `write_all`. Every line the server sends goes through here. Written
/// as two pieces, the newline would wait behind the unacknowledged
/// message under Nagle's algorithm until the peer's delayed ACK fires,
/// about 40 ms later. Error replies ignore the result: the peer may
/// already be gone.
fn send_line(mut stream: &TcpStream, mut msg: String) -> std::io::Result<()> {
    msg.push('\n');
    stream.write_all(msg.as_bytes())
}

fn handle_connection(stream: TcpStream, shared: &Shared, conn: u64) -> std::io::Result<()> {
    stream.set_read_timeout(Some(shared.cfg.idle_timeout))?;
    // A reply longer than one segment must not wait for an ACK before
    // its last, partial segment goes out. Without the option the
    // connection still works, only slower, so a failure is ignored.
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let stats = shared.engine.stats();
    let mut req_no: u64 = 0;
    let max = shared.cfg.max_frame_bytes.max(1);
    loop {
        // Manual framing instead of `lines()`: a bounded read that can
        // tell apart clean EOF, torn frames, oversized frames, idle
        // timeouts, and bad UTF-8 — each gets a structured error.
        let mut buf: Vec<u8> = Vec::new();
        let n = match (&mut reader)
            .take(max as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                stats.errors.inc();
                stats.proto_timeouts.inc();
                let _ = send_line(
                    &writer,
                    protocol::encode_proto_error(
                        "timeout",
                        "idle timeout: no complete frame arrived in time; closing",
                    ),
                );
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Ok(()); // clean EOF between frames
        }
        if buf.last() != Some(&b'\n') {
            // No newline: either the frame outgrew the limit (the
            // `take` cap fired) or the peer hung up mid-frame.
            stats.errors.inc();
            let msg = if n > max {
                stats.proto_oversized.inc();
                protocol::encode_proto_error(
                    "oversized",
                    &format!("frame exceeds {max} bytes; closing"),
                )
            } else {
                stats.proto_torn.inc();
                protocol::encode_proto_error("torn", "connection closed mid-frame")
            };
            let _ = send_line(&writer, msg);
            return Ok(());
        }
        let line = match String::from_utf8(buf) {
            Ok(s) => s,
            Err(_) => {
                stats.requests.inc();
                stats.errors.inc();
                stats.proto_malformed.inc();
                let _ = send_line(
                    &writer,
                    protocol::encode_proto_error("malformed", "frame is not valid UTF-8"),
                );
                continue; // framing is intact; keep the connection
            }
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        req_no += 1;
        // Chaos: a torn read truncates the frame before parsing, so the
        // parser must absorb an arbitrary prefix of a valid request.
        let torn_line;
        let effective = match shared.engine.chaos() {
            Some(chaos) if chaos.torn_read(conn, req_no) => {
                let mut cut = line.len() / 2;
                while cut > 0 && !line.is_char_boundary(cut) {
                    cut -= 1;
                }
                torn_line = &line[..cut];
                torn_line
            }
            _ => line,
        };
        let req_sw = nm_obs::clock::Stopwatch::start();
        let (response, shutdown) = dispatch(effective, shared, req_sw, conn, req_no);
        stats.latency.record(req_sw.elapsed_us());
        // Deterministic tick source: the global completed-request
        // ordinal (not per-connection req_no) drives sampling, so a
        // seeded workload replays to the same recorded series no
        // matter how requests spread over connections.
        if shared.cfg.sample_every > 0 {
            let done = shared.req_ordinal.fetch_add(1, Ordering::Relaxed) + 1;
            if done.is_multiple_of(shared.cfg.sample_every) {
                shared.engine.tick_telemetry();
            }
        }
        // Chaos: a torn write cuts the reply mid-frame and closes, so
        // clients must survive half a response.
        if let Some(chaos) = shared.engine.chaos() {
            if chaos.torn_write(conn, req_no) {
                stats.proto_torn.inc();
                let bytes = response.as_bytes();
                let _ = writer
                    .write_all(&bytes[..bytes.len() / 2])
                    .and_then(|_| writer.flush());
                return Ok(());
            }
        }
        send_line(&writer, response)?;
        if shutdown || shared.stopping.load(Ordering::Acquire) {
            // Wake the accept loop (it blocks in accept()) so it
            // observes the stop flag and exits.
            if let Some(addr) = *lock_recover(&shared.addr) {
                let _ = TcpStream::connect(addr);
            }
            break;
        }
    }
    Ok(())
}

/// Handles one request line; returns `(response, shutdown_requested)`.
/// `req_sw` was started when the request arrived. `conn`/`req_no` key
/// the chaos draws for deterministic fault replay.
fn dispatch(
    line: &str,
    shared: &Shared,
    req_sw: nm_obs::clock::Stopwatch,
    conn: u64,
    req_no: u64,
) -> (String, bool) {
    let stats = shared.engine.stats();
    let _root = nm_obs::trace::span("serve.request");
    let parse_sw = nm_obs::clock::Stopwatch::start();
    let parsed = {
        let _s = nm_obs::trace::span("serve.parse");
        protocol::parse_request(line)
    };
    let parse_us = parse_sw.elapsed_us();
    let req = match parsed {
        Ok(r) => r,
        Err(e) => {
            stats.requests.inc();
            stats.errors.inc();
            stats.proto_malformed.inc();
            return (protocol::encode_proto_error("malformed", &e), false);
        }
    };
    let response = match req {
        Request::TopK { user, domain, k } => {
            // engine.topk_deadline counts the request on the happy path
            if user >= shared.engine.snapshot().n_users(domain) as u32 {
                stats.requests.inc();
                stats.errors.inc();
                protocol::encode_error(&format!("unknown user {user}"))
            } else {
                let ring = shared.engine.exemplars();
                let rid = ring.next_id();
                let mut deadline = Deadline::after(shared.cfg.deadline);
                if let Some(chaos) = shared.engine.chaos() {
                    if chaos.deadline_expire(conn, req_no) {
                        deadline = deadline.forced_expired();
                    }
                }
                let (list, rt) = shared.engine.topk_deadline(domain, user, k, deadline);
                let ser_sw = nm_obs::clock::Stopwatch::start();
                let resp = {
                    let _s = nm_obs::trace::span("serve.serialize");
                    if rt.degraded != DegradedKind::None {
                        protocol::encode_topk_degraded(user, domain, rt.degraded.as_str(), &list)
                    } else if Duration::from_micros(req_sw.elapsed_us()) > shared.cfg.deadline {
                        // Full answer, but the wire-level budget passed
                        // while serializing: still usable, flagged.
                        protocol::encode_topk_degraded(user, domain, "deadline", &list)
                    } else {
                        protocol::encode_topk_response(user, domain, rt.cache_hit, &list)
                    }
                };
                // Deadline-missed requests are the exemplars most worth
                // keeping, so capture happens regardless of the outcome.
                ring.record(crate::reqtrace::Exemplar {
                    id: rid,
                    domain,
                    user,
                    k,
                    start_us: req_sw.start_us(),
                    total_us: req_sw.elapsed_us(),
                    stages: crate::reqtrace::StageUs {
                        parse: parse_us,
                        cache: rt.cache_us,
                        // exclusive wait: the shared pass's fan-out and
                        // merge time is reported in its own stages
                        coalesce: rt.coalesce_us.saturating_sub(rt.fanout_us + rt.merge_us),
                        fanout: rt.fanout_us,
                        merge: rt.merge_us,
                        serialize: ser_sw.elapsed_us(),
                    },
                    queue_depth: rt.queue_depth,
                    lock_us: rt.lock_us,
                    cache_hit: rt.cache_hit,
                    coalesced: rt.coalesced,
                    shed_seen: stats.shed.get(),
                });
                resp
            }
        }
        Request::Score {
            user,
            domain,
            items,
        } => {
            stats.requests.inc();
            let snap = shared.engine.snapshot();
            let n_items = snap.n_items(domain) as u32;
            if user >= snap.n_users(domain) as u32 {
                stats.errors.inc();
                protocol::encode_error(&format!("unknown user {user}"))
            } else if let Some(bad) = items.iter().find(|&&i| i >= n_items) {
                stats.errors.inc();
                protocol::encode_error(&format!("unknown item {bad}"))
            } else {
                let users = vec![user; items.len()];
                let scores = snap.score_pairs(domain, &users, &items);
                protocol::encode_scores_response(user, domain, &scores)
            }
        }
        Request::Stats => {
            stats.requests.inc();
            protocol::encode_ok(vec![("stats".into(), stats.to_json())])
        }
        Request::Obs => {
            stats.requests.inc();
            protocol::encode_ok(vec![("obs".into(), stats.obs_json())])
        }
        Request::Series { window } => {
            stats.requests.inc();
            let telemetry = shared.engine.telemetry();
            protocol::encode_ok(vec![(
                "series".into(),
                telemetry.series_json(window.unwrap_or(usize::MAX)),
            )])
        }
        Request::Trace { n } => {
            stats.requests.inc();
            let mut exemplars = shared.engine.exemplars().slowest();
            if let Some(n) = n {
                exemplars.truncate(n);
            }
            let text = crate::reqtrace::render_trace(&exemplars);
            protocol::encode_ok(vec![
                ("exemplars".into(), Json::Num(exemplars.len() as f64)),
                ("trace".into(), Json::Str(text)),
            ])
        }
        Request::Reload { path } => {
            stats.requests.inc();
            match Snapshot::load_from_file(std::path::Path::new(&path))
                .and_then(|snap| shared.engine.reload(snap))
            {
                Ok(()) => protocol::encode_ok(vec![(
                    "epoch".into(),
                    Json::Num(shared.engine.epoch() as f64),
                )]),
                Err(e) => {
                    stats.errors.inc();
                    protocol::encode_error(&format!("reload failed: {e}"))
                }
            }
        }
        Request::Shutdown => {
            stats.requests.inc();
            shared.stopping.store(true, Ordering::Release);
            return (protocol::encode_ok(vec![]), true);
        }
    };
    (response, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::snapshot::{DomainSnapshot, HeadKind};
    use nm_tensor::{Tensor, TensorRng};

    fn test_server() -> Server {
        let mut rng = TensorRng::seed_from(11);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(40, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        let snap = Snapshot {
            model: "test".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        };
        let engine = Arc::new(
            Engine::new(
                snap,
                EngineConfig {
                    n_workers: 2,
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        Server::start(engine, "127.0.0.1:0", ServerConfig::default()).unwrap()
    }

    fn roundtrip(addr: SocketAddr, lines: &[&str]) -> Vec<Json> {
        try_roundtrip(addr, lines).unwrap()
    }

    /// [`roundtrip`] that reports I/O failures, such as a connection
    /// the server shed and reset before the request was written.
    fn try_roundtrip(addr: SocketAddr, lines: &[&str]) -> std::io::Result<Vec<Json>> {
        let stream = TcpStream::connect(addr)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut out = Vec::new();
        for l in lines {
            writer.write_all(format!("{l}\n").as_bytes())?;
            let mut resp = String::new();
            reader.read_line(&mut resp)?;
            out.push(Json::parse(resp.trim()).map_err(std::io::Error::other)?);
        }
        Ok(out)
    }

    #[test]
    fn serves_topk_stats_and_errors_over_tcp() {
        let mut server = test_server();
        let addr = server.local_addr();
        let resps = roundtrip(
            addr,
            &[
                r#"{"op":"topk","user":3,"domain":"a","k":5}"#,
                r#"{"op":"topk","user":3,"domain":"a","k":5}"#,
                r#"{"op":"score","user":3,"domain":"a","items":[0,1,2]}"#,
                r#"{"op":"topk","user":999,"domain":"a","k":5}"#,
                "this is not json",
                r#"{"op":"stats"}"#,
            ],
        );
        assert_eq!(resps[0].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(resps[0].get("items").unwrap().as_arr().unwrap().len(), 5);
        assert_eq!(resps[0].get("cached").unwrap().as_bool(), Some(false));
        // identical query: served from cache, same items
        assert_eq!(resps[1].get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(
            resps[0].get("items").unwrap(),
            resps[1].get("items").unwrap()
        );
        assert_eq!(resps[2].get("scores").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(resps[3].get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(resps[4].get("ok").unwrap().as_bool(), Some(false));
        let stats = resps[5].get("stats").unwrap();
        assert!(stats.get("requests").unwrap().as_f64().unwrap() >= 5.0);
        server.stop();
    }

    #[test]
    fn saturated_server_sheds_with_overloaded_error() {
        let mut rng = TensorRng::seed_from(5);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(40, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        let snap = Snapshot {
            model: "test".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        };
        let engine = Arc::new(
            Engine::new(
                snap,
                EngineConfig {
                    n_workers: 1,
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        let mut server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerConfig {
                max_conns: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();

        // First connection holds the only slot (handler parks in read).
        let holder = TcpStream::connect(addr).unwrap();
        // Wait until the slot is actually claimed, then a second
        // connection must be shed with a structured error, not block.
        let mut shed_resp = None;
        for _ in 0..200 {
            let extra = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(extra);
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) > 0 {
                shed_resp = Some(Json::parse(line.trim()).unwrap());
                break;
            }
            // raced ahead of the holder's accept; retry
            thread::sleep(Duration::from_millis(5));
        }
        let resp = shed_resp.expect("no shed response observed");
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(false));
        let err = resp.get("error").unwrap().as_str().unwrap().to_string();
        assert!(err.contains("overloaded"), "unexpected error: {err}");
        assert!(engine.stats().shed.get() >= 1);

        // Releasing the holder frees the slot and service resumes. Until
        // the holder's handler has released it, a probe is itself shed:
        // it reads an `overloaded` reply, or a reset when the server
        // closed before the request was written. Both mean "retry".
        drop(holder);
        let mut served = false;
        for _ in 0..200 {
            let probe = try_roundtrip(addr, &[r#"{"op":"topk","user":1,"domain":"a","k":3}"#]);
            if let Ok(resps) = probe {
                if resps[0].get("ok").unwrap().as_bool() == Some(true) {
                    served = true;
                    break;
                }
            }
            thread::sleep(Duration::from_millis(5));
        }
        assert!(served, "server never recovered after shedding");
        server.stop();
    }

    #[test]
    fn trace_op_returns_validating_exemplar_trace() {
        let mut server = test_server();
        let addr = server.local_addr();
        let resps = roundtrip(
            addr,
            &[
                r#"{"op":"topk","user":3,"domain":"a","k":5}"#,
                r#"{"op":"topk","user":4,"domain":"b","k":7}"#,
                r#"{"op":"topk","user":3,"domain":"a","k":5}"#,
                r#"{"op":"trace"}"#,
                r#"{"op":"trace","n":1}"#,
            ],
        );
        assert_eq!(resps[3].get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(resps[3].get("exemplars").unwrap().as_u64(), Some(3));
        let text = resps[3].get("trace").unwrap().as_str().unwrap();
        let recs = nm_obs::parse::parse_trace(text).expect("embedded trace parses strictly");
        let s = nm_obs::report::validate(&recs).expect("embedded trace validates");
        assert_eq!(s.events, 3, "one serve.exemplar event per request");
        assert!(s.spans >= 3, "at least one serve.request root per request");
        // `n` bounds the exemplar count
        assert_eq!(resps[4].get("exemplars").unwrap().as_u64(), Some(1));
        server.stop();
    }

    #[test]
    fn hostile_frames_get_structured_errors_not_silence() {
        use std::net::Shutdown;
        let mut rng = TensorRng::seed_from(17);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(40, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        let snap = Snapshot {
            model: "test".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        };
        let engine = Arc::new(
            Engine::new(
                snap,
                EngineConfig {
                    n_workers: 2,
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        let mut server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerConfig {
                max_frame_bytes: 128,
                idle_timeout: Duration::from_millis(150),
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let stats = engine.stats();
        let read_json = |stream: TcpStream| -> Json {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim()).unwrap()
        };

        // Oversized: a frame past max_frame_bytes with no newline.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&[b'a'; 200]).unwrap();
        s.flush().unwrap();
        let resp = read_json(s);
        assert_eq!(resp.get("code").unwrap().as_str(), Some("oversized"));
        assert_eq!(stats.proto_oversized.get(), 1);

        // Malformed UTF-8: rejected, but the connection survives and
        // serves the next (valid) frame.
        let s = TcpStream::connect(addr).unwrap();
        let mut w = s.try_clone().unwrap();
        let mut reader = BufReader::new(s);
        w.write_all(&[0xff, 0xfe, 0xfd, b'\n']).unwrap();
        w.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("code").unwrap().as_str(), Some("malformed"));
        w.write_all(b"{\"op\":\"topk\",\"user\":1,\"domain\":\"a\",\"k\":3}\n")
            .unwrap();
        w.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let resp = Json::parse(line.trim()).unwrap();
        assert_eq!(resp.get("ok").unwrap().as_bool(), Some(true));
        assert!(stats.proto_malformed.get() >= 1);
        // close this connection cleanly so it cannot idle-time-out
        // while the later steps wait
        drop(w);
        drop(reader);

        // Torn frame: client hangs up mid-line (write side closed, read
        // side still open to observe the error).
        let s = TcpStream::connect(addr).unwrap();
        let mut w = s.try_clone().unwrap();
        w.write_all(b"{\"op\":\"topk\"").unwrap();
        w.flush().unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let resp = read_json(s);
        assert_eq!(resp.get("code").unwrap().as_str(), Some("torn"));
        assert_eq!(stats.proto_torn.get(), 1);

        // Idle timeout: a silent connection gets a timeout error before
        // the server closes it.
        let s = TcpStream::connect(addr).unwrap();
        let resp = read_json(s);
        assert_eq!(resp.get("code").unwrap().as_str(), Some("timeout"));
        assert_eq!(stats.proto_timeouts.get(), 1);

        // Unparseable JSON also counts as malformed (satellite: the
        // old path returned a code-less error and no counter).
        let before = stats.proto_malformed.get();
        let resps = roundtrip(addr, &["this is not json"]);
        assert_eq!(resps[0].get("code").unwrap().as_str(), Some("malformed"));
        assert_eq!(stats.proto_malformed.get(), before + 1);
        server.stop();
    }

    #[test]
    fn sample_every_ticks_recorder_and_series_op_reports_them() {
        let mut rng = TensorRng::seed_from(23);
        let mk = |rng: &mut TensorRng| DomainSnapshot {
            users: Tensor::randn(8, 4, 1.0, rng),
            items: Tensor::randn(40, 4, 1.0, rng),
            head: HeadKind::Dot,
        };
        let snap = Snapshot {
            model: "test".into(),
            domains: [mk(&mut rng), mk(&mut rng)],
        };
        let engine = Arc::new(
            Engine::new(
                snap,
                EngineConfig {
                    n_workers: 2,
                    ..Default::default()
                },
            )
            .expect("valid test snapshot"),
        );
        let mut server = Server::start(
            Arc::clone(&engine),
            "127.0.0.1:0",
            ServerConfig {
                sample_every: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let resps = roundtrip(
            addr,
            &[
                r#"{"op":"topk","user":1,"domain":"a","k":3}"#,
                r#"{"op":"topk","user":2,"domain":"a","k":3}"#,
                r#"{"op":"topk","user":3,"domain":"b","k":3}"#,
                r#"{"op":"topk","user":4,"domain":"b","k":3}"#,
                r#"{"op":"series","window":10}"#,
            ],
        );
        // 4 completed requests at sample_every=2 → ticks 0 and 1; the
        // series request itself ticks only after its reply is built.
        let series = resps[4].get("series").unwrap();
        assert_eq!(series.get("ticks").unwrap().as_u64(), Some(2));
        assert_eq!(series.get("first_tick").unwrap().as_u64(), Some(0));
        assert_eq!(series.get("last_tick").unwrap().as_u64(), Some(1));
        let counters = series.get("counters").unwrap();
        assert_eq!(
            counters.get("serve.requests").and_then(|j| j.as_u64()),
            Some(4),
            "window conserves the request count across ticks"
        );
        assert!(engine.telemetry().recorder().ticks().len() >= 2);
        server.stop();
    }

    #[test]
    fn shutdown_request_stops_the_server() {
        let mut server = test_server();
        let addr = server.local_addr();
        let resps = roundtrip(addr, &[r#"{"op":"shutdown"}"#]);
        assert_eq!(resps[0].get("ok").unwrap().as_bool(), Some(true));
        server.wait();
        assert!(server.is_stopping());
    }
}
