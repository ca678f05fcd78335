//! `serve-mixed` and `serve-wide`: the real `nmcdr serve` binary driven
//! over TCP from one process by two client threads, one connection
//! each, closed loop. The client is plain — one write per request, no
//! pipelining, default socket options — so it sees what an ordinary
//! client sees.
//!
//! The traced phase replays the same request streams in-process against
//! an engine configured exactly as `nmcdr serve` configures its own, to
//! attribute a request's time to parse, cache, coalesce, fan-out, merge
//! and serialize; the live server's `stats` supply the cache and
//! coalescing ratios and the server-side p50.

pub use crate::load::Mix;
use crate::load::{Catalog, Request, RequestStream};
use crate::speed::{self, Speed};
use crate::stats::median;
use crate::train::{build_model, elapsed_s, profile};
use crate::{rate, Outcome, RunConfig};
use nm_eval::harness::rank_order;
use nm_obs::{clock, trace, Json, MemorySink};
use nm_serve::{protocol, DomainSnapshot, Engine, EngineConfig, FrozenModel, HeadKind, Snapshot};
use nm_tensor::{Tensor, TensorRng};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Client connections, one thread each (the box has two cores).
const CONNECTIONS: usize = 2;
/// Set-ups per run: at least this many, and more until the ones after
/// the measured phase have taken a [`SETUP_SHARE`] of its length, shut
/// downs included; `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const SETUP_SHARE: f64 = 0.05;
/// A response slower than this is a failed op.
const TIMEOUT: Duration = Duration::from_secs(5);
/// Every n-th response of a connection is checked against an offline
/// reference.
const CHECK_EVERY: u64 = 16;
/// Request-latency tail percentile. At today's ~45 requests/s a 25 s
/// run holds ~1,100 requests, too few for a steady p99. p95 sits at the
/// edge of the stall's latency mode: on a contended host a few percent
/// of `serve-wide` requests carry a slowed fan-out and merge, and p95
/// spread 16 % across ten runs; p90 needs a tenth of them slowed.
const TAIL_Q: f64 = 0.9;

/// Server settings and load shape of one mix.
struct Plan {
    name: &'static str,
    cache: usize,
    shard_items: usize,
    /// Seconds between `reload`s on connection 0.
    reload_every_s: Option<f64>,
}

fn plan(mix: Mix, smoke: bool) -> Plan {
    match mix {
        Mix::Mixed => Plan {
            name: "serve-mixed",
            cache: 4096,
            shard_items: 256,
            reload_every_s: Some(if smoke { 0.3 } else { 2.5 }),
        },
        Mix::Wide => Plan {
            name: "serve-wide",
            cache: 0,
            shard_items: 256,
            reload_every_s: None,
        },
    }
}

/// The engine `nmcdr serve --cache C --shard-items S` builds.
fn engine_config(plan: &Plan) -> EngineConfig {
    EngineConfig {
        n_workers: EngineConfig::default().n_workers,
        shard_items: plan.shard_items,
        batch_max: 8,
        cache_capacity: plan.cache,
        chaos: None,
        ..Default::default()
    }
}

/// Builds and saves the workload's snapshots; the first is served at
/// start, `serve-mixed` reloads between the two.
fn snapshots(mix: Mix, cfg: &RunConfig, dir: &Path) -> Result<Vec<(PathBuf, Snapshot)>, String> {
    let snaps = match mix {
        Mix::Mixed => {
            // A trained NMCDR model (MLP head) and the same model one
            // epoch later.
            let p = profile(cfg);
            let mut model = build_model(&p);
            let mut tc = p.train_config();
            tc.epochs = if cfg.smoke { 1 } else { 2 };
            let train = |model: &mut nmcdr_core::NmcdrModel, tc: &nm_models::TrainConfig| {
                nm_models::train_joint(model, tc)
                    .map_err(|e| format!("snapshot training failed: {e}"))
            };
            train(&mut model, &tc)?;
            let first = model.export_frozen();
            tc.epochs = 1;
            train(&mut model, &tc)?;
            vec![first, model.export_frozen()]
        }
        Mix::Wide => {
            let (users, items) = if cfg.smoke {
                (256, 1024)
            } else {
                (4096, 16_384)
            };
            let mut rng = TensorRng::seed_from(cfg.seed);
            let mut domain = || DomainSnapshot {
                users: Tensor::randn(users, 16, 0.5, &mut rng),
                items: Tensor::randn(items, 16, 0.5, &mut rng),
                head: HeadKind::Dot,
            };
            vec![Snapshot {
                model: "synthetic-dot".into(),
                domains: [domain(), domain()],
            }]
        }
    };
    snaps
        .into_iter()
        .enumerate()
        .map(|(i, snap)| {
            let path = dir.join(format!("snap{i}.nmss"));
            snap.save_to_file(&path)
                .map_err(|e| format!("cannot save {}: {e}", path.display()))?;
            Ok((path, snap))
        })
        .collect()
}

/// Kills and reaps the child on drop unless it already exited.
struct ChildGuard(Option<Child>);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A running `nmcdr serve` process.
struct ServerProc {
    child: ChildGuard,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `nmcdr serve` on an ephemeral port and reads the address
    /// from its first line of output.
    fn spawn(bin: &Path, snapshot: &Path, plan: &Plan) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg("--snapshot")
            .arg(snapshot)
            .args(["--bind", "127.0.0.1:0"])
            .args(["--cache", &plan.cache.to_string()])
            .args(["--shard-items", &plan.shard_items.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take();
        let child = ChildGuard(Some(child));
        let mut stdout = BufReader::new(stdout.ok_or("nmcdr serve has no stdout")?);
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("cannot read nmcdr serve output: {e}"))?;
        // "serving NMCDR on 127.0.0.1:PORT (2 workers); send …"
        let addr = line
            .split(" on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("nmcdr serve did not report its address: {line:?}"))?;
        Ok(Self {
            child,
            stdout,
            addr,
        })
    }

    /// One request on a fresh connection.
    fn request(&self, line: &str) -> Result<Json, String> {
        let mut conn = Conn::open(self.addr)?;
        let (text, _) = conn.round_trip(line)?;
        Json::parse(text.trim()).map_err(|e| format!("bad response {text:?}: {e}"))
    }

    /// Retries a first `topk` until the server answers `ok`.
    fn wait_ready(&self) -> Result<(), String> {
        let probe = Request::TopK {
            domain: 0,
            user: 0,
            k: 10,
        }
        .line();
        let mut last = String::new();
        for _ in 0..100 {
            match self.request(&probe) {
                Ok(v) if is_ok(&v) => return Ok(()),
                Ok(v) => last = v.encode(),
                Err(e) => last = e,
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        Err(format!("server never answered ok: {last}"))
    }

    /// Sends `shutdown` and waits for a clean exit.
    fn shutdown(mut self) -> Result<(), String> {
        let resp = self.request(r#"{"op":"shutdown"}"#)?;
        if !is_ok(&resp) {
            return Err(format!("shutdown refused: {}", resp.encode()));
        }
        let Some(mut child) = self.child.0.take() else {
            return Ok(());
        };
        for _ in 0..10_000 {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stdout.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("nmcdr serve exited with {status}"))
                    };
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(1)),
                Err(e) => return Err(format!("cannot wait for nmcdr serve: {e}")),
            }
        }
        self.child.0 = Some(child);
        Err("nmcdr serve did not exit within 10 s of shutdown".into())
    }
}

/// One client connection: a single write per request, a buffered read
/// of the newline-terminated response.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .and_then(|_| stream.set_write_timeout(Some(TIMEOUT)))
            .map_err(|e| format!("cannot set timeouts: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("cannot clone socket: {e}"))?;
        Ok(Self {
            writer: stream,
            reader: BufReader::new(reader),
        })
    }

    /// Sends `line` and reads one response line; returns it with the
    /// round trip from before the write to the end of the newline.
    fn round_trip(&mut self, line: &str) -> Result<(String, u64), String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        let start = clock::now_ns();
        self.writer
            .write_all(&frame)
            .map_err(|e| format!("write failed: {e}"))?;
        let mut resp = String::new();
        match self.reader.read_line(&mut resp) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok((resp, clock::now_ns().saturating_sub(start))),
            Err(e) => Err(format!("read failed: {e}")),
        }
    }
}

fn is_ok(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool) == Some(true)
        && v.get("degraded").and_then(Json::as_bool) != Some(true)
}

/// Which snapshot the server serves, as seen by the clients: bit 0 the
/// snapshot index, bit 1 set while a reload is in flight, the rest a
/// count of completed reloads. A response whose request saw the same
/// settled state before and after must match that snapshot; one that
/// overlapped a reload may match either.
struct Serving(AtomicU64);

const RELOADING: u64 = 2;

impl Serving {
    fn expected(before: u64, after: u64) -> Option<usize> {
        (before == after && before & RELOADING == 0).then_some((before & 1) as usize)
    }
}

/// A response kept for the offline reference check.
struct Check {
    request: Request,
    response: String,
    snapshot: Option<usize>,
}

#[derive(Default)]
struct ConnLog {
    attempted: u64,
    failed: u64,
    /// Round trips of successful `topk` and `score` requests.
    latency_ns: Vec<u64>,
    topk_ok: u64,
    reload_ns: Vec<u64>,
    checks: Vec<Check>,
    errors: Vec<String>,
}

impl ConnLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }
}

/// Reloads issued by connection 0: alternate between the snapshot
/// files every `every_s`.
struct Reloads<'a> {
    paths: &'a [PathBuf],
    every_s: f64,
}

fn client(
    addr: SocketAddr,
    mut requests: RequestStream,
    start_ns: u64,
    seconds: f64,
    reloads: Option<Reloads<'_>>,
    serving: &Serving,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut conn: Option<Conn> = None;
    let mut done_reloads = 0u64;
    let mut served = 0u64;
    let deadline = start_ns + (seconds * 1e9) as u64;
    while clock::now_ns() < deadline {
        let reload = reloads.as_ref().filter(|r| {
            clock::now_ns() >= start_ns + (r.every_s * 1e9) as u64 * (done_reloads + 1)
        });
        let (line, request, target) = match reload {
            Some(r) => {
                done_reloads += 1;
                let target = (done_reloads as usize) % r.paths.len();
                let path = r.paths[target].to_string_lossy().into_owned();
                (
                    format!(r#"{{"op":"reload","path":{}}}"#, Json::Str(path).encode()),
                    None,
                    target,
                )
            }
            None => match requests.next() {
                Some(r) => (r.line(), Some(r), 0),
                None => break,
            },
        };
        log.attempted += 1;
        if conn.is_none() {
            match Conn::open(addr) {
                Ok(c) => conn = Some(c),
                Err(e) => {
                    log.fail(e);
                    continue;
                }
            }
        }
        let Some(c) = conn.as_mut() else { continue };
        if request.is_none() {
            serving.0.fetch_or(RELOADING, Ordering::SeqCst);
        }
        let before = serving.0.load(Ordering::SeqCst);
        let result = c.round_trip(&line);
        let after = serving.0.load(Ordering::SeqCst);
        let (text, ns) = match result {
            Ok(r) => r,
            Err(e) => {
                // A lost reload answer leaves the live snapshot unknown:
                // RELOADING stays set until the next reload settles it.
                conn = None;
                log.fail(e);
                continue;
            }
        };
        let ok = Json::parse(text.trim()).is_ok_and(|v| is_ok(&v));
        match request {
            None => {
                // Settle the serving state: the new snapshot on success,
                // the old one otherwise; either way a new state count.
                let old = serving.0.load(Ordering::SeqCst);
                let index = if ok { target as u64 } else { old & 1 };
                let settled = ((old >> 2) + 1) << 2 | index;
                serving.0.store(settled, Ordering::SeqCst);
                if ok {
                    log.reload_ns.push(ns);
                } else {
                    log.fail(format!("reload failed: {}", text.trim()));
                }
            }
            Some(req) => {
                if !ok {
                    log.fail(format!("{} -> {}", req.line(), text.trim()));
                    continue;
                }
                log.latency_ns.push(ns);
                if matches!(req, Request::TopK { .. }) {
                    log.topk_ok += 1;
                }
                if served.is_multiple_of(CHECK_EVERY) {
                    log.checks.push(Check {
                        request: req,
                        response: text,
                        snapshot: Serving::expected(before, after),
                    });
                }
                served += 1;
            }
        }
    }
    log
}

/// The offline reference answer: every item scored with
/// `Snapshot::score_user_range`, ordered by `rank_order`, cut at `k`.
fn reference_topk(snap: &Snapshot, domain: usize, user: u32, k: usize) -> Vec<(u32, f32)> {
    let n = snap.n_items(domain);
    let mut scores = vec![0.0f32; n];
    snap.score_user_range(domain, user, 0, n, &mut scores);
    let mut pairs: Vec<(u32, f32)> = (0..n as u32).zip(scores).collect();
    pairs.sort_by(rank_order);
    pairs.truncate(k);
    pairs
}

/// Whether a response carries exactly the reference items and score
/// bits of `snap`.
fn matches(snap: &Snapshot, request: &Request, response: &Json) -> bool {
    let floats = |key: &str| -> Option<Vec<f32>> {
        response
            .get(key)?
            .as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|x| x as f32))
            .collect()
    };
    let same_bits = |a: &[f32], b: &[f32]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    match request {
        Request::TopK { domain, user, k } => {
            let want = reference_topk(snap, *domain, *user, *k);
            let items: Option<Vec<u64>> = response
                .get("items")
                .and_then(Json::as_arr)
                .and_then(|a| a.iter().map(Json::as_u64).collect());
            let want_items: Vec<u64> = want.iter().map(|&(i, _)| u64::from(i)).collect();
            let want_scores: Vec<f32> = want.iter().map(|&(_, s)| s).collect();
            items == Some(want_items)
                && floats("scores").is_some_and(|s| same_bits(&s, &want_scores))
        }
        Request::Score {
            domain,
            user,
            items,
        } => {
            let want = snap.score_pairs(*domain, &vec![*user; items.len()], items);
            floats("scores").is_some_and(|s| same_bits(&s, &want))
        }
    }
}

/// Checks the kept responses; returns how many did not match.
fn verify(checks: &[Check], snaps: &[(PathBuf, Snapshot)], out: &mut Outcome) -> u64 {
    let mut bad = 0;
    for c in checks {
        let candidates: Vec<usize> = match c.snapshot {
            Some(i) => vec![i],
            None => (0..snaps.len()).collect(),
        };
        let good = Json::parse(c.response.trim()).is_ok_and(|v| {
            candidates
                .iter()
                .any(|&i| matches(&snaps[i].1, &c.request, &v))
        });
        if !good {
            bad += 1;
            if bad <= 3 {
                out.note(format!(
                    "mismatch against the offline reference: {} -> {}",
                    c.request.line(),
                    c.response.trim()
                ));
            }
        }
    }
    bad
}

fn catalog(snap: &Snapshot) -> Catalog {
    Catalog {
        users: [snap.n_users(0), snap.n_users(1)],
        items: [snap.n_items(0), snap.n_items(1)],
    }
}

/// The request stream of connection `conn`.
fn stream_for(mix: Mix, snap: &Snapshot, seed: u64, conn: usize) -> RequestStream {
    let salt = (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    RequestStream::new(mix, catalog(snap), seed ^ salt)
}

pub fn run(mix: Mix, cfg: &RunConfig) -> Result<Outcome, String> {
    let plan = plan(mix, cfg.smoke);
    let dir = cfg.scratch(plan.name)?;
    let result = measure(mix, &plan, cfg, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// A set-up's raw duration and the probe timings just before and just
/// after it.
type Setup = (u64, [u64; 2]);

/// One set-up: `nmcdr serve` spawned on `snapshot` until it answers
/// `ok`. Logs its time.
fn set_up(
    plan: &Plan,
    cfg: &RunConfig,
    snapshot: &Path,
    log: &mut Vec<Setup>,
) -> Result<ServerProc, String> {
    let p0 = speed::probe();
    let t0 = clock::now_ns();
    let server = ServerProc::spawn(&cfg.nmcdr(), snapshot, plan)?;
    server.wait_ready()?;
    let raw = clock::now_ns().saturating_sub(t0);
    log.push((raw, [p0, speed::probe()]));
    Ok(server)
}

fn measure(mix: Mix, plan: &Plan, cfg: &RunConfig, dir: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The snapshots are the workload's input, built once and not timed:
    // training one takes most of a second of noisy CPU time, which would
    // bury the server's own start-up in `setup_s`.
    let snaps = snapshots(mix, cfg, dir)?;
    let mut setups = Vec::new();
    let server = set_up(plan, cfg, &snaps[0].0, &mut setups)?;
    let addr = server.addr;

    let serving = Serving(AtomicU64::new(0));
    let paths: Vec<PathBuf> = snaps.iter().map(|(p, _)| p.clone()).collect();
    let start = clock::now_ns();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let requests = stream_for(mix, &snaps[0].1, cfg.seed, conn);
                let reloads = plan
                    .reload_every_s
                    .filter(|_| conn == 0 && paths.len() > 1)
                    .map(|every_s| Reloads {
                        paths: &paths,
                        every_s,
                    });
                let serving = &serving;
                s.spawn(move || client(addr, requests, start, cfg.seconds, reloads, serving))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| ConnLog {
                    attempted: 1,
                    failed: 1,
                    errors: vec!["client thread panicked".into()],
                    ..ConnLog::default()
                })
            })
            .collect()
    });
    let wall_s = elapsed_s(start);
    let stats = server
        .request(r#"{"op":"stats"}"#)
        .map(|v| v.get("stats").cloned().unwrap_or(Json::Null))?;
    server.shutdown()?;
    // The other set-ups run after the measured phase, so that the
    // set-ups span the run rather than its first moments.
    let more = clock::now_ns();
    while setups.len() < MIN_SETUPS || elapsed_s(more) < SETUP_SHARE * cfg.seconds {
        set_up(plan, cfg, &snaps[0].0, &mut setups)?.shutdown()?;
    }

    let mut latency_ms = Vec::new();
    let mut reload_ms = Vec::new();
    let mut checks = Vec::new();
    let mut topk_ok = 0;
    for log in logs {
        out.ops(log.attempted, log.failed);
        for e in log.errors {
            out.note(format!("failed op: {e}"));
        }
        latency_ms.extend(log.latency_ns.iter().map(|&ns| ns as f64 / 1e6));
        reload_ms.extend(log.reload_ns.iter().map(|&ns| ns as f64 / 1e6));
        checks.extend(log.checks);
        topk_ok += log.topk_ok;
    }
    let mismatched = verify(&checks, &snaps, &mut out);
    out.failed += mismatched;

    let probes: Vec<u64> = setups.iter().flat_map(|s| s.1).collect();
    let speed = Speed::of(&probes).ok_or("no probes were taken")?;
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|&(raw, around)| speed::at_reference(raw, around) / 1e9)
        .collect();
    out.e2e.insert("setup_s", median(&setup_s).unwrap_or(0.0));
    out.op_latency(cfg, &latency_ms, TAIL_Q);
    out.e2e
        .insert("work_per_s", rate(latency_ms.len() as f64, wall_s));

    let counter = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let server_p50_us = stats
        .get("latency_us")
        .and_then(|l| l.get("p50"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let (hits, misses) = (counter("cache_hits"), counter("cache_misses"));
    // Requests that reached scoring: cache misses, or with the cache off
    // every topk (the measured ones plus the readiness probe).
    let scoring = if hits + misses > 0.0 {
        misses
    } else {
        topk_ok as f64 + 1.0
    };
    let client_p50_us = out.e2e.get("op_p50_ms").copied().unwrap_or(0.0) * 1e3;
    // The server reports its p50 as the upper edge of a histogram bucket,
    // so the remainder is a lower bound, and 0 when the edge lies beyond
    // the client's p50.
    let wire_queue_us = (client_p50_us - server_p50_us).max(0.0);
    out.layers.insert(
        "nm-serve.cache_hit_pct".into(),
        rate(hits, hits + misses) * 100.0,
    );
    out.layers.insert(
        "nm-serve.coalesced_pct".into(),
        rate(counter("coalesced"), scoring) * 100.0,
    );
    out.layers.insert(
        "nm-serve.wire_queue_pct".into(),
        rate(wire_queue_us, client_p50_us) * 100.0,
    );
    out.note(format!(
        "{} requests ({} checked, {} mismatched), {:.1} ok/s over {wall_s:.1} s; reload p50 {:.1} ms ({} reloads)",
        latency_ms.len(),
        checks.len(),
        mismatched,
        rate(latency_ms.len() as f64, wall_s),
        median(&reload_ms).unwrap_or(0.0),
        reload_ms.len()
    ));
    out.note(format!(
        "client p50 {client_p50_us:.0} us, server p50 {server_p50_us:.0} us, wire+queue {wire_queue_us:.0} us (op = request, tail = p{:.0})",
        TAIL_Q * 100.0
    ));
    out.note(format!("{} set-ups; {}", setups.len(), speed.note()));
    out.reference_work(&speed);

    if cfg.traced {
        traced(mix, plan, cfg, &snaps, &mut out)?;
    }
    Ok(out)
}

/// Per-request stage sums of an in-process replay.
#[derive(Debug, Default)]
struct Replay {
    requests: u64,
    parse_ns: u64,
    topk_ns: u64,
    serialize_ns: u64,
    /// The engine's whole-microsecond stage times.
    cache_us: u64,
    coalesce_us: u64,
    fanout_us: u64,
    merge_us: u64,
    hits: u64,
    hit_ns: u64,
    items_scored: u64,
    candidates: u64,
}

impl Replay {
    fn total_ns(&self) -> u64 {
        self.parse_ns + self.topk_ns + self.serialize_ns
    }
}

/// Replays the `topk` requests in `requests` (at most `limit_s`
/// seconds) against a fresh engine configured like `nmcdr serve`'s.
fn replay(
    snap: &Snapshot,
    plan: &Plan,
    requests: &[Request],
    limit_s: f64,
) -> Result<Replay, String> {
    let engine = Engine::new(snap.clone(), engine_config(plan))
        .map_err(|e| format!("cannot build engine: {e}"))?;
    let mut r = Replay::default();
    let start = clock::now_ns();
    for req in requests {
        if elapsed_s(start) > limit_s {
            break;
        }
        let _request = trace::span("perf.request");
        let line = req.line();
        let t0 = clock::now_ns();
        let parsed = {
            let _s = trace::span("perf.parse");
            protocol::parse_request(&line)
        };
        let t1 = clock::now_ns();
        let Ok(nm_serve::Request::TopK { user, domain, k }) = parsed else {
            return Err(format!("replayed request is not a topk: {line}"));
        };
        let (list, rt) = {
            let _s = trace::span("perf.topk");
            engine.topk_traced(domain, user, k)
        };
        let t2 = clock::now_ns();
        let body = {
            let _s = trace::span("perf.serialize");
            protocol::encode_topk_response(user, domain, rt.cache_hit, &list)
        };
        let t3 = clock::now_ns();
        std::hint::black_box(body);
        r.requests += 1;
        r.parse_ns += t1 - t0;
        r.topk_ns += t2 - t1;
        r.serialize_ns += t3 - t2;
        r.cache_us += rt.cache_us;
        r.coalesce_us += rt.coalesce_us.saturating_sub(rt.fanout_us + rt.merge_us);
        r.fanout_us += rt.fanout_us;
        r.merge_us += rt.merge_us;
        if rt.cache_hit {
            r.hits += 1;
            r.hit_ns += t2 - t1;
        } else {
            let n = snap.n_items(domain);
            let k = k.min(n);
            r.items_scored += n as u64;
            r.candidates += (0..n)
                .step_by(plan.shard_items.max(1))
                .map(|lo| k.min(plan.shard_items.min(n - lo)) as u64)
                .sum::<u64>();
        }
    }
    Ok(r)
}

fn traced(
    mix: Mix,
    plan: &Plan,
    cfg: &RunConfig,
    snaps: &[(PathBuf, Snapshot)],
    out: &mut Outcome,
) -> Result<(), String> {
    let snap = &snaps[0].1;
    // The two connections' streams, interleaved, topk only.
    let n = if cfg.smoke { 64 } else { 2048 };
    let mut streams: Vec<RequestStream> = (0..CONNECTIONS)
        .map(|c| stream_for(mix, snap, cfg.seed, c))
        .collect();
    let requests: Vec<Request> = (0..n * 2)
        .filter_map(|i| streams[i % CONNECTIONS].next())
        .filter(|r| matches!(r, Request::TopK { .. }))
        .take(n)
        .collect();
    let limit_s = (cfg.seconds / 2.0).max(0.5);
    let plain = replay(snap, plan, &requests, limit_s)?;
    let done = &requests[..plain.requests as usize];
    let sink = Arc::new(MemorySink::new());
    let (r, reload_mb_per_s) = trace::scoped(sink.clone(), || -> Result<(Replay, f64), String> {
        let r = replay(snap, plan, done, f64::INFINITY)?;
        let reload = match mix {
            Mix::Mixed => reload_rate(snaps, plan)?,
            Mix::Wide => 0.0,
        };
        Ok((r, reload))
    })?;
    crate::finish_trace(cfg, plan.name, &sink.lines(), out);

    let secs = |ns: u64| ns as f64 / 1e9;
    let us = |us: u64| us as f64 / 1e6;
    let n = r.requests as f64;
    for (name, v) in [
        ("nm-serve.parse_kreq_per_s", rate(n / 1e3, secs(r.parse_ns))),
        (
            "nm-serve.cache_hit_kreq_per_s",
            rate(r.hits as f64 / 1e3, secs(r.hit_ns)),
        ),
        (
            "nm-serve.fanout_mitems_per_s",
            rate(r.items_scored as f64 / 1e6, us(r.fanout_us)),
        ),
        (
            "nm-serve.merge_mcand_per_s",
            rate(r.candidates as f64 / 1e6, us(r.merge_us)),
        ),
        (
            "nm-serve.serialize_kreq_per_s",
            rate(n / 1e3, secs(r.serialize_ns)),
        ),
        (
            "nm-serve.shard_score_mitems_per_s",
            shard_score_rate(snap, cfg),
        ),
        ("nm-serve.reload_mb_per_s", reload_mb_per_s),
        (
            "nm-obs.trace_overhead_pct",
            rate(
                r.total_ns() as f64 - plain.total_ns() as f64,
                plain.total_ns() as f64,
            ) * 100.0,
        ),
    ] {
        out.layers.insert(name.into(), v);
    }

    // Conservation: the six stage times against the replayed whole. The
    // engine reports whole microseconds, so each request may lose up to
    // 1 us in each of its three truncated stages.
    let whole_us = r.total_ns() as f64 / 1e3;
    let parts_us = (r.parse_ns + r.serialize_ns) as f64 / 1e3
        + (r.cache_us + r.coalesce_us + r.fanout_us + r.merge_us) as f64;
    let gap = whole_us - parts_us;
    out.layers.insert(
        "nm-obs.unattributed_pct".into(),
        rate(gap, whole_us) * 100.0,
    );
    out.note(format!(
        "replay: {} topk in-process, {:.0} us of {:.0} us attributed; {} cache hits; fanout {} us, merge {} us",
        r.requests, parts_us, whole_us, r.hits, r.fanout_us, r.merge_us
    ));
    if gap.abs() > 0.05 * whole_us + 3.0 * n {
        out.problems.push(format!(
            "serve conservation: stages {parts_us:.0} us vs requests {whole_us:.0} us (> 5 % apart)"
        ));
    }
    Ok(())
}

/// Items per second of `Snapshot::score_user_range` over one 256-item
/// shard, cycling users of both domains.
fn shard_score_rate(snap: &Snapshot, cfg: &RunConfig) -> f64 {
    let budget_ns = if cfg.smoke { 2e6 } else { 100e6 } as u64;
    let mut out = vec![0.0f32; 256];
    let (mut items, mut calls) = (0u64, 0u64);
    let start = clock::now_ns();
    while clock::now_ns() - start < budget_ns {
        let domain = (calls % 2) as usize;
        let n = snap.n_items(domain).min(256);
        let user = (calls / 2 % snap.n_users(domain).max(1) as u64) as u32;
        snap.score_user_range(domain, user, 0, n, &mut out[..n]);
        std::hint::black_box(&out);
        items += n as u64;
        calls += 1;
    }
    rate(items as f64 / 1e6, (clock::now_ns() - start) as f64 / 1e9)
}

/// MB per second of `Snapshot::load_from_file` + `Engine::reload`,
/// alternating the workload's snapshot files.
fn reload_rate(snaps: &[(PathBuf, Snapshot)], plan: &Plan) -> Result<f64, String> {
    let engine = Engine::new(snaps[0].1.clone(), engine_config(plan))
        .map_err(|e| format!("cannot build engine: {e}"))?;
    let (mut bytes, mut ns) = (0u64, 0u64);
    for i in 1..=6 {
        let path = &snaps[i % snaps.len()].0;
        let _s = trace::span("perf.reload");
        let t = clock::now_ns();
        let snap = Snapshot::load_from_file(path)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        engine
            .reload(snap)
            .map_err(|e| format!("reload failed: {e}"))?;
        ns += clock::now_ns() - t;
        bytes += std::fs::metadata(path).map_or(0, |m| m.len());
    }
    Ok(rate(bytes as f64 / 1e6, ns as f64 / 1e9))
}
