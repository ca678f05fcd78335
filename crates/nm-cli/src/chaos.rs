//! `nmcdr chaos` — a deterministic chaos drill against a live server.
//!
//! Builds (or loads) a serving snapshot, starts a server with every
//! fault class enabled, and drives a fixed sequential workload that
//! mixes top-K queries, snapshot reloads, and hostile frames — then
//! does it all a second time and byte-compares the two transcripts.
//! Same seed ⇒ same fault schedule ⇒ same responses: a failure here
//! means either a nondeterministic fault path or an unabsorbed fault.
//!
//! `--require-injections/--require-breaker-opens/--require-degraded`
//! turn the printed report into a CI gate (non-zero exit when unmet),
//! and `--trace-out` captures the first run's schema-v1 trace
//! (`chaos.inject` per injected fault, breaker transitions) for
//! `nmcdr obs validate`.

use crate::args::Args;
use nm_obs::json::Json;
use nm_serve::{
    BreakerConfig, ChaosConfig, DomainSnapshot, Engine, EngineConfig, HeadKind, ResilienceConfig,
    Server, ServerConfig, Snapshot,
};
use nm_tensor::{Tensor, TensorRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Counters whose values depend on thread scheduling (or wall clock)
/// rather than the fault schedule alone; excluded from the determinism
/// comparison and from the recorded series.
const SCHED_DEPENDENT: [&str; 2] = ["serve.accept.restarts", "obs.self_us"];

struct Drill {
    transcript: Vec<String>,
    counters: Vec<(String, u64)>,
    /// Line-JSON flight-recorder dump (see `Telemetry::dump`).
    series: String,
    /// SLO alert fire/resolve transition log.
    slo_log: String,
}

/// The drill's burn-rate objective: degraded responses over requests.
/// Error ratio is deliberately NOT an objective here — the workload's
/// hostile frames produce errors in the clean control run too, and the
/// clean run must stay alert-free for the CI gate to mean anything.
fn chaos_slos() -> Vec<nm_obs::SloSpec> {
    vec![nm_obs::SloSpec {
        name: "chaos-degraded-ratio".into(),
        objective: nm_obs::Objective::CounterRatio {
            bad: vec![
                "serve.degraded.partial".into(),
                "serve.degraded.stale".into(),
                "serve.degraded.unavailable".into(),
                "serve.deadline.shed".into(),
            ],
            total: "serve.requests".into(),
        },
        target: 0.005,
        fast_window: 4,
        slow_window: 16,
        burn_threshold: 2.0,
        min_events: 8,
    }]
}

pub fn chaos(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parse_or("seed", 0xC4A05)?;
    let requests: usize = args.parse_or("requests", 80)?;
    if requests < 8 {
        return Err("--requests must be at least 8".into());
    }
    // --clean runs the identical workload with every fault rate zeroed:
    // the control arm of the SLO smoke test (burn-rate alerts must NOT
    // fire without faults).
    let clean = args.flag("clean");
    let rate = |key: &str, default: u32| -> Result<u32, String> {
        let permille = args.parse_or(key, default)?;
        Ok(if clean { 0 } else { permille })
    };
    let cfg = ChaosConfig {
        seed,
        worker_panic_permille: rate("panic", 250)?,
        shard_stall_permille: rate("stall", 250)?,
        torn_write_permille: rate("torn-write", 100)?,
        torn_read_permille: rate("torn-read", 100)?,
        reload_fail_permille: rate("reload-fail", 500)?,
        deadline_expire_permille: rate("deadline-expire", 150)?,
    };
    if !clean && !cfg.enabled() {
        return Err("all fault rates are zero; nothing to drill (did you mean --clean?)".into());
    }
    // The flight recorder ticks on the request ordinal, so the dump is
    // part of the determinism contract; wall-clock and scheduling-
    // dependent metrics are excluded from the recorded series.
    let mut exclude: Vec<String> = vec!["serve.latency_us".into()];
    exclude.extend(SCHED_DEPENDENT.iter().map(|s| s.to_string()));
    let engine_cfg = EngineConfig {
        n_workers: args.parse_or("workers", 2)?,
        shard_items: args.parse_or("shard-items", 32)?,
        resilience: ResilienceConfig {
            shard_retries: args.parse_or("retries", 1)?,
            breaker: BreakerConfig {
                failure_threshold: args.parse_or("breaker-threshold", 2)?,
                cooldown_passes: args.parse_or("breaker-cooldown", 4)?,
            },
            ..Default::default()
        },
        chaos: cfg.enabled().then(|| cfg.clone()),
        telemetry: nm_obs::TelemetryConfig {
            capacity: args.parse_or("series-capacity", 64)?,
            exclude,
            slos: chaos_slos(),
        },
        ..Default::default()
    };
    let server_cfg = ServerConfig {
        // Forced expiry is the only deadline path the drill wants;
        // a generous wall-clock deadline keeps slow machines from
        // adding schedule-dependent "late" degrades.
        deadline: Duration::from_secs(30),
        max_frame_bytes: 4096,
        sample_every: args.parse_or("sample-every", 8)?,
        ..Default::default()
    };
    let trace_out = args.get("trace-out").map(std::path::PathBuf::from);
    let series_out = args.get("series-out");
    let user_snapshot = args.get("snapshot");
    let mut floors = Vec::new();
    for (flag, label) in [
        ("require-injections", "injections"),
        ("require-breaker-opens", "breaker opens"),
        ("require-degraded", "degraded responses"),
    ] {
        floors.push((flag, label, args.parse_or::<u64>(flag, 0)?));
    }
    args.reject_unread()?;

    // Injected worker panics go through the normal panic machinery
    // (that is the point), but the default hook would print a backtrace
    // per firing; silence exactly those and delegate everything else.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.starts_with("chaos: injected"));
        if !injected {
            prev_hook(info);
        }
    }));

    if let Some(path) = &trace_out {
        nm_obs::trace::init_file(path)
            .map_err(|e| format!("cannot open trace sink '{}': {e}", path.display()))?;
    }

    // Serving snapshot: user-provided or synthetic; the reload target is
    // a second synthetic snapshot in a scratch dir (or the same file
    // again when the user brought their own).
    let dir = std::env::temp_dir().join(format!("nmcdr-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir: {e}"))?;
    let (snap, reload_path) = match user_snapshot {
        Some(path) => {
            let s = Snapshot::load_from_file(Path::new(path))
                .map_err(|e| format!("cannot load snapshot '{path}': {e}"))?;
            (s, std::path::PathBuf::from(path))
        }
        None => {
            let p = dir.join("reload.nmss");
            synthetic_snapshot(seed ^ 1)
                .save_to_file(&p)
                .map_err(|e| format!("writing reload snapshot: {e}"))?;
            (synthetic_snapshot(seed), p)
        }
    };

    println!(
        "chaos drill: seed {seed:#x}, {requests} requests, rates (permille): \
         panic {} stall {} torn-write {} torn-read {} reload-fail {} deadline {}",
        cfg.worker_panic_permille,
        cfg.shard_stall_permille,
        cfg.torn_write_permille,
        cfg.torn_read_permille,
        cfg.reload_fail_permille,
        cfg.deadline_expire_permille,
    );

    let run = |tag: &str| -> Result<Drill, String> {
        let d = drill(&snap, &reload_path, &engine_cfg, &server_cfg, requests)?;
        println!("  run {tag}: {} responses recorded", d.transcript.len());
        Ok(d)
    };
    let first = run("1")?;
    // Trace the first run only: each run's flight-recorder ticks start
    // at 0, and a trace's `obs.sample` ticks must strictly increase.
    // The second run then also shows that tracing moves no byte of the
    // transcript.
    if trace_out.is_some() {
        nm_obs::trace::shutdown();
    }
    let second = run("2")?;
    std::fs::remove_dir_all(&dir).ok();

    // Determinism: byte-identical transcripts, identical counters.
    for (i, (a, b)) in first.transcript.iter().zip(&second.transcript).enumerate() {
        if a != b {
            return Err(format!(
                "NONDETERMINISTIC: request {i} diverged across same-seed runs\n  run 1: {a}\n  run 2: {b}"
            ));
        }
    }
    for ((name, a), (_, b)) in first.counters.iter().zip(&second.counters) {
        if a != b {
            return Err(format!(
                "NONDETERMINISTIC: counter {name} diverged across same-seed runs ({a} vs {b})"
            ));
        }
    }
    if first.series != second.series {
        return Err(
            "NONDETERMINISTIC: flight-recorder dumps diverged across same-seed runs".into(),
        );
    }
    if first.slo_log != second.slo_log {
        return Err(format!(
            "NONDETERMINISTIC: SLO decisions diverged across same-seed runs\n  run 1:\n{}  run 2:\n{}",
            first.slo_log, second.slo_log
        ));
    }
    println!(
        "deterministic replay: PASS (transcripts byte-identical, counters equal, \
         flight-recorder dump and SLO decisions byte-identical)"
    );

    let get = |name: &str| {
        first
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    let injected = get("chaos.injected.total");
    let breaker_opens = get("serve.breaker.opens");
    let degraded = get("serve.degraded.partial")
        + get("serve.degraded.stale")
        + get("serve.degraded.unavailable");
    println!("injections: {injected} total");
    for class in [
        "worker_panic",
        "shard_stall",
        "torn_write",
        "torn_read",
        "reload_fail",
        "deadline_expire",
    ] {
        println!(
            "  {:<16} {}",
            class,
            get(&format!("chaos.injected.{class}"))
        );
    }
    println!(
        "resilience: {} retried, {} shard failures, breaker {} open / {} half-open / {} closed / {} short-circuited",
        get("serve.shard.retried"),
        get("serve.shard.failures"),
        breaker_opens,
        get("serve.breaker.half_opens"),
        get("serve.breaker.closes"),
        get("serve.breaker.short_circuits"),
    );
    println!(
        "degraded: {degraded} ({} partial, {} stale, {} unavailable); reloads {} ok / {} rejected",
        get("serve.degraded.partial"),
        get("serve.degraded.stale"),
        get("serve.degraded.unavailable"),
        get("serve.reload.ok"),
        get("serve.reload.failed"),
    );
    println!(
        "wire: {} torn, {} malformed, {} oversized, {} timeouts",
        get("serve.proto.torn"),
        get("serve.proto.malformed"),
        get("serve.proto.oversized"),
        get("serve.proto.timeout"),
    );
    let ticks = first.series.lines().count().saturating_sub(1);
    if first.slo_log.is_empty() {
        println!("slo: {ticks} ticks recorded, no alert transitions");
    } else {
        println!("slo: {ticks} ticks recorded, alert transitions:");
        for line in first.slo_log.lines() {
            println!("  {line}");
        }
    }
    if let Some(path) = series_out {
        std::fs::write(path, &first.series)
            .map_err(|e| format!("cannot write series '{path}': {e}"))?;
        println!(
            "flight recorder written to {path} (inspect with `nmcdr obs tail --series {path}` \
             and `nmcdr obs slo --series {path}`)"
        );
    }
    if let Some(path) = &trace_out {
        println!(
            "trace written to {} (inspect with `nmcdr obs validate --trace {}`)",
            path.display(),
            path.display()
        );
    }

    for ((flag, label, want), value) in floors.into_iter().zip([injected, breaker_opens, degraded])
    {
        if value < want {
            return Err(format!("only {value} {label}, --{flag} {want} not met"));
        }
    }
    Ok(())
}

fn synthetic_snapshot(seed: u64) -> Snapshot {
    let mut rng = TensorRng::seed_from(seed);
    let mk = |rng: &mut TensorRng| DomainSnapshot {
        users: Tensor::randn(32, 8, 1.0, rng),
        items: Tensor::randn(120, 8, 1.0, rng),
        head: HeadKind::Dot,
    };
    Snapshot {
        model: "chaos-drill".into(),
        domains: [mk(&mut rng), mk(&mut rng)],
    }
}

/// One pass of the drill workload against a fresh engine + server.
fn drill(
    snap: &Snapshot,
    reload_path: &Path,
    engine_cfg: &EngineConfig,
    server_cfg: &ServerConfig,
    requests: usize,
) -> Result<Drill, String> {
    let engine = Arc::new(
        Engine::new(snap.clone(), engine_cfg.clone())
            .map_err(|e| format!("invalid snapshot: {e}"))?,
    );
    let mut server = Server::start(Arc::clone(&engine), "127.0.0.1:0", server_cfg.clone())
        .map_err(|e| format!("cannot start drill server: {e}"))?;
    let addr = server.local_addr();

    let connect = || -> Result<(TcpStream, BufReader<TcpStream>), String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(|e| e.to_string())?;
        let w = s.try_clone().map_err(|e| e.to_string())?;
        Ok((w, BufReader::new(s)))
    };
    let (mut writer, mut reader) = connect()?;

    // Reloads at the quarter marks; hostile frames on fixed residues;
    // top-K queries everywhere else. Purely a function of (i, requests).
    let reload_at = [requests / 4, requests / 2, 3 * requests / 4];
    let mut transcript = Vec::with_capacity(requests);
    for i in 0..requests {
        let line = if reload_at.contains(&i) {
            format!(
                "{{\"op\":\"reload\",\"path\":\"{}\"}}\n",
                reload_path.display()
            )
        } else if i % 13 == 7 {
            // type-confused frame: parses as JSON, fails as a request
            "{\"op\":\"topk\",\"user\":\"NaN\",\"domain\":3}\n".to_string()
        } else if i % 17 == 11 {
            // oversized frame: past max_frame_bytes, connection closes
            let mut f = "x".repeat(5000);
            f.push('\n');
            f
        } else {
            let user = (i % 16) as u32;
            let domain = if i % 2 == 0 { "a" } else { "b" };
            format!("{{\"op\":\"topk\",\"user\":{user},\"domain\":\"{domain}\",\"k\":8}}\n")
        };
        let oversized = i % 17 == 11 && !reload_at.contains(&i) && i % 13 != 7;
        writer
            .write_all(line.as_bytes())
            .and_then(|_| writer.flush())
            .map_err(|e| format!("request {i}: send failed: {e}"))?;
        let mut resp = String::new();
        let n = reader
            .read_line(&mut resp)
            .map_err(|e| format!("request {i}: no reply within 10s: {e}"))?;
        if n == 0 {
            return Err(format!("request {i}: connection closed with no reply"));
        }
        if resp.ends_with('\n') {
            let v = Json::parse(resp.trim())
                .map_err(|e| format!("request {i}: corrupt reply {resp:?}: {e}"))?;
            if v.get("ok").and_then(Json::as_bool).is_none() {
                return Err(format!("request {i}: reply without ok field: {resp}"));
            }
            transcript.push(resp.trim().to_string());
            if oversized {
                // The server closed this connection after the error.
                let (w, r) = connect()?;
                writer = w;
                reader = r;
            }
        } else {
            // Torn write: deterministic cut, then the server closed the
            // connection; the tear length is part of the transcript.
            transcript.push(format!("<torn:{n}>"));
            let (w, r) = connect()?;
            writer = w;
            reader = r;
        }
    }

    let snapshot = engine.stats().registry().snapshot();
    let counters = snapshot
        .counters
        .into_iter()
        .filter(|(name, _)| !SCHED_DEPENDENT.contains(&name.as_str()))
        .collect();
    let series = engine.telemetry().dump();
    let slo_log = engine.telemetry().render_transitions();
    server.stop();
    Ok(Drill {
        transcript,
        counters,
        series,
        slo_log,
    })
}
