//! End-to-end chaos harness: a server with every fault class enabled is
//! driven by a deterministic sequential workload, twice. The contract:
//!
//! * same seed ⇒ same fault schedule ⇒ byte-identical transcripts and
//!   identical resilience counters across runs;
//! * every request is answered — correctly, with a structured degraded
//!   reply, or with a structured protocol error after a torn frame —
//!   within a bounded client read timeout (no hangs, no silent drops);
//! * counter conservation holds on the final stats snapshot.

use nm_obs::json::Json;
use nm_serve::{
    BreakerConfig, ChaosConfig, DomainSnapshot, Engine, EngineConfig, HeadKind, ResilienceConfig,
    Server, ServerConfig, Snapshot,
};
use nm_tensor::{Tensor, TensorRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: usize = 60;
const RELOAD_AT: [usize; 3] = [20, 35, 50];
const CHAOS_SEED: u64 = 0x000C_4A05;

fn make_snapshot(seed: u64) -> Snapshot {
    let mut rng = TensorRng::seed_from(seed);
    let mk = |rng: &mut TensorRng| DomainSnapshot {
        users: Tensor::randn(16, 8, 1.0, rng),
        items: Tensor::randn(60, 8, 1.0, rng),
        head: HeadKind::Dot,
    };
    Snapshot {
        model: "chaos".into(),
        domains: [mk(&mut rng), mk(&mut rng)],
    }
}

fn chaos_config() -> ChaosConfig {
    ChaosConfig {
        seed: CHAOS_SEED,
        // High enough that each class fires several times in 60
        // requests; exact firings are pinned by the seed either way.
        worker_panic_permille: 300,
        shard_stall_permille: 300,
        torn_write_permille: 120,
        torn_read_permille: 120,
        reload_fail_permille: 500,
        deadline_expire_permille: 150,
    }
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        n_workers: 2,
        shard_items: 16, // 60 items -> 4 shards per domain
        resilience: ResilienceConfig {
            shard_retries: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_passes: 4,
            },
            ..Default::default()
        },
        chaos: Some(chaos_config()),
        ..Default::default()
    }
}

/// One full scenario: sequential client, fixed request schedule with
/// three mid-stream reloads, reconnecting after torn writes. Returns
/// the response transcript plus the resilience counters whose values
/// are functions of the fault schedule alone (scheduler-dependent
/// counters like worker restarts are deliberately excluded).
fn run_scenario() -> (Vec<String>, Vec<(&'static str, u64)>) {
    let engine = Arc::new(Engine::new(make_snapshot(9), engine_config()).expect("valid snapshot"));
    let mut server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            // Forced expiry (chaos) is the only deadline path we want;
            // a huge wall-clock deadline keeps slow CI from adding
            // nondeterministic "late" degrades.
            deadline: Duration::from_secs(30),
            ..Default::default()
        },
    )
    .expect("server starts");
    let addr = server.local_addr();

    let dir = std::env::temp_dir().join(format!(
        "nm_chaos_harness_{}_{}",
        std::process::id(),
        engine.stats().requests.get() // 0; keeps the path unique enough
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let reload_path = dir.join("next.nmss");
    make_snapshot(10).save_to_file(&reload_path).unwrap();

    let connect = || {
        let s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let w = s.try_clone().unwrap();
        (w, BufReader::new(s))
    };
    let (mut writer, mut reader) = connect();

    let mut transcript = Vec::new();
    for i in 0..REQUESTS {
        let line = if RELOAD_AT.contains(&i) {
            format!(
                "{{\"op\":\"reload\",\"path\":\"{}\"}}\n",
                reload_path.display()
            )
        } else {
            let user = (i % 12) as u32;
            let domain = if i % 2 == 0 { "a" } else { "b" };
            format!("{{\"op\":\"topk\",\"user\":{user},\"domain\":\"{domain}\",\"k\":5}}\n")
        };
        writer.write_all(line.as_bytes()).expect("send");
        writer.flush().unwrap();
        let mut resp = String::new();
        let n = reader.read_line(&mut resp).expect("reply within timeout");
        assert!(n > 0, "request {i}: connection closed with no reply at all");
        if resp.ends_with('\n') {
            let v = Json::parse(resp.trim())
                .unwrap_or_else(|e| panic!("request {i}: corrupt reply {resp:?}: {e}"));
            assert!(
                v.get("ok").and_then(|o| o.as_bool()).is_some(),
                "request {i}: reply without ok field: {resp}"
            );
            transcript.push(resp.trim().to_string());
        } else {
            // Torn write: the fault schedule cut the response and the
            // server closed the connection. Record the tear (its length
            // is part of the deterministic contract) and reconnect.
            transcript.push(format!("<torn:{n}>"));
            let (w2, r2) = connect();
            writer = w2;
            reader = r2;
        }
    }

    let s = engine.stats();
    let counters = vec![
        ("requests", s.requests.get()),
        ("errors", s.errors.get()),
        ("cache_hits", s.cache_hits.get()),
        ("batches", s.batches.get()),
        ("worker_panics", s.worker_panics.get()),
        ("shard_retried", s.shard_retried.get()),
        ("shard_failures", s.shard_failures.get()),
        ("breaker_opens", s.breaker_opens.get()),
        ("breaker_half_opens", s.breaker_half_opens.get()),
        ("breaker_closes", s.breaker_closes.get()),
        ("breaker_short_circuits", s.breaker_short_circuits.get()),
        ("degraded_partial", s.degraded_partial.get()),
        ("degraded_stale", s.degraded_stale.get()),
        ("degraded_unavailable", s.degraded_unavailable.get()),
        ("deadline_shed", s.deadline_shed.get()),
        ("reload_ok", s.reload_ok.get()),
        ("reload_failed", s.reload_failed.get()),
        ("proto_torn", s.proto_torn.get()),
        ("proto_malformed", s.proto_malformed.get()),
    ];

    // Counter conservation, checked while the engine is still live.
    assert_eq!(
        s.degraded_total(),
        s.degraded_partial.get() + s.degraded_stale.get() + s.degraded_unavailable.get()
    );
    assert_eq!(
        s.reload_ok.get() + s.reload_failed.get(),
        RELOAD_AT.len() as u64,
        "every reload accounted for exactly once"
    );

    server.stop();
    std::fs::remove_dir_all(&dir).ok();
    (transcript, counters)
}

#[test]
fn same_seed_same_faults_same_responses() {
    let (t1, c1) = run_scenario();
    let (t2, c2) = run_scenario();

    assert_eq!(t1.len(), REQUESTS);
    for (i, (a, b)) in t1.iter().zip(&t2).enumerate() {
        assert_eq!(a, b, "request {i}: transcripts diverge across runs");
    }
    for ((name, a), (_, b)) in c1.iter().zip(&c2) {
        assert_eq!(a, b, "counter {name} diverges across runs");
    }

    // Every enabled fault class left a footprint. These are exact-seed
    // properties: if the schedule shifts, re-pin CHAOS_SEED.
    let get = |name: &str| c1.iter().find(|(n, _)| *n == name).unwrap().1;
    assert!(
        get("worker_panics") > 0,
        "worker-panic class never fired: {c1:?}"
    );
    assert!(
        get("shard_retried") > 0,
        "no shard retries despite stalls/panics: {c1:?}"
    );
    assert!(get("proto_torn") > 0, "torn read/write never fired: {c1:?}");
    assert!(
        get("degraded_partial") + get("degraded_stale") + get("degraded_unavailable") > 0,
        "no degraded responses despite forced expiries/failures: {c1:?}"
    );
    assert!(get("reload_ok") > 0, "all reloads failed: {c1:?}");
    assert!(
        get("reload_failed") > 0,
        "reload-failure class never fired: {c1:?}"
    );
    assert!(
        get("breaker_opens") > 0,
        "breaker never opened under sustained shard failures: {c1:?}"
    );
}

#[test]
fn chaos_free_engine_is_fault_free() {
    // Control: the same workload with chaos disabled produces zero
    // resilience activity — injections are the only fault source.
    let engine = Arc::new(
        Engine::new(
            make_snapshot(9),
            EngineConfig {
                chaos: None,
                ..engine_config()
            },
        )
        .expect("valid snapshot"),
    );
    let mut server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    for i in 0..REQUESTS {
        let user = (i % 12) as u32;
        writer
            .write_all(
                format!("{{\"op\":\"topk\",\"user\":{user},\"domain\":\"a\",\"k\":5}}\n")
                    .as_bytes(),
            )
            .unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        let v = Json::parse(resp.trim()).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "request {i}");
        assert!(v.get("degraded").is_none(), "request {i} degraded: {resp}");
    }
    let s = engine.stats();
    assert_eq!(s.worker_panics.get(), 0);
    assert_eq!(s.shard_failures.get(), 0);
    assert_eq!(s.breaker_opens.get(), 0);
    assert_eq!(s.degraded_total(), 0);
    assert_eq!(s.proto_torn.get(), 0);
    server.stop();
}
