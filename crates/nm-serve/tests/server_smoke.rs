//! Multi-threaded server smoke test: N concurrent clients hammer one
//! server over real TCP and every response must come back intact, in
//! order, and consistent across clients.

use nm_obs::json::Json;
use nm_serve::{DomainSnapshot, Engine, EngineConfig, HeadKind, Server, ServerConfig, Snapshot};
use nm_tensor::{Tensor, TensorRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;

fn make_snapshot(seed: u64) -> Snapshot {
    let mut rng = TensorRng::seed_from(seed);
    let mk = |rng: &mut TensorRng| DomainSnapshot {
        users: Tensor::randn(32, 8, 1.0, rng),
        items: Tensor::randn(300, 8, 1.0, rng),
        head: HeadKind::Dot,
    };
    Snapshot {
        model: "smoke".into(),
        domains: [mk(&mut rng), mk(&mut rng)],
    }
}

#[test]
fn concurrent_clients_no_lost_or_corrupt_responses() {
    let engine = Arc::new(
        Engine::new(
            make_snapshot(42),
            EngineConfig {
                n_workers: 4,
                shard_items: 64,
                ..Default::default()
            },
        )
        .expect("valid test snapshot"),
    );
    let mut server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    const CLIENTS: usize = 8;
    const REQUESTS_PER_CLIENT: usize = 25;

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let stream = TcpStream::connect(addr).unwrap();
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let mut responses = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    // Deliberately overlapping users across clients so the
                    // cache and the batcher both get exercised.
                    let user = ((c + r) % 10) as u32;
                    let domain = if r % 2 == 0 { "a" } else { "b" };
                    writer
                        .write_all(
                            format!(
                                "{{\"op\":\"topk\",\"user\":{user},\"domain\":\"{domain}\",\"k\":7}}\n"
                            )
                            .as_bytes(),
                        )
                        .unwrap();
                    writer.flush().unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert!(!line.trim().is_empty(), "lost response");
                    let v = Json::parse(line.trim()).expect("corrupt response");
                    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
                    assert_eq!(v.get("user").unwrap().as_u64(), Some(user as u64));
                    let items = v.get("items").unwrap().as_arr().unwrap();
                    assert_eq!(items.len(), 7);
                    responses.push((user, domain.to_string(), line.trim().to_string()));
                }
                responses
            })
        })
        .collect();

    let mut all: Vec<(u32, String, String)> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    assert_eq!(all.len(), CLIENTS * REQUESTS_PER_CLIENT, "lost responses");

    // Same (user, domain) query ⇒ byte-identical answer regardless of
    // which client asked, when, or whether it was cached.
    use std::collections::HashMap;
    let mut canonical: HashMap<(u32, String), String> = HashMap::new();
    for (user, domain, line) in &all {
        // The "cached" field legitimately differs between first and
        // repeat answers; compare everything else.
        let v = Json::parse(line).unwrap();
        let key_fields = format!(
            "{}|{}",
            v.get("items").unwrap().encode(),
            v.get("scores").unwrap().encode()
        );
        match canonical.entry((*user, domain.clone())) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(key_fields);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                assert_eq!(
                    e.get(),
                    &key_fields,
                    "divergent answers for user {user} domain {domain}"
                );
            }
        }
    }

    // Repeated queries must have produced cache hits.
    let stats = engine.stats();
    let hits = stats.cache_hits.get();
    assert!(hits > 0, "expected cache hits on repeated queries");

    // And the stats endpoint agrees the traffic happened.
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    let s = v.get("stats").unwrap();
    assert!(s.get("requests").unwrap().as_f64().unwrap() >= (CLIENTS * REQUESTS_PER_CLIENT) as f64);
    assert!(s.get("cache_hits").unwrap().as_f64().unwrap() > 0.0);
    assert!(s.get("latency_us").unwrap().get("p99").is_some());

    // The obs endpoint exposes the full unified metrics registry over
    // the same wire: dotted counter names and histogram snapshots.
    writer.write_all(b"{\"op\":\"obs\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    let obs = v.get("obs").unwrap();
    let counters = obs.get("counters").unwrap();
    assert!(counters.get("serve.requests").unwrap().as_f64().unwrap() > 0.0);
    assert!(counters.get("serve.cache.hits").unwrap().as_f64().unwrap() > 0.0);
    let hist = obs
        .get("histograms")
        .unwrap()
        .get("serve.latency_us")
        .unwrap();
    assert!(hist.get("count").unwrap().as_f64().unwrap() > 0.0);
    assert!(hist.get("overflow_count").is_some());

    // The trace endpoint returns slowest-request exemplars as an
    // embedded schema-v1 trace that must pass the strict parser and
    // the structural validator — the same bar `nmcdr obs validate`
    // applies to training traces.
    writer.write_all(b"{\"op\":\"trace\"}\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap();
    assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    let n_exemplars = v.get("exemplars").unwrap().as_u64().unwrap();
    assert!(n_exemplars > 0, "traffic must have produced exemplars");
    let text = v.get("trace").unwrap().as_str().unwrap();
    let recs = nm_obs::parse::parse_trace(text).expect("exemplar trace parses strictly");
    let summary = nm_obs::report::validate(&recs).expect("exemplar trace validates");
    assert_eq!(
        summary.events, n_exemplars,
        "one exemplar event per request"
    );
    // every exemplar contributes a serve.request root span, and the
    // folded flamegraph view conserves the roots' inclusive time
    let folded = nm_obs::flame::fold(&recs);
    let root_total: u64 = recs
        .iter()
        .filter_map(|r| match r {
            nm_obs::TraceRecord::Span { name, dur_us, .. } if name == "serve.request" => {
                Some(*dur_us)
            }
            _ => None,
        })
        .sum();
    assert_eq!(nm_obs::flame::total_us(&folded), root_total);

    server.stop();
}

#[test]
fn reload_over_wire_swaps_answers() {
    let engine = Arc::new(
        Engine::new(make_snapshot(1), EngineConfig::default()).expect("valid test snapshot"),
    );
    let mut server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let dir = std::env::temp_dir().join(format!("nm_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("next.nmss");
    make_snapshot(2).save_to_file(&path).unwrap();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut ask = |line: String| -> Json {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        Json::parse(resp.trim()).unwrap()
    };

    let before = ask(r#"{"op":"topk","user":0,"domain":"a","k":5}"#.into());
    let reload = ask(format!(r#"{{"op":"reload","path":"{}"}}"#, path.display()));
    assert_eq!(
        reload.get("ok").unwrap().as_bool(),
        Some(true),
        "{reload:?}"
    );
    assert_eq!(reload.get("epoch").unwrap().as_u64(), Some(1));
    let after = ask(r#"{"op":"topk","user":0,"domain":"a","k":5}"#.into());
    assert_eq!(after.get("cached").unwrap().as_bool(), Some(false));
    assert_ne!(
        before.get("scores").unwrap(),
        after.get("scores").unwrap(),
        "reload should change the answers"
    );

    std::fs::remove_dir_all(&dir).ok();
    server.stop();
}

/// A persistent connection must answer at the speed of the server, not
/// of a TCP timer. A reply sent as two writes (the JSON, then its `\n`)
/// waits under Nagle's algorithm for the client's delayed ACK, about
/// 40 ms per round trip, so these 100 round trips would take ~4 s.
#[test]
fn sequential_round_trips_on_one_connection_do_not_stall() {
    let engine = Arc::new(
        Engine::new(make_snapshot(3), EngineConfig::default()).expect("valid test snapshot"),
    );
    let mut server =
        Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).unwrap();
    // A plain client: default socket options, one write per request.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let sw = nm_obs::clock::Stopwatch::start();
    for r in 0..100u32 {
        let user = r % 32;
        writer
            .write_all(
                format!("{{\"op\":\"topk\",\"user\":{user},\"domain\":\"a\",\"k\":50}}\n")
                    .as_bytes(),
            )
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("corrupt response");
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{line}");
    }
    let elapsed_ms = sw.elapsed_us() / 1000;
    assert!(
        elapsed_ms < 1000,
        "100 round trips on one connection took {elapsed_ms} ms"
    );
    server.stop();
}
