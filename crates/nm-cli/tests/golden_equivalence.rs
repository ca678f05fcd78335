//! Byte-for-byte behavior pins for the serving and streaming stacks.
//!
//! The golden fixtures were captured from the pre-`nm-sync` codebase —
//! before the coalescer, connection gate, exemplar ring, breaker,
//! supervisor, and sampler ring were extracted into generic
//! backend-parameterized cores. These tests rerun the exact fixture
//! workloads against the current binary and require identical bytes:
//! the refactor (and any future change to the extracted cores) must not
//! move a single observable decision.
//!
//! Both workloads are seeded and wall-clock-free in their durable
//! artifacts (latency fields are excluded from the chaos series dump;
//! the stream logs are derived purely from the seeded event source and
//! deterministic training), so byte-identity is expected across
//! machines and build profiles, not just across runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nmcdr-golden-{}-{name}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_identical(got: &Path, want: &Path) {
    let got_bytes = std::fs::read(got).unwrap_or_else(|e| panic!("read {}: {e}", got.display()));
    let want_bytes = std::fs::read(want).unwrap_or_else(|e| panic!("read {}: {e}", want.display()));
    assert!(
        got_bytes == want_bytes,
        "{} differs from golden fixture {} ({} vs {} bytes)",
        got.display(),
        want.display(),
        got_bytes.len(),
        want_bytes.len()
    );
}

/// The ci.sh chaos drill: seeded fault injection (worker panics, shard
/// stalls, torn frames, reload failures, forced deadline expiries) over
/// a live server. The flight-recorder series dump excludes latency and
/// anything schedule-dependent, so a fixed seed pins every counter.
/// The drill runs traced, as ci.sh runs it: tracing must not move a
/// byte of the dump, and the trace must pass the strict schema parser.
#[test]
fn chaos_series_dump_matches_pre_refactor_golden() {
    let dir = scratch("chaos");
    let series = dir.join("series.jsonl");
    let trace = dir.join("trace.jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_nmcdr"))
        .args([
            "chaos",
            "--seed",
            "806405",
            "--requests",
            "120",
            "--workers",
            "2",
        ])
        .arg("--series-out")
        .arg(&series)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .expect("run nmcdr chaos");
    assert!(
        out.status.success(),
        "chaos drill failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert_identical(&series, &fixture("golden_chaos_series.jsonl"));
    let text = std::fs::read_to_string(&trace).expect("read chaos trace");
    if let Err(e) = nm_obs::parse_trace(&text) {
        panic!("chaos trace fails strict parsing: {e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The ci.sh streaming smoke: 14 rounds of serve-while-train with a
/// preference inversion at round 8, requiring two hot-swaps and a
/// drift rollback. Every durable artifact — the framed event log, the
/// per-iteration decision log, and the committed runner state — must
/// be byte-identical to the pre-refactor capture.
#[test]
fn stream_artifacts_match_pre_refactor_golden() {
    let dir = scratch("stream");
    let out_dir = dir.join("out");
    let out = Command::new(env!("CARGO_BIN_EXE_nmcdr"))
        .args([
            "stream",
            "--scenario",
            "cloth-sport",
            "--scale",
            "0.0005",
            "--model",
            "HeroGraph",
            "--dim",
            "8",
            "--lr",
            "0.1",
            "--seed",
            "91",
            "--rounds",
            "14",
            "--events-per-round",
            "3072",
            "--slate",
            "6",
            "--slope",
            "8.0",
            "--shift-at",
            "8",
            "--loss-factor",
            "1.2",
            "--warmup",
            "4",
            "--microbatch",
            "3072",
            "--require-swaps",
            "2",
            "--require-rollbacks",
            "1",
        ])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run nmcdr stream");
    assert!(
        out.status.success(),
        "stream smoke failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["events.log", "decisions.log", "state.txt"] {
        assert_identical(&out_dir.join(f), &fixture(&format!("golden_stream/{f}")));
    }
    std::fs::remove_dir_all(&dir).ok();
}
