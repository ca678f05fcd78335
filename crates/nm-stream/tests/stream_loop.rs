//! End-to-end acceptance tests for the online serve-while-train loop:
//!
//! 1. **Determinism** — same seed ⇒ byte-identical `events.log` and an
//!    identical publish/swap/rollback decision sequence across two
//!    independent runs.
//! 2. **Drift** — an injected distribution shift provably trips the
//!    monitor and triggers a rollback, and the post-rollback serving
//!    snapshot is bit-identical to last-good (parity asserted inside
//!    the runner; its counter is checked here).
//! 3. **Lineage** — kill-at-every-boundary fault harness: a run killed
//!    at each crash window (after events, after train, around the
//!    decision WAL, around publish, torn snapshot, torn delta
//!    checkpoint) and then resumed converges to the exact bytes of an
//!    uninterrupted run.

use nm_models::{BprModel, CdrTask, HeroGraphModel, TaskConfig, TrainConfig};
use nm_serve::EngineConfig;
use nm_stream::{
    run_stream, Action, DriftConfig, ShiftSchedule, SourceConfig, StreamConfig, StreamFaults,
    StreamReport, Verdict,
};
use std::path::{Path, PathBuf};
use std::rc::Rc;

fn tiny_task() -> Rc<CdrTask> {
    let mut cfg = nm_data::Scenario::ClothSport.config(0.002);
    cfg.n_users_a = 60;
    cfg.n_users_b = 55;
    cfg.n_items_a = 30;
    cfg.n_items_b = 28;
    cfg.n_overlap = 20;
    let data = nm_data::generate::generate(&cfg);
    let t = TaskConfig {
        eval_negatives: 20,
        ..Default::default()
    };
    CdrTask::build(data, t)
}

fn train_cfg() -> TrainConfig {
    TrainConfig {
        batch_size: 64,
        lr: 3e-2,
        seed: 23,
        top_k: 10,
        ..Default::default()
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("nmstream-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn small_engine() -> EngineConfig {
    EngineConfig {
        n_workers: 2,
        ..Default::default()
    }
}

/// The drift scenario: strong hidden preferences (slope 8), full
/// preference inversion injected at round 8 for 3 rounds. The fast
/// fine-tuning rate (lr 0.1) makes the model commit to the pre-shift
/// preferences, so the inversion shows up as a ~1.3× loss jump against
/// a healthy-round ratio ceiling of ~1.005 — `loss_factor: 1.2` sits
/// between the two with margin on both sides.
fn drift_train_cfg() -> TrainConfig {
    TrainConfig {
        lr: 1e-1,
        ..train_cfg()
    }
}

fn drift_cfg(out_dir: PathBuf) -> StreamConfig {
    StreamConfig {
        rounds: 14,
        source: SourceConfig {
            seed: 91,
            events_per_round: 192,
            slate_size: 6,
            slope: 8.0,
            shift: Some(ShiftSchedule {
                at_round: 8,
                duration: 3,
                magnitude: 1.0,
            }),
            ..Default::default()
        },
        ring_capacity: 1024,
        microbatch_max: 384,
        publish_every: 2,
        drift: DriftConfig {
            loss_factor: 1.2,
            warmup_rounds: 4,
            cooldown_rounds: 4,
            max_rollbacks: 2,
            ..Default::default()
        },
        engine: small_engine(),
        probe_users: 4,
        probe_k: 5,
        ..StreamConfig::new(out_dir)
    }
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

#[test]
fn same_seed_runs_are_byte_identical_and_shift_triggers_rollback() {
    let base = tmpdir("det");
    let run = |sub: &str| -> StreamReport {
        let mut model = HeroGraphModel::new(tiny_task(), 8, 7);
        let cfg = drift_cfg(base.join(sub));
        run_stream(&mut model, &drift_train_cfg(), &cfg).expect("stream run")
    };
    let r1 = run("a");
    let r2 = run("b");

    // Acceptance: byte-identical event log and decision sequence.
    for f in ["events.log", "decisions.log", "state.txt"] {
        assert_eq!(
            read(&base.join("a"), f),
            read(&base.join("b"), f),
            "{f} differs between same-seed runs"
        );
    }
    assert_eq!(r1.decisions, r2.decisions);

    // Acceptance: hot-swaps happened and the injected shift was caught.
    assert!(r1.publishes >= 2, "want ≥2 publishes, got {}", r1.publishes);
    assert_eq!(r1.swaps, r1.publishes);
    assert!(
        r1.rollbacks >= 1,
        "shift at round 8 must trigger a rollback"
    );
    let drifts: Vec<_> = r1
        .decisions
        .iter()
        .filter(|d| d.verdict == Verdict::Drift)
        .collect();
    assert!(!drifts.is_empty());
    assert!(
        drifts.iter().all(|d| d.round >= 8),
        "drift must not fire before the injected shift: {drifts:?}"
    );
    assert!(drifts.iter().any(|d| d.action == Action::Rollback));

    // Parity was asserted at init, every publish, and every rollback.
    assert_eq!(r1.parity_checks, 1 + r1.publishes + r1.rollbacks);
    assert!(!r1.halted);
    assert_eq!(r1.rounds_trained, 14);

    // Re-entering a completed out-dir verifies state and reproduces
    // the same report without touching the artifacts.
    let before: Vec<_> = ["events.log", "decisions.log", "state.txt"]
        .iter()
        .map(|f| read(&base.join("a"), f))
        .collect();
    let mut fresh = HeroGraphModel::new(tiny_task(), 8, 7);
    let again =
        run_stream(&mut fresh, &drift_train_cfg(), &drift_cfg(base.join("a"))).expect("re-entry");
    assert_eq!(again.decisions, r1.decisions);
    assert_eq!(again.publishes, r1.publishes);
    assert_eq!(again.rollbacks, r1.rollbacks);
    for (f, b) in ["events.log", "decisions.log", "state.txt"]
        .iter()
        .zip(before)
    {
        assert_eq!(read(&base.join("a"), f), b, "{f} changed on re-entry");
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// The lineage scenario: no shift, no drift — pure publish cadence, so
/// every crash window is exercised against a known-healthy sequence.
fn lineage_cfg(out_dir: PathBuf, faults: StreamFaults) -> StreamConfig {
    StreamConfig {
        rounds: 6,
        source: SourceConfig {
            seed: 37,
            events_per_round: 48,
            slate_size: 5,
            slope: 6.0,
            shift: None,
            ..Default::default()
        },
        ring_capacity: 512,
        microbatch_max: 96,
        publish_every: 2,
        drift: DriftConfig {
            loss_factor: 0.0, // loss detector off: lineage only
            hr_drop: 0.0,
            warmup_rounds: 2,
            ..Default::default()
        },
        engine: small_engine(),
        probe_users: 3,
        probe_k: 5,
        faults,
        ..StreamConfig::new(out_dir)
    }
}

fn run_lineage(dir: PathBuf, faults: StreamFaults) -> Result<StreamReport, nm_stream::StreamError> {
    let mut model = BprModel::new(tiny_task(), 8, 11);
    run_stream(&mut model, &train_cfg(), &lineage_cfg(dir, faults))
}

#[test]
fn kill_at_every_boundary_resumes_bit_identically() {
    let base = tmpdir("lineage");
    let reference = run_lineage(base.join("ref"), StreamFaults::default()).expect("reference run");
    assert!(reference.publishes >= 2);
    assert_eq!(reference.rollbacks, 0);

    // Every durable artifact of the reference run, byte for byte.
    let ref_files: Vec<(String, Vec<u8>)> = {
        let mut v: Vec<_> = std::fs::read_dir(base.join("ref"))
            .unwrap()
            .map(|e| e.unwrap())
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                (name.clone(), read(&base.join("ref"), &name))
            })
            .collect();
        v.sort();
        v
    };
    assert!(ref_files.iter().any(|(n, _)| n == "snap_00001.nmss"));

    // (fault to inject, round it fires at). Publishes land on rounds
    // 1, 3, 5; faults cover a plain round, the first round, and a
    // publish round for each window.
    let f = StreamFaults::default;
    let cases: Vec<(&str, StreamFaults)> = vec![
        (
            "events-r2",
            StreamFaults {
                kill_after_events: Some(2),
                ..f()
            },
        ),
        (
            "train-r0",
            StreamFaults {
                kill_after_train: Some(0),
                ..f()
            },
        ),
        (
            "train-r2",
            StreamFaults {
                kill_after_train: Some(2),
                ..f()
            },
        ),
        (
            "decision-r2",
            StreamFaults {
                kill_after_decision: Some(2),
                ..f()
            },
        ),
        (
            "decision-r3",
            StreamFaults {
                kill_after_decision: Some(3),
                ..f()
            },
        ),
        (
            "prepub-r3",
            StreamFaults {
                kill_before_publish: Some(3),
                ..f()
            },
        ),
        (
            "postpub-r3",
            StreamFaults {
                kill_after_publish: Some(3),
                ..f()
            },
        ),
        (
            "tornsnap-r3",
            StreamFaults {
                torn_publish: Some(3),
                ..f()
            },
        ),
        (
            "torndelta-r2",
            StreamFaults {
                torn_delta: Some(2),
                ..f()
            },
        ),
        (
            "torndelta-r5",
            StreamFaults {
                torn_delta: Some(5),
                ..f()
            },
        ),
    ];

    for (tag, faults) in cases {
        let dir = base.join(tag);
        let killed = run_lineage(dir.clone(), faults);
        assert!(killed.is_err(), "{tag}: fault must abort the run");

        // Resume with no faults: must converge to the reference bytes.
        let resumed = run_lineage(dir.clone(), StreamFaults::default())
            .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
        assert_eq!(resumed.publishes, reference.publishes, "{tag}");
        assert_eq!(resumed.rollbacks, reference.rollbacks, "{tag}");
        assert_eq!(resumed.decisions, reference.decisions, "{tag}");
        for (name, bytes) in &ref_files {
            assert_eq!(
                &read(&dir, name),
                bytes,
                "{tag}: {name} differs from uninterrupted run"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn absorbed_serve_chaos_leaves_stream_artifacts_untouched() {
    // Serve-side fault injection (worker panics, shard stalls) under a
    // retry budget deep enough to absorb every failure must be
    // invisible to the stream loop: probe answers stay exact, so the
    // event log, decision WAL, and published snapshots come out byte-
    // identical to a chaos-free run. Reload injection stays off —
    // publish parity is asserted inside the runner and a last-good
    // fallback would (correctly) fail it.
    let base = tmpdir("chaos");
    let reference = run_lineage(base.join("ref"), StreamFaults::default()).expect("reference run");

    let chaotic_engine = nm_serve::EngineConfig {
        chaos: Some(nm_serve::ChaosConfig {
            seed: 0x57A11,
            worker_panic_permille: 200,
            shard_stall_permille: 200,
            ..Default::default()
        }),
        resilience: nm_serve::ResilienceConfig {
            shard_retries: 4,
            ..Default::default()
        },
        ..small_engine()
    };
    let dir = base.join("victim");
    let mut model = BprModel::new(tiny_task(), 8, 11);
    let cfg = StreamConfig {
        engine: chaotic_engine,
        ..lineage_cfg(dir.clone(), StreamFaults::default())
    };
    let report = run_stream(&mut model, &train_cfg(), &cfg).expect("chaotic run completes");

    assert_eq!(report.decisions, reference.decisions);
    assert_eq!(report.publishes, reference.publishes);
    assert_eq!(report.rollbacks, reference.rollbacks);
    assert!(!report.halted);
    for f in [
        "events.log",
        "decisions.log",
        "state.txt",
        "delta.nmck",
        "good.nmck",
    ] {
        assert_eq!(
            read(&dir, f),
            read(&base.join("ref"), f),
            "{f}: absorbed chaos must not leak into stream artifacts"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn double_kill_still_converges() {
    // Kill once mid-publish, resume, kill again later, resume again.
    let base = tmpdir("doublekill");
    let reference = run_lineage(base.join("ref"), StreamFaults::default()).expect("reference");
    let dir = base.join("victim");
    assert!(run_lineage(
        dir.clone(),
        StreamFaults {
            torn_publish: Some(1),
            ..Default::default()
        }
    )
    .is_err());
    assert!(run_lineage(
        dir.clone(),
        StreamFaults {
            kill_after_train: Some(4),
            ..Default::default()
        }
    )
    .is_err());
    let resumed = run_lineage(dir.clone(), StreamFaults::default()).expect("final resume");
    assert_eq!(resumed.decisions, reference.decisions);
    for f in [
        "events.log",
        "decisions.log",
        "state.txt",
        "delta.nmck",
        "good.nmck",
    ] {
        assert_eq!(read(&dir, f), read(&base.join("ref"), f), "{f}");
    }
    let _ = std::fs::remove_dir_all(&base);
}
