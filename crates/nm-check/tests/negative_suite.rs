//! Seeded-defect suite: every analysis pass must catch the bug class
//! it claims to catch — and *only* the intended rule may fire, so a
//! green production run is evidence, not vacuous.
//!
//! Coverage of the acceptance list:
//!
//! ```text
//! 1. shape mismatch            -> shape/matmul + shape/mismatch
//! 2. illegal broadcast         -> shape/broadcast
//! 2b. attend_rows candidates   -> shape/attend-group + shape/gather-oob
//! 3. graph cycle               -> shape/cycle
//! 4. unreachable parameter     -> shape/unreachable-param (bound + never-bound forms)
//! 4b. missing op cost rule     -> profile/op-coverage
//! 5. banned call               -> lint/no-unwrap
//! 6. missing SAFETY comment    -> lint/safety-comment
//! 7. hash in serialization     -> lint/no-hash-iter
//! 8. wall-clock read           -> lint/no-wallclock
//! 9. lost-wakeup coalescer     -> sched deadlock
//! 10. double dispatch          -> sched final-state
//! 14. connection over-admission-> sched final-state
//! 16. double half-open probe   -> sched final-state
//! 18. over-capacity ring       -> sched final-state
//! 19. watermark re-read leak   -> sched final-state
//! ```
//!
//! Items 9, 10, 14, 16, 18 and 19 seed their bug into the *production*
//! `nm-sync` core (via its default-off bug knob) and model-check the
//! real generic code under `VirtualBackend`.

use nm_autograd::{TraceMeta, TraceNode};
use nm_check::sched::virt::explore_virtual;
use nm_check::sched::{cores, ExploreOpts};
use nm_check::shape::{compare_symbolic, verify_op_coverage, verify_reachability, verify_trace};
use nm_check::{lint, Diagnostic};
use nm_sync::{BreakerBug, CoalesceBug, DeltaBug, GateBug, RingBug};

fn leaf(r: usize, c: usize) -> TraceNode {
    TraceNode {
        kind: "leaf",
        parents: vec![],
        rows: r,
        cols: c,
        requires_grad: true,
        meta: TraceMeta::None,
    }
}

fn node(kind: &'static str, parents: Vec<usize>, r: usize, c: usize) -> TraceNode {
    TraceNode {
        kind,
        parents,
        rows: r,
        cols: c,
        requires_grad: true,
        meta: TraceMeta::None,
    }
}

fn rules(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.rule.as_str()).collect()
}

fn assert_only_rule(diags: &[Diagnostic], rule: &str) {
    assert!(
        !diags.is_empty(),
        "expected {rule} to fire, got no diagnostics"
    );
    for d in diags {
        assert_eq!(d.rule, rule, "unexpected extra diagnostic: {}", d.render());
    }
}

// ---- shape verifier ---------------------------------------------------

#[test]
fn seeded_shape_mismatch_matmul_inner_dims() {
    // (3x4) @ (5x2): the tape would have panicked; the verifier reports.
    let trace = vec![
        leaf(3, 4),
        leaf(5, 2),
        node("matmul", vec![0, 1], 3, 2),
        node("sum_all", vec![2], 1, 1),
    ];
    assert_only_rule(&verify_trace(&trace), "shape/matmul");
}

#[test]
fn seeded_shape_mismatch_recorded_vs_derived() {
    // relu claims to change the shape: derived (3,4) vs recorded (4,3)
    let trace = vec![leaf(3, 4), node("relu", vec![0], 4, 3)];
    assert_only_rule(&verify_trace(&trace), "shape/mismatch");
}

#[test]
fn seeded_illegal_broadcast() {
    // (3x4) + (2x4) is no legal broadcast class
    let trace = vec![leaf(3, 4), leaf(2, 4), node("add", vec![0, 1], 3, 4)];
    assert_only_rule(&verify_trace(&trace), "shape/broadcast");
}

#[test]
fn seeded_attend_rows_candidates() {
    // 3 users over a 5-row table: `len` candidate ids, the largest `max_index`
    let attend = |len, max_index| {
        let mut a = node("attend_rows", vec![0, 1], 3, 4);
        a.meta = TraceMeta::Gather { len, max_index };
        vec![leaf(3, 4), leaf(5, 4), a]
    };
    assert!(
        verify_trace(&attend(12, 4)).is_empty(),
        "4 per user, ids < 5"
    );
    // 10 candidates do not split over 3 users
    assert_only_rule(&verify_trace(&attend(10, 4)), "shape/attend-group");
    // id 5 is past the table's last row
    assert_only_rule(&verify_trace(&attend(12, 5)), "shape/gather-oob");
}

#[test]
fn seeded_cycle_forward_parent() {
    // node 1 lists node 2 as a parent: not topologically ordered
    let trace = vec![
        leaf(2, 2),
        node("relu", vec![2], 2, 2),
        node("sigmoid", vec![1], 2, 2),
    ];
    let diags = verify_trace(&trace);
    assert!(
        rules(&diags).contains(&"shape/cycle"),
        "cycle not reported: {:?}",
        rules(&diags)
    );
}

#[test]
fn seeded_unreachable_parameter() {
    // w2 is on the tape but feeds a dead branch; w3 never bound at all.
    let trace = vec![
        leaf(3, 4), // w1 -> loss
        leaf(3, 4), // w2 -> dead branch
        node("relu", vec![1], 3, 4),
        node("sum_all", vec![0], 1, 1), // loss reads only w1
    ];
    assert!(verify_trace(&trace).is_empty(), "trace itself is clean");
    let params = vec![
        ("w1".to_string(), Some(0)),
        ("w2".to_string(), Some(1)),
        ("w3".to_string(), None),
    ];
    let diags = verify_reachability(&trace, 3, &params);
    assert_eq!(diags.len(), 2, "{:?}", rules(&diags));
    assert_only_rule(&diags, "shape/unreachable-param");
    assert!(diags.iter().any(|d| d.location == "w2"));
    assert!(diags.iter().any(|d| d.location == "w3"));
}

#[test]
fn seeded_symbolic_leak_batch_dim_hardcoded() {
    // A layer hard-codes the batch size 3 into a weight: at B=3 all is
    // well, at B=5 the weight still has 3 rows -> a dim equal to the
    // batch size failed to vary.
    let mk = |b: usize, w_rows: usize| {
        vec![
            leaf(b, 8),
            leaf(8, w_rows),
            node("matmul", vec![0, 1], b, w_rows),
            node("sum_all", vec![2], 1, 1),
        ]
    };
    // weight rows hard-coded to 3 == batch size of run A
    let diags = compare_symbolic(&mk(3, 3), &mk(5, 3), &[3], &[5]);
    assert!(
        diags.iter().all(|d| d.rule == "shape/symbolic") && !diags.is_empty(),
        "{:?}",
        rules(&diags)
    );
}

#[test]
fn seeded_missing_cost_rule() {
    // Simulate a registry op the analytic cost table forgot: the sweep
    // must flag exactly that kind and nothing else. The real table is
    // verified complete by the clean half below.
    let diags = verify_op_coverage(nm_autograd::OP_KINDS, &|k| k != "matmul");
    assert_only_rule(&diags, "profile/op-coverage");
    assert_eq!(diags.len(), 1, "{:?}", rules(&diags));
    assert!(diags[0].location.contains("matmul"));
    // Clean half: the production cost table covers the whole registry.
    assert!(verify_op_coverage(nm_autograd::OP_KINDS, &nm_autograd::has_rule).is_empty());
}

// ---- linter -----------------------------------------------------------

#[test]
fn seeded_banned_call_unwrap() {
    let src = r#"
        pub fn f(x: Option<u32>) -> u32 {
            x.unwrap()
        }
    "#;
    let hits = lint::lint_source("crates/nm-serve/src/engine.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, lint::RULE_NO_UNWRAP);
    assert_eq!(hits[0].line, 3);
}

#[test]
fn seeded_banned_call_panic_macro() {
    let src = "pub fn f() { panic!(\"boom\"); }";
    let hits = lint::lint_source("crates/nm-tensor/src/x.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, lint::RULE_NO_UNWRAP);
}

#[test]
fn seeded_missing_safety_comment() {
    let src = r#"
        pub fn f(b: &[u8]) -> &str {
            unsafe { std::str::from_utf8_unchecked(b) }
        }
    "#;
    let hits = lint::lint_source("crates/nm-serve/src/json.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, lint::RULE_SAFETY);
}

#[test]
fn seeded_hash_in_serialization_path() {
    let src = r#"
        use std::collections::HashMap;
        pub fn write_snapshot(m: &HashMap<u32, f32>) {}
    "#;
    let hits = lint::lint_source("crates/nm-serve/src/snapshot.rs", src);
    assert!(hits.iter().all(|h| h.rule == lint::RULE_NO_HASH_ITER));
    assert_eq!(hits.len(), 2, "both HashMap mentions flagged");
    // the same source in a non-serialization file is fine
    assert!(lint::lint_source("crates/nm-serve/src/cache.rs", src).is_empty());
}

#[test]
fn seeded_wallclock_outside_obs() {
    let src = "pub fn now_ms() -> u128 { Instant::now().elapsed().as_millis() }";
    let hits = lint::lint_source("crates/nm-models/src/train.rs", src);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, lint::RULE_NO_WALLCLOCK);
    // the identical code inside nm-obs is the sanctioned clock domain
    assert!(lint::lint_source("crates/nm-obs/src/clock.rs", src).is_empty());
}

#[test]
fn allowlist_gates_new_violations_only() {
    let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }";
    let hits = lint::lint_source("crates/nm-serve/src/engine.rs", src);
    // baseline admits exactly this debt -> no new violations
    let baseline = lint::counts(&hits);
    let report = lint::compare(&hits, &baseline);
    assert!(report.new_violations.is_empty());
    // empty baseline -> the same hit is a new violation
    let report = lint::compare(&hits, &Default::default());
    assert_eq!(report.new_violations.len(), 1);
    assert_eq!(report.new_violations[0].rule, lint::RULE_NO_UNWRAP);
}

// ---- concurrency checker ----------------------------------------------

/// Bound for the virtualized real-core runs: every seeded bug below
/// needs at most three preemptions (CHESS small-bound hypothesis), and
/// the bound keeps replay counts small enough for a test suite.
fn vopts() -> ExploreOpts {
    ExploreOpts {
        preemption_bound: Some(3),
        ..Default::default()
    }
}

#[test]
fn seeded_lost_wakeup_coalescer_deadlocks() {
    let r = explore_virtual(cores::coalescer(3, 2, CoalesceBug::LostWakeup), &vopts());
    let v = r.violation.expect("lost wakeup must surface");
    assert!(v.message.contains("deadlock"), "{}", v.message);
}

#[test]
fn seeded_double_dispatch_caught() {
    let r = explore_virtual(
        cores::coalescer(3, 2, CoalesceBug::DoubleDispatch),
        &vopts(),
    );
    let v = r.violation.expect("double dispatch must surface");
    assert!(v.message.contains("double dispatch"), "{}", v.message);
}

#[test]
fn seeded_over_admission_caught() {
    let r = explore_virtual(cores::conn_gate(3, 1, GateBug::CheckThenAct), &vopts());
    let v = r.violation.expect("over-admission must surface");
    assert!(v.message.contains("over-admission"), "{}", v.message);
}

#[test]
fn seeded_ring_check_then_act_caught() {
    let r = explore_virtual(cores::exemplar_ring(3, 1, RingBug::CheckThenAct), &vopts());
    let v = r.violation.expect("over-capacity ring must surface");
    assert!(v.message.contains("over-capacity ring"), "{}", v.message);
}

#[test]
fn seeded_split_probe_claim_caught() {
    let r = explore_virtual(cores::breaker(3, BreakerBug::SplitClaim), &vopts());
    let v = r.violation.expect("double probe must surface");
    assert!(
        v.message.contains("probes sent to the sick shard"),
        "{}",
        v.message
    );
}

#[test]
fn seeded_sampler_watermark_reread_caught() {
    // The real `DeltaRing::tick_with` with `DeltaBug::RereadWatermark`:
    // the delta comes from the first counter read, the watermark from a
    // re-read after a scheduling point — increments landing between the
    // two reads vanish from the recorded series.
    let r = explore_virtual(
        cores::sampler_ring(2, 2, 2, DeltaBug::RereadWatermark),
        &vopts(),
    );
    let v = r.violation.expect("leaked deltas must surface");
    assert!(v.message.contains("leaks deltas"), "{}", v.message);
}
