//! Positive half of the concurrency checking: each of the five
//! production `nm-sync` cores (coalescer, connection gate, exemplar
//! ring, breaker, sampler ring) passes every explored schedule, and the
//! schedule space is large enough (>= 1000 distinct schedules per core,
//! the ci.sh acceptance bar) that "no violation" is a meaningful
//! statement. Each core is checked directly: the *production* generic
//! code instantiated with `VirtualBackend`, every blocking / atomic op
//! a scheduling point.

use nm_check::sched::virt::{explore_virtual, VirtSpec};
use nm_check::sched::{cores, ExploreOpts};
use nm_sync::{BreakerBug, CoalesceBug, DeltaBug, GateBug, RingBug};

fn assert_clean(name: &str, bound: Option<u32>, mk: impl Fn() -> VirtSpec) {
    let opts = ExploreOpts {
        preemption_bound: bound,
        ..Default::default()
    };
    let r = explore_virtual(mk, &opts);
    assert!(
        r.violation.is_none(),
        "core {name}: unexpected violation: {:?}",
        r.violation
    );
    assert!(!r.truncated, "core {name}: schedule space truncated");
    assert!(
        r.schedules >= 1000,
        "core {name}: only {} schedules explored, need >= 1000 — grow the config",
        r.schedules
    );
}

#[test]
fn coalescer_real_core_all_schedules_clean() {
    assert_clean(
        "coalescer",
        Some(2),
        cores::coalescer(3, 2, CoalesceBug::None),
    );
}

#[test]
fn conn_gate_real_core_all_schedules_clean() {
    assert_clean("conn-gate", Some(3), cores::conn_gate(3, 2, GateBug::None));
}

#[test]
fn exemplar_ring_real_core_all_schedules_clean() {
    // Small enough for an exhaustive (unbounded) exploration.
    assert_clean(
        "exemplar-ring",
        None,
        cores::exemplar_ring(3, 2, RingBug::None),
    );
}

#[test]
fn breaker_real_core_all_schedules_clean() {
    assert_clean("breaker", Some(2), cores::breaker(4, BreakerBug::None));
}

#[test]
fn sampler_ring_real_core_all_schedules_clean() {
    assert_clean(
        "sampler-ring",
        Some(3),
        cores::sampler_ring(2, 2, 2, DeltaBug::None),
    );
}
