//! Contention correction for CPU-bound durations.
//!
//! The benchmark shares physical cores with other tenants. The host
//! slows by up to 2× for seconds at a time, and by 10–20 % for tens of
//! minutes, with no steal time to show for it; raw epoch and round times
//! swing by 20–35 % between runs. Each CPU-bound duration is therefore
//! reported at a fixed reference speed: the benchmark times a fixed
//! piece of reference work of its own right before and right after the
//! op, and scales the op by [`REFERENCE_NS`] over the mean of those two
//! timings.
//!
//! The reference is a constant rather than a quantity of the run, so a
//! slowdown that lasts a whole run is corrected too; scaling to the
//! run's own fastest probes left 10–18 % between two sets of runs half
//! an hour apart. The reference work is the C library's `tanhf` and
//! `expf`, not code of the workspace, so a change to the workspace's
//! build settings (profile, target features) does not move it; a change
//! of machine or C library does. The run's uncontended probe time is
//! reported as the per-layer metric `nm-perf.reference_work_us` so such
//! a change shows. The correction removes most of the drift between
//! runs far apart, but not the run-to-run spread: see the README. Wire
//! round trips are reported raw: today they wait on a timer, not on the
//! CPU.

use crate::stats;

/// The reference work's duration at reference speed: about its
/// uncontended time on the 2-vCPU Xeon the benchmark was tuned on.
pub const REFERENCE_NS: f64 = 380e3;

/// Calls of the C library's `tanhf` and `expf` per probe.
const CALLS: usize = 17_000;

/// The probe quantile taken as the run's uncontended probe time.
const UNCONTENDED_Q: f64 = 0.1;
/// A probe this much slower than the uncontended one counts as
/// contended in the notes.
const CONTENDED: f64 = 1.25;

/// Times the reference work, in nanoseconds: 17,000 calls each of the C
/// library's `tanhf` and `expf`, summed. Scalar floating-point work on
/// data that fits in L1, like an NMCDR training step at dim 16; among
/// the probes tried (README) it tracked epoch times at least as well as
/// any, and its work is C-library code, which the workspace's build
/// settings do not compile. About 0.38 ms on the tuning host.
pub fn probe() -> u64 {
    let step = std::hint::black_box(1e-4f32);
    let start = nm_obs::clock::now_ns();
    let mut acc = 0.0f32;
    for i in 0..CALLS {
        acc += (i as f32 * step).tanh().exp();
    }
    std::hint::black_box(acc);
    nm_obs::clock::now_ns().saturating_sub(start)
}

/// `raw_ns` at reference speed, given the probe timings just before and
/// just after it.
pub fn at_reference(raw_ns: u64, around: [u64; 2]) -> f64 {
    let mean = (around[0] + around[1]) as f64 / 2.0;
    crate::rate(raw_ns as f64 * REFERENCE_NS, mean)
}

/// How fast the machine ran over a run, from every probe it took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Speed {
    /// The run's uncontended probe time: its 10th percentile.
    pub uncontended_ns: f64,
    /// Share of the probes slower than [`CONTENDED`] × uncontended.
    pub contended: f64,
}

impl Speed {
    /// The run's speed; `None` without probes.
    pub fn of(probes: &[u64]) -> Option<Speed> {
        let ns: Vec<f64> = probes.iter().map(|&p| p as f64).collect();
        let uncontended_ns = stats::quantile(&stats::sorted(&ns), UNCONTENDED_Q)?;
        let slow = ns
            .iter()
            .filter(|&&p| p > CONTENDED * uncontended_ns)
            .count();
        Some(Speed {
            uncontended_ns,
            contended: slow as f64 / ns.len() as f64,
        })
    }

    /// A note on the machine: the uncontended probe time against the
    /// reference, and how often the probe ran slow.
    pub fn note(&self) -> String {
        format!(
            "reference work {:.0} us uncontended (reference speed {:.0} us); {:.0} % of probes over {CONTENDED}x that",
            self.uncontended_ns / 1e3,
            REFERENCE_NS / 1e3,
            self.contended * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe() > 0);
        assert_eq!(Speed::of(&[]), None);
    }

    #[test]
    fn durations_are_scaled_to_reference_speed() {
        let at_ref = REFERENCE_NS as u64;
        assert_eq!(at_reference(500, [at_ref, at_ref]), 500.0);
        // Twice as slow around the op: it took twice its reference time.
        assert_eq!(at_reference(500, [2 * at_ref, 2 * at_ref]), 250.0);
        assert_eq!(at_reference(300, [at_ref, 2 * at_ref]), 200.0);
    }

    #[test]
    fn speed_reports_the_uncontended_probe_and_the_contended_share() {
        // Nine probes at 1 ms and one at 3 ms.
        let mut probes = vec![1_000_000; 9];
        probes.push(3_000_000);
        let s = Speed::of(&probes).expect("probes");
        assert_eq!(s.uncontended_ns, 1e6);
        assert_eq!(s.contended, 0.1);
    }
}
