//! Mini-loom: deterministic virtual threads + systematic interleaving
//! enumeration over the production concurrency code.
//!
//! [`virt::explore_virtual`] runs the *actual* `nm-sync` cores —
//! coalescer, connection gate, exemplar ring, breaker bank, sampler
//! ring — under a virtual [`nm_sync::Backend`] whose
//! blocking ops are the scheduling points (harnesses in [`cores`]). It
//! searches every schedule — every order in which runnable threads can
//! be stepped — depth first, optionally bounded by a preemption budget
//! (switching away from a still-runnable thread costs one preemption;
//! most real bugs need only a few, so a small bound explores the
//! dangerous schedules first, cf. CHESS-style bounded model checking).
//!
//! Each case checks its invariant when every thread is done, and a
//! state where no thread is runnable but some are unfinished is
//! reported as a deadlock — which is exactly what a lost wakeup looks
//! like in this framework.

pub mod cores;
pub mod virt;

use crate::{Diagnostic, Pass};

/// Options for [`virt::explore_virtual`].
#[derive(Debug, Clone)]
pub struct ExploreOpts {
    /// Max preemptions per schedule; `None` = unbounded (full DFS).
    pub preemption_bound: Option<u32>,
    /// Stop after this many complete schedules (runaway guard).
    pub max_schedules: u64,
}

impl Default for ExploreOpts {
    fn default() -> Self {
        Self {
            preemption_bound: None,
            max_schedules: 2_000_000,
        }
    }
}

/// Result of exploring a case's schedule space.
#[derive(Debug)]
pub struct Explored {
    /// Complete schedules enumerated (distinct by construction — DFS
    /// never revisits a prefix with the same next choice).
    pub schedules: u64,
    /// Hit `max_schedules` before exhausting the space.
    pub truncated: bool,
    /// First violation found, with the schedule that produced it.
    pub violation: Option<Violation>,
}

#[derive(Debug, Clone)]
pub struct Violation {
    /// Thread ids in step order reproducing the failure.
    pub schedule: Vec<usize>,
    pub message: String,
}

impl Explored {
    /// Renders into a diagnostic for the named case, if a violation was
    /// found.
    pub fn to_diagnostic(&self, case: &str) -> Option<Diagnostic> {
        self.violation.as_ref().map(|v| {
            Diagnostic::new(
                Pass::Sched,
                "sched/violation",
                case.to_string(),
                format!("{} [schedule {:?}]", v.message, v.schedule),
            )
        })
    }
}
