//! # nm-check
//!
//! Static analysis for the NMCDR workspace. Three passes, all runnable
//! through `nmcdr check` and `scripts/ci.sh`:
//!
//! 1. [`shape`] — a symbolic shape & graph verifier over the
//!    declarative op-trace exported by `nm_autograd::Tape`. It
//!    re-derives every node's output shape from independent per-op
//!    rules, verifies broadcast legality, DAG/topological order,
//!    parameter→loss reachability (no silently-zero gradients), and —
//!    by diffing traces recorded at two batch-size pairs — that batch
//!    dims propagate symbolically (a `B` can never leak into a `D`
//!    slot).
//! 2. [`lint`] — a lexer-level workspace linter enforcing repo
//!    invariants: no `unwrap`/`expect`/`panic!` in library non-test
//!    code, no wall-clock reads outside `nm-obs`/`nm-bench`, no
//!    `HashMap`/`HashSet` in snapshot/checkpoint serialization paths,
//!    `// SAFETY:` before every `unsafe` block. A checked-in count
//!    allowlist lets legacy debt burn down while new violations fail.
//! 3. [`sched`] — a mini-loom model checker: deterministic virtual
//!    threads, exhaustive DFS over interleavings with optional
//!    preemption bounding, deadlock (lost-wakeup) detection. It checks
//!    only production code: [`sched::cores`] runs the `nm-sync` cores
//!    (the `nm-serve` coalescer, connection gate, exemplar ring and
//!    breaker bank, and the `nm-obs` sampler ring) under a virtual
//!    backend.
//!
//! Every pass reports [`Diagnostic`]s instead of panicking; the
//! negative-test suite (`tests/negative_suite.rs`) seeds one defect per
//! check and asserts exactly the intended pass fires.

pub mod lint;
pub mod sched;
pub mod shape;

use nm_obs::json::escape;

/// Which analysis pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    Shape,
    Lint,
    Sched,
}

impl Pass {
    pub fn name(self) -> &'static str {
        match self {
            Pass::Shape => "shape",
            Pass::Lint => "lint",
            Pass::Sched => "sched",
        }
    }
}

/// One finding. `location` is `file:line` for lint, a node index or
/// parameter name for shape, a schedule description for sched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub pass: Pass,
    /// Stable machine-readable rule id, e.g. `shape/broadcast`,
    /// `lint/no-unwrap`, `sched/deadlock`.
    pub rule: String,
    pub location: String,
    pub message: String,
}

impl Diagnostic {
    pub fn new(
        pass: Pass,
        rule: impl Into<String>,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            pass,
            rule: rule.into(),
            location: location.into(),
            message: message.into(),
        }
    }

    /// `pass/rule location: message`, the format ci greps for.
    pub fn render(&self) -> String {
        format!("{} {}: {}", self.rule, self.location, self.message)
    }
}

/// Renders diagnostics as a JSON array (machine-readable report).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("[");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"pass\":\"{}\",\"rule\":{},\"location\":{},\"message\":{}}}",
            d.pass.name(),
            escape(&d.rule),
            escape(&d.location),
            escape(&d.message)
        ));
    }
    out.push(']');
    out
}
