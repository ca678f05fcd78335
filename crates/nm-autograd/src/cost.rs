//! Analytic per-op cost model: FLOPs and bytes moved for every kind in
//! the [`crate::OP_KINDS`] registry.
//!
//! The rules are derived from the op's recorded shapes — the same
//! shapes the op-trace exporter records — so the numbers are exact
//! functions of the workload and bit-identical across same-seed runs.
//! They deliberately count *algorithmic* work (e.g. `2·M·K·N` for a
//! dense matmul, `2·nnz·width` for SpMM) and *compulsory* traffic
//! (operands read once, outputs written once), not cache refills: the
//! quotient `achieved / modeled` is exactly the roofline efficiency the
//! profiler report classifies.
//!
//! `nm-check`'s `profile/op-coverage` rule sweeps [`crate::OP_KINDS`]
//! against [`has_rule`], so an op added to the tape without a cost rule
//! fails CI instead of silently profiling as zero FLOPs.

use std::sync::OnceLock;

/// Shapes feeding one op's cost rule: output plus up to two dense
/// operands (`(0, 0)` when absent), and the sparse operand's `nnz` for
/// `spmm` or the candidate count `idx.len()` for `attend_rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpDims {
    pub out: (usize, usize),
    pub a: (usize, usize),
    pub b: (usize, usize),
    pub nnz: usize,
}

impl OpDims {
    fn out_n(&self) -> u64 {
        (self.out.0 * self.out.1) as u64
    }
    fn a_n(&self) -> u64 {
        (self.a.0 * self.a.1) as u64
    }
    fn b_n(&self) -> u64 {
        (self.b.0 * self.b.1) as u64
    }
}

/// Modeled forward/backward work of one op instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCost {
    pub fwd_flops: u64,
    pub fwd_bytes: u64,
    pub bwd_flops: u64,
    pub bwd_bytes: u64,
}

/// `f32` element size: the only dtype in the workspace.
const S: u64 = 4;

/// CI self-test knob for the differential profile gate: when set, the
/// matmul rule reports doubled forward FLOPs, simulating a cost-model
/// drift that `obs profile --compare` must catch as a strict
/// counter mismatch. Never set outside `scripts/ci.sh`.
fn flops_drift() -> bool {
    static DRIFT: OnceLock<bool> = OnceLock::new();
    *DRIFT.get_or_init(|| std::env::var_os("NMCDR_PROF_FLOPS_DRIFT").is_some())
}

/// The cost rule for `kind`, or `None` for an unregistered kind.
///
/// Every entry of [`crate::OP_KINDS`] must return `Some` — enforced by
/// the `profile/op-coverage` check and the unit sweep below.
pub fn cost_for(kind: &str, d: &OpDims) -> Option<OpCost> {
    let e = d.out_n();
    let ea = d.a_n();
    let eb = d.b_n();
    let c = match kind {
        // Bindings move no data and do no math.
        "leaf" => OpCost::default(),
        // Elementwise binary: one flop per output element; backward
        // copies/reduces per operand (mul also multiplies by the
        // sibling value).
        "add" | "sub" => OpCost {
            fwd_flops: e,
            fwd_bytes: (ea + eb + e) * S,
            bwd_flops: e,
            bwd_bytes: (2 * e + ea + eb) * S,
        },
        "mul" => OpCost {
            fwd_flops: e,
            fwd_bytes: (ea + eb + e) * S,
            bwd_flops: 3 * e,
            bwd_bytes: (3 * e + ea + eb) * S,
        },
        "scale" | "neg" => OpCost {
            fwd_flops: e,
            fwd_bytes: 2 * e * S,
            bwd_flops: e,
            bwd_bytes: 2 * e * S,
        },
        "add_scalar" => OpCost {
            fwd_flops: e,
            fwd_bytes: 2 * e * S,
            bwd_flops: 0,
            bwd_bytes: 2 * e * S,
        },
        // Dense `(M x K) @ (K x N)`: the multiply-add pair per cell;
        // backward is two matmuls of the same volume.
        "matmul" => {
            let (m, n) = (d.out.0 as u64, d.out.1 as u64);
            let k = d.a.1 as u64;
            let fwd = 2 * m * k * n;
            OpCost {
                fwd_flops: if flops_drift() { 2 * fwd } else { fwd },
                fwd_bytes: (m * k + k * n + m * n) * S,
                bwd_flops: 2 * fwd,
                bwd_bytes: 2 * (m * k + k * n + m * n) * S,
            }
        }
        "relu" => OpCost {
            fwd_flops: e,
            fwd_bytes: 2 * e * S,
            bwd_flops: e,
            bwd_bytes: 3 * e * S,
        },
        // Transcendental elementwise: exp-class, budgeted at 4 flops.
        "sigmoid" | "tanh" | "softplus" => OpCost {
            fwd_flops: 4 * e,
            fwd_bytes: 2 * e * S,
            bwd_flops: 3 * e,
            bwd_bytes: 3 * e * S,
        },
        // max, subtract, exp, sum, divide per element.
        "softmax_rows" => OpCost {
            fwd_flops: 5 * e,
            fwd_bytes: 2 * e * S,
            bwd_flops: 4 * e,
            bwd_bytes: 3 * e * S,
        },
        "concat_cols" => OpCost {
            fwd_flops: 0,
            fwd_bytes: 2 * e * S,
            bwd_flops: 0,
            bwd_bytes: 2 * e * S,
        },
        // Backward zero-fills the parent and scatters the slice back.
        "slice_cols" => OpCost {
            fwd_flops: 0,
            fwd_bytes: 2 * e * S,
            bwd_flops: e,
            bwd_bytes: (e + ea) * S,
        },
        "gather_rows" => OpCost {
            fwd_flops: 0,
            fwd_bytes: 2 * e * S,
            bwd_flops: e,
            bwd_bytes: (2 * e + ea) * S,
        },
        // CSR `A @ x`: multiply-add per stored entry per output column;
        // each entry is a (f32, u32) pair = 8 bytes. Backward is one
        // SpMM with the transpose — same volume.
        "spmm" => {
            let width = d.out.1 as u64;
            let nnz = d.nnz as u64;
            OpCost {
                fwd_flops: 2 * nnz * width,
                fwd_bytes: nnz * 8 + (ea + e) * S,
                bwd_flops: 2 * nnz * width,
                bwd_bytes: nnz * 8 + (ea + e) * S,
            }
        }
        "rowwise_dot" => {
            let r = d.out.0 as u64;
            OpCost {
                fwd_flops: 2 * ea,
                fwd_bytes: (ea + eb + r) * S,
                bwd_flops: 2 * ea,
                bwd_bytes: (2 * ea + 2 * eb + r) * S,
            }
        }
        "sum_all" => OpCost {
            fwd_flops: ea,
            fwd_bytes: (ea + 1) * S,
            bwd_flops: 0,
            bwd_bytes: ea * S,
        },
        "mean_all" => OpCost {
            fwd_flops: ea + 1,
            fwd_bytes: (ea + 1) * S,
            bwd_flops: ea,
            bwd_bytes: ea * S,
        },
        "sum_axis_cols" => {
            let r = d.out.0 as u64;
            OpCost {
                fwd_flops: ea,
                fwd_bytes: (ea + r) * S,
                bwd_flops: ea,
                bwd_bytes: (ea + r) * S,
            }
        }
        "sum_squares" => OpCost {
            fwd_flops: 2 * ea,
            fwd_bytes: (ea + 1) * S,
            bwd_flops: ea,
            bwd_bytes: 2 * ea * S,
        },
        // softplus(x) - x*y summed, then the fused sigmoid gradient.
        "bce_with_logits" => OpCost {
            fwd_flops: 6 * ea,
            fwd_bytes: (2 * ea + 1) * S,
            bwd_flops: 3 * ea,
            bwd_bytes: 3 * ea * S,
        },
        // Per candidate (nnz = N·C of them, width D): a D-wide dot, the
        // softmax's 5 flops, and a D-wide weighted add forward; backward
        // re-dots for the scores gradient, runs the softmax adjoint, and
        // forms the user-row and candidate-row gradients. Candidate rows
        // are read once per pass; each index is 4 bytes.
        "attend_rows" => {
            let width = d.out.1 as u64;
            let nnz = d.nnz as u64;
            OpCost {
                fwd_flops: 4 * nnz * width + 5 * nnz,
                fwd_bytes: (ea + nnz * width + nnz + e) * S + nnz * 4,
                bwd_flops: 8 * nnz * width + 4 * nnz,
                bwd_bytes: (e + nnz + 2 * ea + nnz * width + eb) * S + nnz * 4,
            }
        }
        _ => return None,
    };
    Some(c)
}

/// Whether `kind` has a cost rule — the probe the `profile/op-coverage`
/// check in nm-check runs over the whole [`crate::OP_KINDS`] registry.
pub fn has_rule(kind: &str) -> bool {
    let probe = OpDims {
        out: (4, 4),
        a: (4, 4),
        b: (4, 4),
        nnz: 8,
    };
    cost_for(kind, &probe).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OP_KINDS;

    #[test]
    fn every_registered_kind_has_a_rule() {
        for kind in OP_KINDS {
            assert!(has_rule(kind), "no cost rule for op kind {kind:?}");
        }
    }

    #[test]
    fn unregistered_kind_has_no_rule() {
        assert!(!has_rule("conv2d"));
        assert!(!has_rule(""));
    }

    #[test]
    fn matmul_counts_the_classic_2mkn() {
        let d = OpDims {
            out: (3, 5),
            a: (3, 4),
            b: (4, 5),
            nnz: 0,
        };
        let c = cost_for("matmul", &d).unwrap();
        assert_eq!(c.fwd_flops, 2 * 3 * 4 * 5);
        assert_eq!(c.bwd_flops, 2 * c.fwd_flops);
        assert_eq!(c.fwd_bytes, (12 + 20 + 15) * 4);
    }

    #[test]
    fn spmm_scales_with_nnz_and_width() {
        let d = OpDims {
            out: (10, 7),
            a: (20, 7),
            b: (0, 0),
            nnz: 33,
        };
        let c = cost_for("spmm", &d).unwrap();
        assert_eq!(c.fwd_flops, 2 * 33 * 7);
        assert_eq!(c.fwd_flops, c.bwd_flops);
    }

    #[test]
    fn leaf_is_free() {
        let d = OpDims {
            out: (8, 8),
            a: (0, 0),
            b: (0, 0),
            nnz: 0,
        };
        assert_eq!(cost_for("leaf", &d).unwrap(), OpCost::default());
    }
}
