//! Run-time choice of vector width for the hot kernels.
//!
//! The workspace builds for the x86-64 baseline, SSE2: sixteen 4-lane
//! registers. [`dispatch`] compiles a kernel body a second time for
//! AVX2, sixteen 8-lane registers, and runs that copy when the CPU has
//! AVX2. The body learns which copy it is, so it can pick register
//! tiles for the width. Both copies come from one source, and lane
//! width only changes which outputs are computed side by side, never
//! the order of one output's sum; with no FMA contraction, which Rust
//! never introduces, the two copies return the same bits.

/// The vector width a kernel body was compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lanes {
    /// The build's baseline: 4 f32 lanes per register on x86-64.
    Base,
    /// AVX2: 8 f32 lanes per register.
    Avx2,
}

/// Runs `body` on the widest path this CPU supports.
///
/// Only code inlined into the AVX2 copy is compiled for AVX2, so mark
/// `body` and every function it calls in its hot loop
/// `#[inline(always)]`; a call that is not inlined runs baseline code.
#[inline(always)]
pub fn dispatch<R>(body: impl FnOnce(Lanes) -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` requires only the AVX2 instructions, and the
        // check above found them on this CPU.
        return unsafe { avx2(body) };
    }
    body(Lanes::Base)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(body: impl FnOnce(Lanes) -> R) -> R {
    body(Lanes::Avx2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_reports_the_detected_path() {
        let lanes = dispatch(|lanes| lanes);
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            lanes == Lanes::Avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(lanes, Lanes::Base);
    }
}
