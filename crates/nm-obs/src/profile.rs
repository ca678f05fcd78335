//! Kernel-profile artifacts: the deterministic per-op profile dump
//! behind `train --profile-out`, the roofline report behind
//! `nmcdr obs profile`, and the differential gate behind
//! `nmcdr obs profile --compare`.
//!
//! ## Two artifacts, one discipline
//!
//! The profiler's output is deliberately split across two files with
//! different determinism contracts:
//!
//! * **The profile dump** (`--profile-out`) holds only values that are
//!   exact functions of the workload: per-op-kind call counts, modeled
//!   FLOPs/bytes from the analytic cost rules, and tensor-allocation
//!   traffic. Two same-seed runs produce *byte-identical* dumps, so CI
//!   can `cmp` them, and any drift in the cost model or the op stream
//!   is a hard failure of [`compare`].
//! * **Measured self-times** (`obs.profile.time`) and the micro-probed
//!   machine peaks (`obs.profile.peaks`) are emitted into the normal
//!   trace, which is already understood to be machine-dependent.
//!   [`compare`] diffs them under noise-aware thresholds: a time fails
//!   only past both a relative tolerance and an absolute floor.
//!
//! Both files use the trace line schema (version 1) and are parsed by
//! the same strict parser as every other trace — unknown fields, type
//! mismatches, and non-monotonic tick ordinals are errors.

use crate::clock::Stopwatch;
use crate::parse::{parse_trace, payload};
use crate::report::TraceRecord;
use crate::trace::{event_line, meta_line, EventBuilder};
use nm_tensor::lanes;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Deterministic per-op-kind counters from one run — the payload of an
/// `obs.profile.op` dump event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounters {
    pub kind: String,
    pub fwd_calls: u64,
    pub bwd_calls: u64,
    pub fwd_flops: u64,
    pub bwd_flops: u64,
    pub fwd_bytes: u64,
    pub bwd_bytes: u64,
    pub alloc_b: u64,
    pub freed_b: u64,
}

impl OpCounters {
    fn flops(&self) -> u64 {
        self.fwd_flops + self.bwd_flops
    }
    fn bytes(&self) -> u64 {
        self.fwd_bytes + self.bwd_bytes
    }
}

/// Run-level tensor allocation accounting — the payload of the
/// `obs.alloc.summary` dump event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSummary {
    pub allocated_b: u64,
    pub freed_b: u64,
    pub peak_b: u64,
}

/// A parsed profile dump: canonical op rows plus the alloc summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileDump {
    pub ops: Vec<OpCounters>,
    pub alloc: AllocSummary,
}

/// Measured self-time for one op kind, summed over all
/// `obs.profile.time` events of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpTiming {
    pub fwd_calls: u64,
    pub bwd_calls: u64,
    pub fwd_ns: u64,
    pub bwd_ns: u64,
}

impl OpTiming {
    pub fn total_ns(&self) -> u64 {
        self.fwd_ns + self.bwd_ns
    }
}

/// Micro-probed machine peaks: the roofline's two ceilings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peaks {
    pub gflops: f64,
    pub gbps: f64,
}

impl Peaks {
    /// The machine balance point in flop/byte: ops with a higher
    /// arithmetic intensity are compute-bound, lower are memory-bound.
    pub fn balance(&self) -> f64 {
        if self.gbps > 0.0 {
            self.gflops / self.gbps
        } else {
            0.0
        }
    }
}

// ---------------------------------------------------------------------
// Dump rendering and parsing
// ---------------------------------------------------------------------

/// Renders the canonical profile dump: trace-schema lines, ops sorted
/// by kind, every timestamp zero. A pure function of the counters, so
/// same-seed runs render byte-identical dumps.
pub fn render_dump(ops: &[OpCounters], alloc: &AllocSummary) -> String {
    let mut sorted: Vec<&OpCounters> = ops.iter().collect();
    sorted.sort_by(|a, b| a.kind.cmp(&b.kind));
    // every line's seq is its index: the meta line is seq 0
    let mut lines = vec![meta_line(0)];
    for (i, op) in sorted.iter().enumerate() {
        let mut f = EventBuilder::default();
        f.u("tick", i as u64)
            .s("kind", &op.kind)
            .u("fwd_calls", op.fwd_calls)
            .u("bwd_calls", op.bwd_calls)
            .u("fwd_flops", op.fwd_flops)
            .u("bwd_flops", op.bwd_flops)
            .u("fwd_bytes", op.fwd_bytes)
            .u("bwd_bytes", op.bwd_bytes)
            .u("alloc_b", op.alloc_b)
            .u("freed_b", op.freed_b);
        lines.push(event_line("obs.profile.op", 0, 0, lines.len() as u64, &f));
    }
    let mut f = EventBuilder::default();
    f.u("tick", sorted.len() as u64)
        .u("allocated_b", alloc.allocated_b)
        .u("freed_b", alloc.freed_b)
        .u("peak_b", alloc.peak_b);
    lines.push(event_line(
        "obs.alloc.summary",
        0,
        0,
        lines.len() as u64,
        &f,
    ));
    lines.iter().map(|l| format!("{l}\n")).collect()
}

/// Parses a profile dump strictly: the trace schema checks run first
/// (so unknown fields, bad types, and tick regressions are rejected),
/// then the dump-specific shape is enforced — only `obs.profile.op`
/// events in canonical kind order plus exactly one `obs.alloc.summary`.
pub fn parse_dump(text: &str) -> Result<ProfileDump, String> {
    let mut ops: Vec<OpCounters> = Vec::new();
    let mut alloc: Option<AllocSummary> = None;
    for (i, record) in parse_trace(text)?.iter().enumerate() {
        let n = i + 1;
        let (name, f) = match record {
            TraceRecord::Meta { .. } => continue,
            TraceRecord::Event { name, f, .. } => (name.as_str(), f),
            TraceRecord::Span { .. } => {
                return Err(format!(
                    "record {n}: unexpected record type in a profile dump (events only)"
                ))
            }
        };
        match name {
            "obs.profile.op" => {
                let p = payload(name, f)?;
                let kind = p.str("kind")?;
                if let Some(prev) = ops.last() {
                    if prev.kind.as_str() >= kind {
                        return Err(format!(
                            "record {n}: op kind {kind:?} out of canonical order (after {:?})",
                            prev.kind
                        ));
                    }
                }
                if alloc.is_some() {
                    return Err(format!(
                        "record {n}: obs.profile.op after obs.alloc.summary"
                    ));
                }
                ops.push(OpCounters {
                    kind: kind.to_string(),
                    fwd_calls: p.u64("fwd_calls")?,
                    bwd_calls: p.u64("bwd_calls")?,
                    fwd_flops: p.u64("fwd_flops")?,
                    bwd_flops: p.u64("bwd_flops")?,
                    fwd_bytes: p.u64("fwd_bytes")?,
                    bwd_bytes: p.u64("bwd_bytes")?,
                    alloc_b: p.u64("alloc_b")?,
                    freed_b: p.u64("freed_b")?,
                });
            }
            "obs.alloc.summary" => {
                if alloc.is_some() {
                    return Err(format!("record {n}: duplicate obs.alloc.summary"));
                }
                let p = payload(name, f)?;
                alloc = Some(AllocSummary {
                    allocated_b: p.u64("allocated_b")?,
                    freed_b: p.u64("freed_b")?,
                    peak_b: p.u64("peak_b")?,
                });
            }
            other => {
                return Err(format!(
                    "record {n}: unexpected record {other:?} in a profile dump"
                ))
            }
        }
    }
    let alloc = alloc.ok_or("profile dump has no obs.alloc.summary record")?;
    if ops.is_empty() {
        return Err("profile dump records no op kinds".into());
    }
    Ok(ProfileDump { ops, alloc })
}

/// Extracts per-op self-times (summed over every `obs.profile.time`
/// event) and the last `obs.profile.peaks` from a trace. The trace is
/// parsed strictly first, like every other consumer.
pub fn parse_trace_timings(
    text: &str,
) -> Result<(BTreeMap<String, OpTiming>, Option<Peaks>), String> {
    let mut timings: BTreeMap<String, OpTiming> = BTreeMap::new();
    let mut peaks = None;
    for record in parse_trace(text)? {
        let TraceRecord::Event { name, f, .. } = &record else {
            continue;
        };
        match name.as_str() {
            "obs.profile.time" => {
                let p = payload(name, f)?;
                let t = timings.entry(p.str("kind")?.to_string()).or_default();
                t.fwd_calls += p.u64("fwd_calls")?;
                t.bwd_calls += p.u64("bwd_calls")?;
                t.fwd_ns += p.u64("fwd_ns")?;
                t.bwd_ns += p.u64("bwd_ns")?;
            }
            "obs.profile.peaks" => {
                let p = payload(name, f)?;
                peaks = Some(Peaks {
                    gflops: p.f64("gflops")?,
                    gbps: p.f64("gbps")?,
                });
            }
            _ => {}
        }
    }
    Ok((timings, peaks))
}

// ---------------------------------------------------------------------
// Machine-peak micro-probes
// ---------------------------------------------------------------------

/// Micro-probes this machine's two roofline ceilings: single-thread
/// f32 multiply-add throughput and large-copy memory bandwidth. Each
/// probe runs for ~10ms on the sanctioned clock. The result is
/// machine-dependent by nature, so it is emitted into the *trace*
/// (`obs.profile.peaks`), never into the deterministic dump.
pub fn probe_peaks() -> Peaks {
    Peaks {
        // on the widest path the matmul and SpMM kernels run
        gflops: lanes::dispatch(
            #[inline(always)]
            |_| probe_gflops(),
        ),
        gbps: probe_gbps(),
    }
}

/// 64 independent multiply-add chains: enough to keep both the
/// multiplier and the adder busy through their latency, so the loop
/// measures throughput, not the latency of a few chains. The decay
/// multiplier keeps the accumulators at a finite nonzero steady state
/// (~1e-3).
#[inline(always)]
fn probe_gflops() -> f64 {
    const CHAINS: usize = 64;
    let mut acc = [1.0f32; CHAINS];
    let m = 0.999_999f32;
    let mut flops = 0u64;
    let sw = Stopwatch::start();
    loop {
        for _ in 0..50_000 {
            for a in acc.iter_mut() {
                *a = *a * m + 1e-9;
            }
        }
        flops += 50_000 * CHAINS as u64 * 2;
        if sw.elapsed_us() >= 10_000 {
            break;
        }
    }
    std::hint::black_box(acc);
    // flops per nanosecond is exactly GFLOP/s
    flops as f64 / (sw.elapsed_us().max(1) as f64 * 1_000.0)
}

fn probe_gbps() -> f64 {
    const LEN: usize = 1 << 22; // 4 MiB: larger than L2 on typical hosts
    let src = vec![1u8; LEN];
    let mut dst = vec![0u8; LEN];
    let mut bytes = 0u64;
    let sw = Stopwatch::start();
    loop {
        dst.copy_from_slice(std::hint::black_box(&src[..]));
        std::hint::black_box(&dst);
        bytes += 2 * LEN as u64; // one read + one write stream
        if sw.elapsed_us() >= 10_000 {
            break;
        }
    }
    // bytes per nanosecond is exactly GB/s
    bytes as f64 / (sw.elapsed_us().max(1) as f64 * 1_000.0)
}

// ---------------------------------------------------------------------
// Report rendering
// ---------------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 10_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Roofline classification of one op row.
fn classify(flops: u64, bytes: u64, balance: Option<f64>) -> &'static str {
    if flops == 0 && bytes == 0 {
        return "-";
    }
    if flops == 0 {
        return "memory";
    }
    match balance {
        Some(b) => {
            let ai = flops as f64 / bytes.max(1) as f64;
            if ai >= b {
                "compute"
            } else {
                "memory"
            }
        }
        None => "?",
    }
}

/// Renders the top-ops roofline report. A pure function of its inputs
/// — the golden test pins its bytes for a fixed dump + trace pair.
///
/// Rows are the dump's op kinds joined with the trace's measured
/// self-times, sorted by total self-time descending (ties by kind);
/// kinds with no measured time sink to the bottom in kind order.
pub fn render_report(
    dump: &ProfileDump,
    timings: &BTreeMap<String, OpTiming>,
    peaks: Option<&Peaks>,
) -> String {
    let mut rows: Vec<(&OpCounters, OpTiming)> = dump
        .ops
        .iter()
        .map(|op| (op, timings.get(&op.kind).copied().unwrap_or_default()))
        .collect();
    rows.sort_by(|a, b| {
        b.1.total_ns()
            .cmp(&a.1.total_ns())
            .then(a.0.kind.cmp(&b.0.kind))
    });
    let total_ns: u64 = rows.iter().map(|(_, t)| t.total_ns()).sum();
    let total_flops: u64 = dump.ops.iter().map(OpCounters::flops).sum();
    let total_bytes: u64 = dump.ops.iter().map(OpCounters::bytes).sum();
    let balance = peaks.map(Peaks::balance);

    let name_w = rows
        .iter()
        .map(|(op, _)| op.kind.len())
        .chain(std::iter::once("op".len()))
        .max()
        .unwrap_or(2);
    let mut out = String::new();
    if let Some(p) = peaks {
        let _ = writeln!(
            out,
            "machine peaks: {:.2} GFLOP/s, {:.2} GB/s (balance {:.2} flop/B)",
            p.gflops,
            p.gbps,
            p.balance()
        );
    }
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>9}  {:>9}  {:>9}  {:>6}  {:>8}  {:>8}  {:>7}  class",
        "op", "calls", "fwd", "bwd", "time%", "GFLOP/s", "GB/s", "AI"
    );
    for (op, t) in &rows {
        let calls = op.fwd_calls + op.bwd_calls;
        let pct = if total_ns == 0 {
            0.0
        } else {
            100.0 * t.total_ns() as f64 / total_ns as f64
        };
        let ns = t.total_ns();
        let gflops = if ns == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", op.flops() as f64 / ns as f64)
        };
        let gbps = if ns == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", op.bytes() as f64 / ns as f64)
        };
        let ai = if op.bytes() == 0 {
            "-".to_string()
        } else {
            format!("{:.2}", op.flops() as f64 / op.bytes() as f64)
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>9}  {:>9}  {:>9}  {:>5.1}%  {:>8}  {:>8}  {:>7}  {}",
            op.kind,
            calls,
            fmt_ns(t.fwd_ns),
            fmt_ns(t.bwd_ns),
            pct,
            gflops,
            gbps,
            ai,
            classify(op.flops(), op.bytes(), balance),
        );
    }
    let _ = writeln!(
        out,
        "total: {} self time, {} modeled GFLOP, {} modeled MB moved",
        fmt_ns(total_ns),
        format_args!("{:.3}", total_flops as f64 / 1e9),
        format_args!("{:.3}", total_bytes as f64 / 1e6),
    );
    let _ = writeln!(
        out,
        "alloc: {} B allocated, {} B freed, peak live {} B",
        dump.alloc.allocated_b, dump.alloc.freed_b, dump.alloc.peak_b
    );
    out
}

// ---------------------------------------------------------------------
// Differential gate
// ---------------------------------------------------------------------

/// Thresholds for the timing half of [`compare`]. Counters are always
/// diffed strictly — they are deterministic, so *any* drift fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Bad-direction change (fraction of the old time) that fails.
    pub rel_tol: f64,
    /// Bad-direction deltas below this never fail, whatever the
    /// percentage — kills flakes on near-zero op times.
    pub abs_floor_ns: u64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        Self {
            rel_tol: 0.50,
            abs_floor_ns: 200_000,
        }
    }
}

/// One op kind's timing verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingVerdict {
    pub kind: String,
    pub old_ns: u64,
    pub new_ns: u64,
    /// Signed bad-direction change as a fraction of the old time
    /// (positive = slower).
    pub worse_frac: f64,
    pub regressed: bool,
}

/// The full compare outcome: strict counter drifts plus noise-aware
/// timing verdicts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDiff {
    /// Deterministic-counter mismatches (op stream, cost model, alloc
    /// traffic). Any entry fails the gate.
    pub counter_drifts: Vec<String>,
    pub timings: Vec<TimingVerdict>,
    /// Op kinds with measured time on only one side (skipped).
    pub timing_skipped: usize,
}

impl ProfileDiff {
    pub fn failed(&self) -> bool {
        !self.counter_drifts.is_empty() || self.timings.iter().any(|t| t.regressed)
    }
}

fn diff_counter(drifts: &mut Vec<String>, kind: &str, field: &str, old: u64, new: u64) {
    if old != new {
        drifts.push(format!("{kind}: {field} {old} -> {new}"));
    }
}

/// Diffs two profile runs. Counters (call counts, modeled FLOPs/bytes,
/// allocation traffic) must match *exactly* — they are deterministic,
/// so any drift means the op stream or the cost model changed. Timings
/// are compared per op kind under `cfg`'s noise-aware thresholds.
pub fn compare(
    new: &ProfileDump,
    new_t: &BTreeMap<String, OpTiming>,
    old: &ProfileDump,
    old_t: &BTreeMap<String, OpTiming>,
    cfg: &CompareConfig,
) -> ProfileDiff {
    let mut d = ProfileDiff::default();
    let by_kind = |dump: &ProfileDump| -> BTreeMap<String, OpCounters> {
        dump.ops
            .iter()
            .map(|o| (o.kind.clone(), o.clone()))
            .collect()
    };
    let old_ops = by_kind(old);
    let new_ops = by_kind(new);
    for kind in old_ops.keys() {
        if !new_ops.contains_key(kind) {
            d.counter_drifts
                .push(format!("{kind}: only in old profile"));
        }
    }
    for (kind, n) in &new_ops {
        let Some(o) = old_ops.get(kind) else {
            d.counter_drifts
                .push(format!("{kind}: only in new profile"));
            continue;
        };
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "fwd_calls",
            o.fwd_calls,
            n.fwd_calls,
        );
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "bwd_calls",
            o.bwd_calls,
            n.bwd_calls,
        );
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "fwd_flops",
            o.fwd_flops,
            n.fwd_flops,
        );
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "bwd_flops",
            o.bwd_flops,
            n.bwd_flops,
        );
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "fwd_bytes",
            o.fwd_bytes,
            n.fwd_bytes,
        );
        diff_counter(
            &mut d.counter_drifts,
            kind,
            "bwd_bytes",
            o.bwd_bytes,
            n.bwd_bytes,
        );
        diff_counter(&mut d.counter_drifts, kind, "alloc_b", o.alloc_b, n.alloc_b);
        diff_counter(&mut d.counter_drifts, kind, "freed_b", o.freed_b, n.freed_b);
    }
    diff_counter(
        &mut d.counter_drifts,
        "alloc",
        "allocated_b",
        old.alloc.allocated_b,
        new.alloc.allocated_b,
    );
    diff_counter(
        &mut d.counter_drifts,
        "alloc",
        "freed_b",
        old.alloc.freed_b,
        new.alloc.freed_b,
    );
    diff_counter(
        &mut d.counter_drifts,
        "alloc",
        "peak_b",
        old.alloc.peak_b,
        new.alloc.peak_b,
    );

    for (kind, nt) in new_t {
        let Some(ot) = old_t.get(kind) else {
            d.timing_skipped += 1;
            continue;
        };
        let (old_ns, new_ns) = (ot.total_ns(), nt.total_ns());
        let worse = new_ns as f64 - old_ns as f64;
        let worse_frac = if old_ns > 0 {
            worse / old_ns as f64
        } else if new_ns > 0 {
            f64::INFINITY
        } else {
            0.0
        };
        let regressed =
            worse_frac > cfg.rel_tol && new_ns.saturating_sub(old_ns) > cfg.abs_floor_ns;
        d.timings.push(TimingVerdict {
            kind: kind.clone(),
            old_ns,
            new_ns,
            worse_frac,
            regressed,
        });
    }
    d.timing_skipped += old_t.keys().filter(|k| !new_t.contains_key(*k)).count();
    d
}

/// Renders the compare outcome deterministically — the golden test
/// pins these bytes for fixed inputs.
pub fn render_verdict(d: &ProfileDiff, cfg: &CompareConfig) -> String {
    let mut out = String::new();
    if d.counter_drifts.is_empty() {
        let _ = writeln!(out, "counters: OK (deterministic counters match exactly)");
    } else {
        let _ = writeln!(out, "counters: {} drift(s)", d.counter_drifts.len());
        for line in &d.counter_drifts {
            let _ = writeln!(out, "  {line}");
        }
    }
    if !d.timings.is_empty() {
        let _ = writeln!(
            out,
            "timing (fails past +{:.0}% and +{}):",
            cfg.rel_tol * 100.0,
            fmt_ns(cfg.abs_floor_ns)
        );
        let name_w = d
            .timings
            .iter()
            .map(|t| t.kind.len())
            .chain(std::iter::once("op".len()))
            .max()
            .unwrap_or(2);
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>9}  {:>9}  {:>8}  verdict",
            "op", "old", "new", "change"
        );
        for t in &d.timings {
            let change = if t.worse_frac.is_infinite() {
                "    +inf%".to_string()
            } else {
                format!("{:>+8.1}%", t.worse_frac * 100.0)
            };
            let _ = writeln!(
                out,
                "{:<name_w$}  {:>9}  {:>9}  {}  {}",
                t.kind,
                fmt_ns(t.old_ns),
                fmt_ns(t.new_ns),
                change,
                if t.regressed { "REGRESSED" } else { "ok" }
            );
        }
    }
    if d.timing_skipped > 0 {
        let _ = writeln!(
            out,
            "({} op kind(s) with time on only one side skipped)",
            d.timing_skipped
        );
    }
    let _ = writeln!(
        out,
        "profile compare: {}",
        if d.failed() { "FAIL" } else { "PASS" }
    );
    out
}

/// Formats one `obs.profile.time` payload field list — shared by the
/// trainer and the stream runner so the two emitters cannot drift.
pub fn time_event_fields(e: &mut EventBuilder, tick: u64, kind: &str, t: &OpTiming) {
    e.u("tick", tick)
        .s("kind", kind)
        .u("fwd_calls", t.fwd_calls)
        .u("bwd_calls", t.bwd_calls)
        .u("fwd_ns", t.fwd_ns)
        .u("bwd_ns", t.bwd_ns);
}

/// Hands out ticks for `obs.profile.time` events: a process-global
/// emission ordinal rather than the raw epoch number. Resume and
/// rollback paths (the streaming loop's drift rollback) legitimately
/// revisit earlier epoch numbers, and the strict parser rejects a
/// regressing tick — an emission ordinal never regresses.
pub fn next_time_tick() -> u64 {
    static TIME_TICK: AtomicU64 = AtomicU64::new(0);
    TIME_TICK.fetch_add(1, Ordering::Relaxed)
}

/// Machine peaks, micro-probed once per process and cached — emitters
/// that fire once per round (the streaming loop) reuse the first
/// probe instead of burning ~20ms of probe time every round.
pub fn cached_peaks() -> &'static Peaks {
    static PEAKS: OnceLock<Peaks> = OnceLock::new();
    PEAKS.get_or_init(probe_peaks)
}

/// Emits the `obs.profile.peaks` trace event for `p`.
pub fn emit_peaks_event(p: &Peaks) {
    crate::trace::event("obs.profile.peaks", |e| {
        e.f("gflops", p.gflops).f("gbps", p.gbps);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(kind: &str, fwd_flops: u64, fwd_bytes: u64) -> OpCounters {
        OpCounters {
            kind: kind.into(),
            fwd_calls: 10,
            bwd_calls: 10,
            fwd_flops,
            bwd_flops: 2 * fwd_flops,
            fwd_bytes,
            bwd_bytes: 2 * fwd_bytes,
            alloc_b: 64,
            freed_b: 32,
        }
    }

    fn alloc() -> AllocSummary {
        AllocSummary {
            allocated_b: 4096,
            freed_b: 4000,
            peak_b: 512,
        }
    }

    #[test]
    fn dump_roundtrips_byte_stably() {
        let ops = vec![op("matmul", 1000, 480), op("add", 16, 192)];
        let text = render_dump(&ops, &alloc());
        let parsed = parse_dump(&text).unwrap();
        // canonical order is by kind, whatever the input order
        assert_eq!(parsed.ops[0].kind, "add");
        assert_eq!(parsed.ops[1].kind, "matmul");
        assert_eq!(parsed.alloc, alloc());
        // render(parse(render(x))) == render(x): the dump is canonical
        assert_eq!(render_dump(&parsed.ops, &parsed.alloc), text);
    }

    #[test]
    fn dump_parse_rejects_non_canonical_shapes() {
        let good = render_dump(&[op("matmul", 1000, 480)], &alloc());
        // reordering kinds out of sorted order
        let swapped = render_dump(&[op("b_op", 1, 1), op("a_op", 1, 1)], &alloc());
        assert!(parse_dump(&swapped).is_ok(), "render sorts canonically");
        let tampered = good.replace("\"kind\":\"matmul\"", "\"kind\":\"zzz\"");
        assert!(parse_dump(&tampered).is_ok()); // still sorted (single op)
                                                // a span record does not belong in a dump
        let with_span = format!(
            "{good}{}",
            "{\"t\":\"span\",\"name\":\"x\",\"start_us\":0,\"dur_us\":1,\"self_us\":1,\"depth\":0,\"tid\":0,\"seq\":99}\n"
        );
        assert!(parse_dump(&with_span)
            .unwrap_err()
            .contains("unexpected record"));
        // missing alloc summary
        let no_alloc: String = good
            .lines()
            .filter(|l| !l.contains("obs.alloc.summary"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_dump(&no_alloc)
            .unwrap_err()
            .contains("no obs.alloc.summary"));
        // no ops at all
        let no_ops: String = good
            .lines()
            .filter(|l| !l.contains("obs.profile.op"))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(parse_dump(&no_ops).unwrap_err().contains("no op kinds"));
    }

    #[test]
    fn dump_parse_rejects_out_of_order_kinds() {
        let a = render_dump(&[op("a_op", 1, 1), op("b_op", 2, 2)], &alloc());
        // swap the two op lines but fix seq/tick so the trace-schema
        // checks pass and only the kind-order check can object
        let lines: Vec<&str> = a.lines().collect();
        let l1 = lines[1]
            .replace("\"seq\":1", "\"seq\":9")
            .replace("\"tick\":0", "\"tick\":9");
        let swapped = format!("{}\n{}\n{}\n{}\n", lines[0], lines[2], l1, lines[3]);
        let err = parse_dump(&swapped).unwrap_err();
        assert!(err.contains("out of canonical order"), "{err}");
    }

    #[test]
    fn timings_sum_across_epoch_events() {
        let text = "{\"t\":\"meta\",\"version\":1,\"clock\":\"monotonic_us\",\"seq\":0}\n\
            {\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{\"tick\":0,\"kind\":\"matmul\",\"fwd_calls\":4,\"bwd_calls\":4,\"fwd_ns\":100,\"bwd_ns\":200}}\n\
            {\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":2,\"tid\":0,\"seq\":2,\"f\":{\"tick\":1,\"kind\":\"matmul\",\"fwd_calls\":4,\"bwd_calls\":4,\"fwd_ns\":150,\"bwd_ns\":250}}\n\
            {\"t\":\"event\",\"name\":\"obs.profile.peaks\",\"at_us\":3,\"tid\":0,\"seq\":3,\"f\":{\"gflops\":10.5,\"gbps\":4.25}}\n";
        let (timings, peaks) = parse_trace_timings(text).unwrap();
        let mm = timings["matmul"];
        assert_eq!(mm.fwd_ns, 250);
        assert_eq!(mm.bwd_ns, 450);
        assert_eq!(mm.fwd_calls, 8);
        let p = peaks.unwrap();
        assert_eq!(p.gflops, 10.5);
        assert_eq!(p.gbps, 4.25);
        assert!((p.balance() - 10.5 / 4.25).abs() < 1e-12);
    }

    #[test]
    fn report_sorts_by_self_time_and_classifies() {
        let dump = ProfileDump {
            // matmul: AI = 3000/1440 ≈ 2.08 >= balance 2.0 → compute;
            // add: AI = 48/576 ≈ 0.08 → memory
            ops: vec![op("add", 16, 192), op("matmul", 1000, 480)],
            alloc: alloc(),
        };
        let mut timings = BTreeMap::new();
        timings.insert(
            "matmul".to_string(),
            OpTiming {
                fwd_calls: 10,
                bwd_calls: 10,
                fwd_ns: 1_000,
                bwd_ns: 2_000,
            },
        );
        timings.insert(
            "add".to_string(),
            OpTiming {
                fwd_calls: 10,
                bwd_calls: 10,
                fwd_ns: 400,
                bwd_ns: 100,
            },
        );
        let peaks = Peaks {
            gflops: 20.0,
            gbps: 10.0,
        };
        let r = render_report(&dump, &timings, Some(&peaks));
        let matmul_at = r.find("matmul").unwrap();
        let add_at = r.find("\nadd").unwrap();
        assert!(matmul_at < add_at, "slowest op first:\n{r}");
        let mm_line = r.lines().find(|l| l.starts_with("matmul")).unwrap();
        assert!(mm_line.ends_with("compute"), "{mm_line}");
        let add_line = r.lines().find(|l| l.starts_with("add")).unwrap();
        assert!(add_line.ends_with("memory"), "{add_line}");
        assert!(r.contains("balance 2.00 flop/B"), "{r}");
        assert!(r.contains("peak live 512 B"), "{r}");
        // byte-stable: same inputs, same bytes
        assert_eq!(r, render_report(&dump, &timings, Some(&peaks)));
    }

    #[test]
    fn compare_fails_on_any_counter_drift() {
        let old = ProfileDump {
            ops: vec![op("matmul", 1000, 480)],
            alloc: alloc(),
        };
        let mut new = old.clone();
        new.ops[0].fwd_flops = 2000; // cost-model drift
        let t = BTreeMap::new();
        let d = compare(&new, &t, &old, &t, &CompareConfig::default());
        assert!(d.failed());
        assert_eq!(d.counter_drifts, vec!["matmul: fwd_flops 1000 -> 2000"]);
        let v = render_verdict(&d, &CompareConfig::default());
        assert!(v.contains("FAIL"), "{v}");

        // alloc drift also strict
        let mut new2 = old.clone();
        new2.alloc.peak_b += 1;
        let d2 = compare(&new2, &t, &old, &t, &CompareConfig::default());
        assert!(d2.failed());
        assert!(d2.counter_drifts[0].contains("peak_b"));

        // a kind appearing only on one side is drift
        let extra = ProfileDump {
            ops: vec![op("matmul", 1000, 480), op("relu", 8, 64)],
            alloc: alloc(),
        };
        let d3 = compare(&extra, &t, &old, &t, &CompareConfig::default());
        assert!(d3
            .counter_drifts
            .iter()
            .any(|l| l.contains("only in new profile")));
    }

    #[test]
    fn compare_timing_needs_both_thresholds() {
        let dump = ProfileDump {
            ops: vec![op("matmul", 1000, 480)],
            alloc: alloc(),
        };
        let t = |ns: u64| -> BTreeMap<String, OpTiming> {
            let mut m = BTreeMap::new();
            m.insert(
                "matmul".to_string(),
                OpTiming {
                    fwd_ns: ns,
                    ..Default::default()
                },
            );
            m
        };
        let cfg = CompareConfig::default();
        // +100% but only +100ns: under the floor, passes
        let d = compare(&dump, &t(200), &dump, &t(100), &cfg);
        assert!(!d.failed());
        // +30% over a big base: under rel_tol, passes
        let d = compare(&dump, &t(1_300_000), &dump, &t(1_000_000), &cfg);
        assert!(!d.failed());
        // +150% and +1.5ms: regression
        let d = compare(&dump, &t(2_500_000), &dump, &t(1_000_000), &cfg);
        assert!(d.failed());
        assert!(d.timings[0].regressed);
        let v = render_verdict(&d, &cfg);
        assert!(v.contains("REGRESSED"), "{v}");
        assert!(v.contains("FAIL"), "{v}");
        // faster is never a regression
        let d = compare(&dump, &t(100), &dump, &t(1_000_000), &cfg);
        assert!(!d.failed());
    }

    #[test]
    fn probe_peaks_reports_positive_rates() {
        let p = probe_peaks();
        assert!(p.gflops > 0.0, "{p:?}");
        assert!(p.gbps > 0.0, "{p:?}");
        assert!(p.balance() > 0.0);
    }
}
