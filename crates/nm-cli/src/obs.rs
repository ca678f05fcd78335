//! `nmcdr obs` — offline trace tooling.
//!
//! Reads a line-JSON trace produced by `train --trace-out`, the serve
//! `{"op":"trace"}` endpoint, or any [`nm_obs::trace`] file sink.
//! Every line is parsed against the documented schema version 1
//! *strictly* (via [`nm_obs::parse`] — unknown fields and wrong types
//! are errors, so the schema cannot drift silently), then:
//!
//! * `obs validate` — structural validation (used by `scripts/ci.sh`);
//! * `obs report`   — self-time profile table;
//! * `obs flame`    — collapsed-stack fold + self-contained SVG
//!   flamegraph + critical-path report, via [`nm_obs::flame`].
//!
//! Two more actions read a *flight-recorder dump* (line-JSON from
//! `nmcdr chaos --series-out` or [`nm_obs::slo::Telemetry::dump`])
//! instead of a trace:
//!
//! * `obs tail` — per-tick request/error/degraded rates and latency
//!   quantiles, plus a window summary;
//! * `obs slo`  — burn-rate replay: error-budget table and alert
//!   transitions, with `--require-alerts N` / `--require-clean` CI
//!   gates.
//!
//! And one reads a *kernel-profile dump* (`train --profile-out` /
//! `stream --profile-out`), optionally joined with a trace:
//!
//! * `obs profile` — per-op roofline report (self time, achieved
//!   GFLOP/s and GB/s, arithmetic intensity, memory- vs compute-bound
//!   class), plus the `--compare` differential gate.

use crate::args::Args;
use nm_obs::parse::parse_trace;
use nm_obs::report::{profile, render_profile, validate, TraceRecord};

/// Entry point for `nmcdr obs <action>`.
pub fn run(action: &str, args: &Args) -> Result<(), String> {
    if action == "flame" {
        return flame(args);
    }
    if action == "tail" || action == "slo" {
        return series(action, args);
    }
    if action == "profile" {
        return kernel_profile(args);
    }
    let path = args.required("trace")?;
    args.reject_unread()?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    let records = parse_trace(&text)?;
    let summary = validate(&records).map_err(|e| format!("invalid trace '{path}': {e}"))?;
    let out = match action {
        "validate" => format!(
            "{path}: OK ({} records: {} spans, {} events)\n",
            records.len(),
            summary.spans,
            summary.events
        ),
        "report" => format!(
            "{}({} spans, {} events in {path})\n",
            render_profile(&profile(&records)),
            summary.spans,
            summary.events
        ),
        other => {
            return Err(format!(
                "unknown obs action '{other}' \
                 (expected: report, validate, flame, tail, slo, profile)"
            ))
        }
    };
    print_piped(&out);
    Ok(())
}

/// `nmcdr obs tail --series dump.jsonl [--window N]`
/// `nmcdr obs slo  --series dump.jsonl [--require-alerts N] [--require-clean]`
///
/// Both parse the dump strictly (schema drift is an error, like traces)
/// and render deterministically: the same dump always produces the same
/// bytes, so the outputs are golden-fixture testable and CI-gateable.
fn series(action: &str, args: &Args) -> Result<(), String> {
    let path = args.required("series")?;
    let load = || -> Result<nm_obs::Series, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read series '{path}': {e}"))?;
        nm_obs::parse_series(&text).map_err(|e| format!("invalid series '{path}': {e}"))
    };
    if action == "tail" {
        let window: usize = args.parse_or("window", 20)?;
        args.reject_unread()?;
        if window == 0 {
            return Err("--window must be at least 1".into());
        }
        print_piped(&nm_obs::render_tail(&load()?.ticks, window));
        return Ok(());
    }
    let require_clean = args.flag("require-clean");
    let want: usize = args.parse_or("require-alerts", 0)?;
    args.reject_unread()?;
    let series = load()?;
    let report = nm_obs::render_slo_report(&series);
    print_piped(&report);
    let (transitions, _) = nm_obs::evaluate_series(&series);
    let alerts = nm_obs::count_alerts(&transitions);
    if require_clean && alerts > 0 {
        return Err(format!(
            "--require-clean: {alerts} burn-rate alert(s) fired on a run expected to be clean"
        ));
    }
    if alerts < want {
        return Err(format!(
            "only {alerts} burn-rate alert(s) fired, --require-alerts {want} not met"
        ));
    }
    Ok(())
}

/// `nmcdr obs profile --profile dump.jsonl [--trace run.jsonl]`
/// `nmcdr obs profile --profile new.jsonl --compare old.jsonl
///                    [--compare-trace old-run.jsonl]
///                    [--rel-tol 0.5] [--abs-floor-us 200]`
///
/// Report mode joins the deterministic per-op dump (`--profile-out`)
/// with the measured `obs.profile.time` self-times and the
/// `obs.profile.peaks` machine ceilings from the run's trace, and
/// renders the top-ops roofline table. Without `--trace` the counters
/// still render; times and roofline classes show as unknown.
///
/// Compare mode is the differential gate: deterministic counters must
/// match *exactly* (any drift in the op stream, the cost model, or
/// allocation traffic fails), while per-op self-times are compared
/// under noise-aware thresholds — both the relative tolerance AND the
/// absolute floor must be exceeded to fail.
/// Exits non-zero on regression, so CI can gate on it.
fn kernel_profile(args: &Args) -> Result<(), String> {
    let read = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))
    };
    let load_dump = |path: &str| -> Result<nm_obs::ProfileDump, String> {
        nm_obs::parse_dump(&read(path)?).map_err(|e| format!("invalid profile dump '{path}': {e}"))
    };
    let load_timings = |trace: Option<&str>| -> Result<
        (
            std::collections::BTreeMap<String, nm_obs::OpTiming>,
            Option<nm_obs::Peaks>,
        ),
        String,
    > {
        match trace {
            Some(path) => nm_obs::profile::parse_trace_timings(&read(path)?)
                .map_err(|e| format!("invalid trace '{path}': {e}")),
            None => Ok((std::collections::BTreeMap::new(), None)),
        }
    };

    let dump_path = args.required("profile")?;
    let trace = args.get("trace");
    let compare = match args.get("compare") {
        Some(old_path) => {
            let defaults = nm_obs::profile::CompareConfig::default();
            let cfg = nm_obs::profile::CompareConfig {
                rel_tol: args.parse_or("rel-tol", defaults.rel_tol)?,
                abs_floor_ns: args.parse_or::<u64>("abs-floor-us", defaults.abs_floor_ns / 1000)?
                    * 1000,
            };
            Some((old_path, args.get("compare-trace"), cfg))
        }
        None => None,
    };
    args.reject_unread()?;
    let dump = load_dump(dump_path)?;
    let (timings, peaks) = load_timings(trace)?;

    if let Some((old_path, old_trace, cfg)) = compare {
        let old = load_dump(old_path)?;
        let (old_timings, _) = load_timings(old_trace)?;
        let diff = nm_obs::profile::compare(&dump, &timings, &old, &old_timings, &cfg);
        print_piped(&nm_obs::profile::render_verdict(&diff, &cfg));
        if diff.failed() {
            return Err(format!("profile regression against '{old_path}'"));
        }
        return Ok(());
    }
    print_piped(&nm_obs::profile::render_report(
        &dump,
        &timings,
        peaks.as_ref(),
    ));
    Ok(())
}

/// `nmcdr obs flame --in trace.jsonl --out flame.svg
///                  [--collapsed stacks.txt]`
///
/// Accepts `--trace` as an alias for `--in` so all `obs` actions take
/// the same input flag.
fn flame(args: &Args) -> Result<(), String> {
    let path = match args.get("in").or_else(|| args.get("trace")) {
        Some(p) => p,
        None => return Err("missing --in (or --trace)".into()),
    };
    let out_path = args.required("out")?;
    let collapsed_path = args.get("collapsed");
    args.reject_unread()?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    let records = parse_trace(&text)?;
    validate(&records).map_err(|e| format!("invalid trace '{path}': {e}"))?;
    let folded = nm_obs::flame::fold(&records);

    // Conservation check: folded self time must reproduce the root
    // spans' inclusive time exactly — if it doesn't, the fold (or the
    // trace) is lying and the graph would misattribute time.
    let folded_total = nm_obs::flame::total_us(&folded);
    let root_total: u64 = records
        .iter()
        .filter_map(|r| match r {
            TraceRecord::Span {
                depth: 0, dur_us, ..
            } => Some(*dur_us),
            _ => None,
        })
        .sum();
    if folded_total != root_total {
        return Err(format!(
            "fold lost time: folded self {folded_total}us != root total {root_total}us"
        ));
    }

    let svg = nm_obs::flame::render_svg(&folded);
    std::fs::write(out_path, &svg).map_err(|e| format!("cannot write svg '{out_path}': {e}"))?;
    if let Some(collapsed_path) = collapsed_path {
        std::fs::write(collapsed_path, nm_obs::flame::render_collapsed(&folded))
            .map_err(|e| format!("cannot write collapsed '{collapsed_path}': {e}"))?;
    }
    let rows = nm_obs::flame::critical_path(&folded);
    let out = format!(
        "{out_path}: {} frames, {folded_total}us total (= root span time)\n\ncritical path:\n{}",
        folded.len(),
        nm_obs::flame::render_critical_path(&rows)
    );
    print_piped(&out);
    Ok(())
}

/// Reports are made for piping into head/grep: a closed pipe ends the
/// output, it is not a crash.
fn print_piped(out: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(out.as_bytes());
}
