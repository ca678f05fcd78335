//! Offline aggregation over a recorded trace: the self-time profile
//! behind `nmcdr obs report` and the structural validator behind
//! `nmcdr obs validate` (used by `scripts/ci.sh` to gate the trace
//! schema).
//!
//! This module works on already-parsed [`TraceRecord`]s; the strict
//! reading of trace lines lives in [`crate::parse`].

use crate::json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One parsed line of a trace file (schema version 1).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    Meta {
        version: u64,
    },
    Span {
        name: String,
        start_us: u64,
        dur_us: u64,
        self_us: u64,
        depth: u64,
        tid: u64,
        seq: u64,
    },
    Event {
        name: String,
        at_us: u64,
        tid: u64,
        seq: u64,
        /// The `f` payload object (empty when the line has none),
        /// checked against its field table when the event is typed.
        f: Json,
    },
}

/// Aggregated profile line for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    pub name: String,
    pub calls: u64,
    pub total_us: u64,
    pub self_us: u64,
}

/// Aggregates spans per name, sorted by self time descending (ties by
/// name for determinism).
pub fn profile(records: &[TraceRecord]) -> Vec<ProfileRow> {
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for r in records {
        if let TraceRecord::Span {
            name,
            dur_us,
            self_us,
            ..
        } = r
        {
            let e = by_name.entry(name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += dur_us;
            e.2 += self_us;
        }
    }
    let mut rows: Vec<ProfileRow> = by_name
        .into_iter()
        .map(|(name, (calls, total_us, self_us))| ProfileRow {
            name: name.to_string(),
            calls,
            total_us,
            self_us,
        })
        .collect();
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    rows
}

/// Renders the profile as an aligned text table. `self %` is relative
/// to the sum of self times, which equals total traced wall time per
/// thread (children are excluded from parents' self time).
pub fn render_profile(rows: &[ProfileRow]) -> String {
    let total_self: u64 = rows.iter().map(|r| r.self_us).sum();
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>7}",
        "span", "calls", "total", "self", "self %"
    );
    for r in rows {
        let pct = if total_self == 0 {
            0.0
        } else {
            100.0 * r.self_us as f64 / total_self as f64
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>6.2}%",
            r.name,
            r.calls,
            fmt_us(r.total_us),
            fmt_us(r.self_us),
            pct
        );
    }
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Counts from a successful [`validate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidateSummary {
    pub spans: u64,
    pub events: u64,
}

/// Structural validation of a parsed trace:
///
/// * the first record is `meta` with a supported version, and no other
///   `meta` records appear;
/// * `seq` is strictly increasing in record order;
/// * per-`tid` emit times (span end = `start_us + dur_us`, event
///   `at_us`) are non-decreasing — emission order is wall-clock order
///   on each thread;
/// * `self_us <= dur_us` for every span.
///
/// Returns the first violation as a human-readable message with the
/// 1-based record index.
pub fn validate(records: &[TraceRecord]) -> Result<ValidateSummary, String> {
    let mut it = records.iter().enumerate();
    match it.next() {
        Some((_, TraceRecord::Meta { version: 1 })) => {}
        Some((_, TraceRecord::Meta { version })) => {
            return Err(format!("record 1: unsupported trace version {version}"));
        }
        Some(_) => return Err("record 1: first record must be meta".to_string()),
        None => return Err("empty trace".to_string()),
    }
    let mut last_seq: Option<u64> = None;
    let mut last_emit: BTreeMap<u64, u64> = BTreeMap::new();
    let mut summary = ValidateSummary {
        spans: 0,
        events: 0,
    };
    for (i, r) in it {
        let n = i + 1;
        let (seq, tid, emit_us) = match r {
            TraceRecord::Meta { .. } => {
                return Err(format!("record {n}: duplicate meta record"));
            }
            TraceRecord::Span {
                name,
                start_us,
                dur_us,
                self_us,
                seq,
                tid,
                ..
            } => {
                if self_us > dur_us {
                    return Err(format!(
                        "record {n}: span {name:?} self_us {self_us} > dur_us {dur_us}"
                    ));
                }
                summary.spans += 1;
                (*seq, *tid, start_us + dur_us)
            }
            TraceRecord::Event {
                seq, tid, at_us, ..
            } => {
                summary.events += 1;
                (*seq, *tid, *at_us)
            }
        };
        if let Some(prev) = last_seq {
            if seq <= prev {
                return Err(format!(
                    "record {n}: seq {seq} not greater than previous {prev}"
                ));
            }
        }
        last_seq = Some(seq);
        let prev_emit = last_emit.entry(tid).or_insert(0);
        if emit_us < *prev_emit {
            return Err(format!(
                "record {n}: tid {tid} timestamp {emit_us}us earlier than previous {}us (non-monotonic)",
                prev_emit
            ));
        }
        *prev_emit = emit_us;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceRecord {
        TraceRecord::Meta { version: 1 }
    }

    fn span(name: &str, start: u64, dur: u64, self_us: u64, seq: u64) -> TraceRecord {
        TraceRecord::Span {
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            self_us,
            depth: 0,
            tid: 0,
            seq,
        }
    }

    #[test]
    fn profile_aggregates_and_sorts_by_self_time() {
        let recs = vec![
            meta(),
            span("fast", 0, 10, 10, 1),
            span("slow", 10, 100, 90, 2),
            span("fast", 110, 10, 10, 3),
        ];
        let rows = profile(&recs);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "slow");
        assert_eq!(rows[0].self_us, 90);
        assert_eq!(rows[1].name, "fast");
        assert_eq!(rows[1].calls, 2);
        assert_eq!(rows[1].total_us, 20);
        let rendered = render_profile(&rows);
        assert!(rendered.contains("slow"));
        assert!(rendered.contains("81.82%"));
    }

    #[test]
    fn validate_accepts_well_formed_trace() {
        let recs = vec![
            meta(),
            span("a", 0, 5, 5, 1),
            TraceRecord::Event {
                name: "e".to_string(),
                at_us: 6,
                tid: 0,
                seq: 2,
                f: Json::Obj(Vec::new()),
            },
            span("b", 3, 4, 4, 3),
        ];
        let s = validate(&recs).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.events, 1);
    }

    #[test]
    fn validate_rejects_missing_or_duplicate_meta() {
        assert!(validate(&[]).unwrap_err().contains("empty"));
        assert!(validate(&[span("a", 0, 1, 1, 1)])
            .unwrap_err()
            .contains("must be meta"));
        assert!(validate(&[meta(), meta()])
            .unwrap_err()
            .contains("duplicate meta"));
        assert!(validate(&[TraceRecord::Meta { version: 9 }])
            .unwrap_err()
            .contains("unsupported"));
    }

    #[test]
    fn validate_rejects_non_monotonic_seq_and_time() {
        let bad_seq = vec![meta(), span("a", 0, 1, 1, 5), span("b", 2, 1, 1, 5)];
        assert!(validate(&bad_seq).unwrap_err().contains("seq"));
        // second span *ends* before the first one ended on the same tid
        let bad_time = vec![meta(), span("a", 0, 100, 100, 1), span("b", 10, 5, 5, 2)];
        assert!(validate(&bad_time).unwrap_err().contains("non-monotonic"));
    }

    #[test]
    fn validate_rejects_self_exceeding_total() {
        let recs = vec![meta(), span("a", 0, 5, 6, 1)];
        assert!(validate(&recs).unwrap_err().contains("self_us"));
    }

    #[test]
    fn validate_live_trace_from_memory_sink() {
        use crate::trace::{scoped, span as tspan, MemorySink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        scoped(sink.clone(), || {
            let _outer = tspan("outer");
            let _inner = tspan("inner");
            crate::trace::event("tick", |e| {
                e.u("i", 1);
            });
        });
        let recs = crate::parse::parse_trace(&sink.lines().join("\n")).unwrap();
        let s = validate(&recs).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.events, 1);
        assert_eq!(profile(&recs).len(), 2);
    }
}
