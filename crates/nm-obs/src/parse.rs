//! Strict reading of the nm-obs line-JSON artifacts (schema version 1).
//!
//! Traces from any [`crate::trace`] sink (`train --trace-out`, the
//! serve exemplar renderer), profile dumps and flight-recorder series
//! are all read line by line through [`read_lines`], and every object
//! in them through [`Json::fields`] with one field table per schema:
//! unknown fields, missing fields, and type mismatches are errors, so
//! no schema can drift silently. Library tests (e.g. nm-serve's
//! `{"op":"trace"}` smoke test) validate wire output against the same
//! parser `nmcdr obs validate` uses.

use crate::json::{Fields, Json};
use crate::report::TraceRecord;

/// Runs `read` on every non-blank line of a line-JSON artifact, in
/// file order, prefixing any error with the line's 1-based number.
pub(crate) fn read_lines(
    text: &str,
    mut read: impl FnMut(&Json) -> Result<(), String>,
) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        Json::parse(line)
            .map_err(|e| format!("not valid JSON: {e}"))
            .and_then(|json| read(&json))
            .map_err(|e| format!("line {}: {e}", i + 1))?;
    }
    Ok(())
}

/// Events whose payload `tick` is ordered along the trace, and whether
/// it must strictly increase. Telemetry sampler ticks are logical
/// ordinals, strictly increasing process-wide (sink order == seq order,
/// so file order is emission order); a repeat or regression means a
/// corrupted or hand-edited trace. Profile-dump op ordinals are
/// strictly increasing (one per op kind, canonical order); per-epoch
/// timing ordinals only non-decreasing (every kind of one epoch shares
/// that epoch's tick).
const TICKED_EVENTS: [(&str, bool); 3] = [
    ("obs.sample", true),
    ("obs.profile.op", true),
    ("obs.profile.time", false),
];

/// Parses every non-empty line of a trace file, strictly.
pub fn parse_trace(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut records = Vec::new();
    let mut last_tick = [None; TICKED_EVENTS.len()];
    read_lines(text, |json| {
        let record = record_from(json)?;
        if let TraceRecord::Event { name, f, .. } = &record {
            if let Some(i) = TICKED_EVENTS.iter().position(|(n, _)| n == name) {
                let (strict, tick) = (TICKED_EVENTS[i].1, payload(name, f)?.u64("tick")?);
                match last_tick[i] {
                    Some(last) if strict && tick <= last => {
                        return Err(format!("{name} tick {tick} not strictly after {last}"));
                    }
                    Some(last) if tick < last => {
                        return Err(format!("{name} tick {tick} regressed below {last}"));
                    }
                    _ => last_tick[i] = Some(tick),
                }
            }
        }
        records.push(record);
        Ok(())
    })?;
    Ok(records)
}

/// Typed payload schemas for the telemetry events: event name → exact
/// set of required `f` fields. Events not listed here keep free-form
/// payloads (the `f` object is only checked to be an object).
const TYPED_EVENT_FIELDS: &[(&str, &[&str])] = &[
    ("obs.sample", &["tick", "self_us"]),
    ("obs.slo.alert", &["slo", "tick", "fast_burn", "slow_burn"]),
    ("obs.slo.resolve", &["slo", "tick"]),
    (
        "obs.profile.op",
        &[
            "tick",
            "kind",
            "fwd_calls",
            "bwd_calls",
            "fwd_flops",
            "bwd_flops",
            "fwd_bytes",
            "bwd_bytes",
            "alloc_b",
            "freed_b",
        ],
    ),
    (
        "obs.profile.time",
        &["tick", "kind", "fwd_calls", "bwd_calls", "fwd_ns", "bwd_ns"],
    ),
    ("obs.profile.peaks", &["gflops", "gbps"]),
    (
        "obs.alloc.summary",
        &["tick", "allocated_b", "freed_b", "peak_b"],
    ),
    (
        "serve.exemplar",
        &[
            "id",
            "domain",
            "user",
            "k",
            "queue_depth",
            "lock_us",
            "cache_hit",
            "coalesced",
            "shed",
        ],
    ),
];

fn typed_fields(name: &str) -> Option<&'static [&'static str]> {
    TYPED_EVENT_FIELDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, fields)| fields)
}

/// Reads the `f` payload of typed event `name` against its field
/// table: every listed field present with its type, and no other.
pub(crate) fn payload<'a>(name: &str, f: &'a Json) -> Result<Fields<'a>, String> {
    let fields =
        typed_fields(name).ok_or_else(|| format!("event {name:?} has no typed payload"))?;
    let p = f.fields(format!("{name:?} event payload"), fields)?;
    for &key in fields {
        match key {
            "slo" | "kind" => p.str(key).map(drop),
            "fast_burn" | "slow_burn" | "gflops" | "gbps" => p.f64(key).map(drop),
            "cache_hit" | "coalesced" => p.bool(key).map(drop),
            // tick / ids / counts / ns / bytes: non-negative integers
            _ => p.u64(key).map(drop),
        }?;
    }
    Ok(p)
}

/// Converts one parsed JSON line into a [`TraceRecord`], rejecting
/// unknown fields, missing fields, and type mismatches.
pub fn record_from(json: &Json) -> Result<TraceRecord, String> {
    match json.get("t").and_then(Json::as_str) {
        Some("meta") => {
            let rec = json.fields("\"meta\" record", &["t", "version", "clock", "seq"])?;
            Ok(TraceRecord::Meta {
                version: rec.u64("version")?,
            })
        }
        Some("span") => {
            let rec = json.fields(
                "\"span\" record",
                &[
                    "t", "name", "start_us", "dur_us", "self_us", "depth", "tid", "seq",
                ],
            )?;
            Ok(TraceRecord::Span {
                name: rec.str("name")?.to_string(),
                start_us: rec.u64("start_us")?,
                dur_us: rec.u64("dur_us")?,
                self_us: rec.u64("self_us")?,
                depth: rec.u64("depth")?,
                tid: rec.u64("tid")?,
                seq: rec.u64("seq")?,
            })
        }
        Some("event") => {
            let rec = json.fields(
                "\"event\" record",
                &["t", "name", "at_us", "tid", "seq", "f"],
            )?;
            let name = rec.str("name")?;
            let (at_us, tid, seq) = (rec.u64("at_us")?, rec.u64("tid")?, rec.u64("seq")?);
            // only a free-form event may omit its payload
            let typed = typed_fields(name).is_some();
            let f = Json::Obj(if typed || rec.get("f").is_some() {
                rec.obj("f")?.to_vec()
            } else {
                Vec::new()
            });
            if typed {
                payload(name, &f)?;
            }
            Ok(TraceRecord::Event {
                name: name.to_string(),
                at_us,
                tid,
                seq,
                f,
            })
        }
        Some(other) => Err(format!("unknown record type {other:?}")),
        None => Err("trace line is not a JSON object with a string field \"t\"".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{profile, validate};

    const META: &str = r#"{"t":"meta","version":1,"clock":"monotonic_us","seq":0}"#;

    #[test]
    fn parses_the_documented_schema() {
        let text = format!(
            "{META}\n\
             {{\"t\":\"span\",\"name\":\"train.forward\",\"start_us\":5,\"dur_us\":10,\"self_us\":10,\"depth\":0,\"tid\":0,\"seq\":1}}\n\
             {{\"t\":\"event\",\"name\":\"epoch\",\"at_us\":20,\"tid\":0,\"seq\":2,\"f\":{{\"epoch\":0,\"mean_loss\":0.5}}}}\n"
        );
        let recs = parse_trace(&text).unwrap();
        assert_eq!(recs.len(), 3);
        let s = validate(&recs).unwrap();
        assert_eq!(s.spans, 1);
        assert_eq!(s.events, 1);
        assert_eq!(profile(&recs)[0].name, "train.forward");
    }

    #[test]
    fn rejects_unknown_fields() {
        let text = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"e\",\"at_us\":1,\"tid\":0,\"seq\":1,\"bogus\":1}}\n"
        );
        let err = parse_trace(&text).unwrap_err();
        assert!(err.contains("unknown field \"bogus\""), "{err}");
    }

    #[test]
    fn rejects_missing_and_mistyped_fields() {
        let no_dur = format!(
            "{META}\n{{\"t\":\"span\",\"name\":\"x\",\"start_us\":0,\"self_us\":0,\"depth\":0,\"tid\":0,\"seq\":1}}\n"
        );
        assert!(parse_trace(&no_dur).unwrap_err().contains("dur_us"));
        let neg = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"e\",\"at_us\":-3,\"tid\":0,\"seq\":1}}\n"
        );
        assert!(parse_trace(&neg)
            .unwrap_err()
            .contains("non-negative integer"));
        let bad_f = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"e\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":3}}\n"
        );
        assert!(parse_trace(&bad_f).unwrap_err().contains("not an object"));
    }

    #[test]
    fn rejects_unknown_record_type_and_non_object() {
        let bad_t = format!("{META}\n{{\"t\":\"blob\"}}\n");
        assert!(parse_trace(&bad_t)
            .unwrap_err()
            .contains("unknown record type"));
        let arr = format!("{META}\n[1,2]\n");
        assert!(parse_trace(&arr).unwrap_err().contains("not a JSON object"));
        assert!(parse_trace("not json\n").unwrap_err().contains("line 1"));
    }

    #[test]
    fn validator_flags_non_monotonic_timestamps_through_the_parse_path() {
        // seq strictly increasing but the second span ends before the
        // first on the same thread — structural validation catches it.
        let text = format!(
            "{META}\n\
             {{\"t\":\"span\",\"name\":\"a\",\"start_us\":0,\"dur_us\":100,\"self_us\":100,\"depth\":0,\"tid\":0,\"seq\":1}}\n\
             {{\"t\":\"span\",\"name\":\"b\",\"start_us\":10,\"dur_us\":5,\"self_us\":5,\"depth\":0,\"tid\":0,\"seq\":2}}\n"
        );
        let recs = parse_trace(&text).unwrap();
        assert!(validate(&recs).unwrap_err().contains("non-monotonic"));
    }

    #[test]
    fn telemetry_events_are_schema_checked() {
        // well-formed sampler + SLO events parse
        let good = format!(
            "{META}\n\
             {{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"self_us\":12}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.slo.alert\",\"at_us\":2,\"tid\":0,\"seq\":2,\"f\":{{\"slo\":\"serve-p99\",\"tick\":1,\"fast_burn\":7.5,\"slow_burn\":6.1}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":3,\"tid\":0,\"seq\":3,\"f\":{{\"tick\":1,\"self_us\":9}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.slo.resolve\",\"at_us\":4,\"tid\":0,\"seq\":4,\"f\":{{\"slo\":\"serve-p99\",\"tick\":2}}}}\n"
        );
        assert_eq!(parse_trace(&good).unwrap().len(), 5);

        // unknown payload field rejected
        let unknown = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"self_us\":1,\"evil\":1}}}}\n"
        );
        let err = parse_trace(&unknown).unwrap_err();
        assert!(err.contains("unknown field \"evil\""), "{err}");

        // missing required payload field rejected
        let missing = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.slo.alert\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"slo\":\"x\",\"tick\":0,\"fast_burn\":1.0}}}}\n"
        );
        assert!(parse_trace(&missing).unwrap_err().contains("slow_burn"));

        // mistyped payload field rejected
        let mistyped = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":\"zero\",\"self_us\":1}}}}\n"
        );
        assert!(parse_trace(&mistyped).unwrap_err().contains("wrong type"));

        // payload object required
        let no_f = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":1,\"tid\":0,\"seq\":1}}\n"
        );
        assert!(parse_trace(&no_f).unwrap_err().contains("\"f\""));
    }

    #[test]
    fn non_monotonic_sampler_ticks_are_rejected() {
        let mk = |ticks: &[u64]| {
            let mut s = format!("{META}\n");
            for (i, t) in ticks.iter().enumerate() {
                s.push_str(&format!(
                    "{{\"t\":\"event\",\"name\":\"obs.sample\",\"at_us\":{},\"tid\":0,\"seq\":{},\"f\":{{\"tick\":{t},\"self_us\":1}}}}\n",
                    i + 1,
                    i + 1
                ));
            }
            s
        };
        assert!(parse_trace(&mk(&[0, 1, 2])).is_ok());
        let err = parse_trace(&mk(&[0, 2, 1])).unwrap_err();
        assert!(err.contains("not strictly after"), "{err}");
        // a repeated tick is just as corrupt as a regression
        assert!(parse_trace(&mk(&[3, 3])).is_err());
    }

    #[test]
    fn profile_events_are_schema_checked() {
        // well-formed profile/alloc events parse
        let good = format!(
            "{META}\n\
             {{\"t\":\"event\",\"name\":\"obs.profile.op\",\"at_us\":0,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"kind\":\"add\",\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_flops\":2,\"bwd_flops\":2,\"fwd_bytes\":8,\"bwd_bytes\":8,\"alloc_b\":4,\"freed_b\":0}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":1,\"tid\":0,\"seq\":2,\"f\":{{\"tick\":0,\"kind\":\"add\",\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_ns\":10,\"bwd_ns\":20}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.profile.peaks\",\"at_us\":2,\"tid\":0,\"seq\":3,\"f\":{{\"gflops\":12.5,\"gbps\":4.0}}}}\n\
             {{\"t\":\"event\",\"name\":\"obs.alloc.summary\",\"at_us\":3,\"tid\":0,\"seq\":4,\"f\":{{\"tick\":1,\"allocated_b\":100,\"freed_b\":50,\"peak_b\":60}}}}\n"
        );
        assert_eq!(parse_trace(&good).unwrap().len(), 5);

        // unknown payload field rejected
        let unknown = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"kind\":\"add\",\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_ns\":10,\"bwd_ns\":20,\"extra\":1}}}}\n"
        );
        let err = parse_trace(&unknown).unwrap_err();
        assert!(err.contains("unknown field \"extra\""), "{err}");

        // missing required payload field rejected
        let missing = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.alloc.summary\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"allocated_b\":100,\"freed_b\":50}}}}\n"
        );
        assert!(parse_trace(&missing).unwrap_err().contains("peak_b"));

        // mistyped string field rejected
        let bad_kind = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"kind\":7,\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_ns\":10,\"bwd_ns\":20}}}}\n"
        );
        assert!(parse_trace(&bad_kind).unwrap_err().contains("wrong type"));

        // mistyped float field rejected
        let bad_peak = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.profile.peaks\",\"at_us\":1,\"tid\":0,\"seq\":1,\"f\":{{\"gflops\":\"fast\",\"gbps\":4.0}}}}\n"
        );
        assert!(parse_trace(&bad_peak).unwrap_err().contains("wrong type"));

        // negative counter rejected
        let neg = format!(
            "{META}\n{{\"t\":\"event\",\"name\":\"obs.profile.op\",\"at_us\":0,\"tid\":0,\"seq\":1,\"f\":{{\"tick\":0,\"kind\":\"add\",\"fwd_calls\":-1,\"bwd_calls\":1,\"fwd_flops\":2,\"bwd_flops\":2,\"fwd_bytes\":8,\"bwd_bytes\":8,\"alloc_b\":4,\"freed_b\":0}}}}\n"
        );
        assert!(parse_trace(&neg).unwrap_err().contains("wrong type"));
    }

    #[test]
    fn profile_op_ticks_must_strictly_increase() {
        let mk = |ticks: &[u64]| {
            let mut s = format!("{META}\n");
            for (i, t) in ticks.iter().enumerate() {
                s.push_str(&format!(
                    "{{\"t\":\"event\",\"name\":\"obs.profile.op\",\"at_us\":0,\"tid\":0,\"seq\":{},\"f\":{{\"tick\":{t},\"kind\":\"add\",\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_flops\":2,\"bwd_flops\":2,\"fwd_bytes\":8,\"bwd_bytes\":8,\"alloc_b\":4,\"freed_b\":0}}}}\n",
                    i + 1
                ));
            }
            s
        };
        assert!(parse_trace(&mk(&[0, 1, 2])).is_ok());
        let err = parse_trace(&mk(&[0, 2, 1])).unwrap_err();
        assert!(err.contains("not strictly after"), "{err}");
        assert!(parse_trace(&mk(&[3, 3])).is_err());
    }

    #[test]
    fn profile_time_ticks_may_repeat_but_not_regress() {
        let mk = |ticks: &[u64]| {
            let mut s = format!("{META}\n");
            for (i, t) in ticks.iter().enumerate() {
                s.push_str(&format!(
                    "{{\"t\":\"event\",\"name\":\"obs.profile.time\",\"at_us\":{},\"tid\":0,\"seq\":{},\"f\":{{\"tick\":{t},\"kind\":\"add\",\"fwd_calls\":1,\"bwd_calls\":1,\"fwd_ns\":10,\"bwd_ns\":20}}}}\n",
                    i + 1,
                    i + 1
                ));
            }
            s
        };
        // several kinds share one epoch's tick: repeats are fine
        assert!(parse_trace(&mk(&[0, 0, 1, 1, 2])).is_ok());
        let err = parse_trace(&mk(&[0, 1, 0])).unwrap_err();
        assert!(err.contains("regressed below"), "{err}");
    }

    #[test]
    fn live_memory_sink_output_parses_strictly() {
        use crate::trace::{event, scoped, span, MemorySink};
        use std::sync::Arc;
        let sink = Arc::new(MemorySink::new());
        scoped(sink.clone(), || {
            let _outer = span("outer");
            let _inner = span("inner");
            event("tick", |e| {
                e.u("i", 1).s("why", "test").b("ok", true).f("x", 0.5);
            });
        });
        let text = sink.lines().join("\n");
        let recs = parse_trace(&text).unwrap();
        let s = validate(&recs).unwrap();
        assert_eq!(s.spans, 2);
        assert_eq!(s.events, 1);
    }
}
