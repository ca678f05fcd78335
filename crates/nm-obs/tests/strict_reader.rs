//! Every schema the strict reader knows, driven from one table: for
//! each schema a valid artifact parses, and an unknown field, a
//! missing required field and a mistyped field are each rejected with
//! an error naming the field.

use nm_obs::{parse_series, parse_trace};

const META: &str = r#"{"t":"meta","version":1,"clock":"monotonic_us","seq":0}"#;

/// A series dump with both objective kinds, one tick and one histogram.
const SERIES: &str = concat!(
    r#"{"t":"series_meta","version":1,"capacity":8,"dropped":0,"next_tick":1,"slos":["#,
    r#"{"name":"p99","objective":{"kind":"hist_above","hist":"lat","limit_us":5000},"#,
    r#""target":0.01,"fast_window":1,"slow_window":2,"burn_threshold":6,"min_events":1},"#,
    r#"{"name":"err","objective":{"kind":"counter_ratio","bad":["e"],"total":"r"},"#,
    r#""target":0.01,"fast_window":1,"slow_window":2,"burn_threshold":6,"min_events":1}]}"#,
    "\n",
    r#"{"t":"tick","tick":0,"counters":{"r":3},"gauges":{"g":1.5},"#,
    r#""hists":{"lat":{"bounds":[10,100],"buckets":[1,0,0],"count":1,"sum":5,"max":5}}}"#,
    "\n",
);

/// One schema: a valid artifact holding `field` as the exact text
/// `"field":value`, which is not first in its object, and a value of
/// the wrong type for it.
struct Case {
    schema: &'static str,
    artifact: String,
    field: &'static str,
    value: &'static str,
    mistyped: &'static str,
}

fn trace(line: &str) -> String {
    format!("{META}\n{line}\n")
}

fn event(name: &str, payload: &str) -> String {
    trace(&format!(
        r#"{{"t":"event","name":"{name}","at_us":1,"tid":0,"seq":1,"f":{{{payload}}}}}"#
    ))
}

fn cases() -> Vec<Case> {
    let case = |schema, artifact, field, value, mistyped| Case {
        schema,
        artifact,
        field,
        value,
        mistyped,
    };
    vec![
        case("meta", trace(""), "version", "1", "\"1\""),
        case(
            "span",
            trace(
                r#"{"t":"span","name":"s","start_us":0,"dur_us":5,"self_us":5,"depth":0,"tid":0,"seq":1}"#,
            ),
            "self_us",
            "5",
            "-5",
        ),
        case("event", event("epoch", r#""epoch":0"#), "at_us", "1", "1.5"),
        case(
            "obs.sample",
            event("obs.sample", r#""tick":0,"self_us":12"#),
            "self_us",
            "12",
            "\"12\"",
        ),
        case(
            "obs.slo.alert",
            event(
                "obs.slo.alert",
                r#""slo":"p99","tick":1,"fast_burn":7.5,"slow_burn":6.1"#,
            ),
            "fast_burn",
            "7.5",
            "\"fast\"",
        ),
        case(
            "obs.slo.resolve",
            event("obs.slo.resolve", r#""tick":2,"slo":"p99""#),
            "slo",
            "\"p99\"",
            "3",
        ),
        case(
            "obs.profile.op",
            event(
                "obs.profile.op",
                r#""tick":0,"kind":"add","fwd_calls":1,"bwd_calls":1,"fwd_flops":2,"bwd_flops":2,"fwd_bytes":8,"bwd_bytes":9,"alloc_b":4,"freed_b":0"#,
            ),
            "bwd_bytes",
            "9",
            "null",
        ),
        case(
            "obs.profile.time",
            event(
                "obs.profile.time",
                r#""tick":0,"kind":"add","fwd_calls":1,"bwd_calls":1,"fwd_ns":10,"bwd_ns":20"#,
            ),
            "kind",
            "\"add\"",
            "7",
        ),
        case(
            "obs.profile.peaks",
            event("obs.profile.peaks", r#""gflops":12.5,"gbps":4.0"#),
            "gbps",
            "4.0",
            "true",
        ),
        case(
            "obs.alloc.summary",
            event(
                "obs.alloc.summary",
                r#""tick":1,"allocated_b":100,"freed_b":50,"peak_b":60"#,
            ),
            "peak_b",
            "60",
            "[60]",
        ),
        case(
            "serve.exemplar",
            event(
                "serve.exemplar",
                r#""id":0,"domain":1,"user":7,"k":10,"queue_depth":2,"lock_us":3,"cache_hit":false,"coalesced":true,"shed":0"#,
            ),
            "coalesced",
            "true",
            "1",
        ),
        case("series_meta", SERIES.into(), "next_tick", "1", "\"1\""),
        case("tick", SERIES.into(), "gauges", r#"{"g":1.5}"#, "[]"),
        case("hist", SERIES.into(), "max", "5", "\"5\""),
        case("hist", SERIES.into(), "buckets", "[1,0,0]", "[1,0,\"x\"]"),
        case("slo spec", SERIES.into(), "burn_threshold", "6", "\"6\""),
        case(
            "hist_above objective",
            SERIES.into(),
            "limit_us",
            "5000",
            "-1",
        ),
        case(
            "counter_ratio objective",
            SERIES.into(),
            "total",
            "\"r\"",
            "1",
        ),
    ]
}

fn read(artifact: &str) -> Result<(), String> {
    if artifact.starts_with(r#"{"t":"series_meta""#) {
        parse_series(artifact).map(drop)
    } else {
        parse_trace(artifact).map(drop)
    }
}

#[test]
fn every_schema_rejects_unknown_missing_and_mistyped_fields() {
    for c in cases() {
        let pair = format!("\"{}\":{}", c.field, c.value);
        assert!(
            c.artifact.contains(&format!(",{pair}")),
            "{}: {pair}",
            c.schema
        );
        if let Err(e) = read(&c.artifact) {
            panic!("{}: the valid artifact is rejected: {e}", c.schema);
        }
        // (the field the error must name, what replaces `,"field":value`)
        let bad = [
            ("zz_unknown", format!(",{pair},\"zz_unknown\":1")),
            (c.field, String::new()),
            (c.field, format!(",\"{}\":{}", c.field, c.mistyped)),
        ];
        for (named, with) in bad {
            let text = c.artifact.replacen(&format!(",{pair}"), &with, 1);
            match read(&text) {
                Ok(()) => panic!("{}: accepted {text}", c.schema),
                Err(e) => assert!(
                    e.contains(&format!("\"{named}\"")),
                    "{}: error does not name {named:?}: {e}",
                    c.schema
                ),
            }
        }
    }
}
