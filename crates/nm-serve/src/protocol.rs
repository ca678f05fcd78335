//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response per line. Requests:
//!
//! ```text
//! {"op":"topk","user":7,"domain":"a","k":10}
//! {"op":"score","user":7,"domain":"b","items":[3,9,40]}
//! {"op":"stats"}
//! {"op":"obs"}
//! {"op":"series","window":30}
//! {"op":"trace","n":5}
//! {"op":"reload","path":"runs/exp1/model.nmss"}
//! {"op":"shutdown"}
//! ```
//!
//! Every response carries `"ok":true|false`; errors add `"error"` with
//! a message. See README "Serving" for the full schema.

use nm_obs::json::Json;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    TopK {
        user: u32,
        domain: usize,
        k: usize,
    },
    Score {
        user: u32,
        domain: usize,
        items: Vec<u32>,
    },
    Stats,
    /// Full unified metrics-registry snapshot (superset of `stats`).
    Obs,
    /// Windowed time-series view from the flight recorder: the last
    /// `window` ticks folded into rates/quantiles plus SLO budget rows
    /// (default: the whole retained ring).
    Series {
        window: Option<usize>,
    },
    /// Slowest-request exemplars rendered as a schema-v1 trace.
    /// `n` limits how many exemplars are returned (default: all).
    Trace {
        n: Option<usize>,
    },
    Reload {
        path: String,
    },
    Shutdown,
}

fn parse_domain(v: &Json) -> Result<usize, String> {
    match v {
        Json::Str(s) if s == "a" || s == "A" => Ok(0),
        Json::Str(s) if s == "b" || s == "B" => Ok(1),
        Json::Num(_) => match v.as_u64() {
            Some(d @ (0 | 1)) => Ok(d as usize),
            _ => Err("domain must be \"a\", \"b\", 0, or 1".into()),
        },
        _ => Err("domain must be \"a\", \"b\", 0, or 1".into()),
    }
}

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
    obj.get(name)
        .ok_or_else(|| format!("missing field '{name}'"))
}

fn u32_field(obj: &Json, name: &str) -> Result<u32, String> {
    field(obj, name)?
        .as_u64()
        .filter(|&v| v <= u32::MAX as u64)
        .map(|v| v as u32)
        .ok_or_else(|| format!("field '{name}' must be a u32"))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line.trim())?;
    let op = field(&v, "op")?
        .as_str()
        .ok_or("field 'op' must be a string")?;
    match op {
        "topk" => {
            let user = u32_field(&v, "user")?;
            let domain = parse_domain(field(&v, "domain")?)?;
            let k = field(&v, "k")?
                .as_u64()
                .filter(|&k| (1..=100_000).contains(&k))
                .ok_or("field 'k' must be an integer in 1..=100000")? as usize;
            Ok(Request::TopK { user, domain, k })
        }
        "score" => {
            let user = u32_field(&v, "user")?;
            let domain = parse_domain(field(&v, "domain")?)?;
            let items = field(&v, "items")?
                .as_arr()
                .ok_or("field 'items' must be an array")?
                .iter()
                .map(|j| {
                    j.as_u64()
                        .filter(|&i| i <= u32::MAX as u64)
                        .map(|i| i as u32)
                        .ok_or_else(|| "items must be u32 ids".to_string())
                })
                .collect::<Result<Vec<u32>, String>>()?;
            Ok(Request::Score {
                user,
                domain,
                items,
            })
        }
        "stats" => Ok(Request::Stats),
        "obs" => Ok(Request::Obs),
        "series" => {
            let window = match v.get("window") {
                None => None,
                Some(j) => Some(
                    j.as_u64()
                        .filter(|&w| (1..=1_000_000).contains(&w))
                        .ok_or("field 'window' must be an integer in 1..=1000000")?
                        as usize,
                ),
            };
            Ok(Request::Series { window })
        }
        "trace" => {
            let n = match v.get("n") {
                None => None,
                Some(j) => Some(
                    j.as_u64()
                        .filter(|&n| (1..=10_000).contains(&n))
                        .ok_or("field 'n' must be an integer in 1..=10000")?
                        as usize,
                ),
            };
            Ok(Request::Trace { n })
        }
        "reload" => {
            let path = field(&v, "path")?
                .as_str()
                .ok_or("field 'path' must be a string")?
                .to_string();
            Ok(Request::Reload { path })
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op '{other}'")),
    }
}

fn domain_name(domain: usize) -> &'static str {
    if domain == 0 {
        "a"
    } else {
        "b"
    }
}

/// `topk` success response.
pub fn encode_topk_response(
    user: u32,
    domain: usize,
    cached: bool,
    items: &[(u32, f32)],
) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("user".into(), Json::Num(user as f64)),
        ("domain".into(), Json::Str(domain_name(domain).into())),
        ("cached".into(), Json::Bool(cached)),
        (
            "items".into(),
            Json::Arr(items.iter().map(|&(i, _)| Json::Num(i as f64)).collect()),
        ),
        (
            "scores".into(),
            Json::Arr(items.iter().map(|&(_, s)| Json::Num(s as f64)).collect()),
        ),
    ])
    .encode()
}

/// `topk` response served in a degraded mode: `ok` stays true (the
/// client got a usable answer), but `degraded`/`reason` mark reduced
/// fidelity — `"partial"` (shards lost), `"stale"` (last good answer),
/// `"unavailable"` (empty), or `"deadline"` (full answer, over budget).
pub fn encode_topk_degraded(
    user: u32,
    domain: usize,
    reason: &str,
    items: &[(u32, f32)],
) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("user".into(), Json::Num(user as f64)),
        ("domain".into(), Json::Str(domain_name(domain).into())),
        ("cached".into(), Json::Bool(false)),
        ("degraded".into(), Json::Bool(true)),
        ("reason".into(), Json::Str(reason.into())),
        (
            "items".into(),
            Json::Arr(items.iter().map(|&(i, _)| Json::Num(i as f64)).collect()),
        ),
        (
            "scores".into(),
            Json::Arr(items.iter().map(|&(_, s)| Json::Num(s as f64)).collect()),
        ),
    ])
    .encode()
}

/// `score` success response.
pub fn encode_scores_response(user: u32, domain: usize, scores: &[f32]) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(true)),
        ("user".into(), Json::Num(user as f64)),
        ("domain".into(), Json::Str(domain_name(domain).into())),
        (
            "scores".into(),
            Json::Arr(scores.iter().map(|&s| Json::Num(s as f64)).collect()),
        ),
    ])
    .encode()
}

/// Generic success response with extra fields.
pub fn encode_ok(extra: Vec<(String, Json)>) -> String {
    let mut pairs = vec![("ok".into(), Json::Bool(true))];
    pairs.extend(extra);
    Json::Obj(pairs).encode()
}

/// Error response.
pub fn encode_error(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::Str(msg.into())),
    ])
    .encode()
}

/// Protocol-level error with a machine-readable `code` (`"timeout"`,
/// `"oversized"`, `"torn"`, `"malformed"`), sent before the server
/// closes or resynchronizes a misbehaving connection — never a silent
/// drop.
pub fn encode_proto_error(code: &str, msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("code".into(), Json::Str(code.into())),
        ("error".into(), Json::Str(msg.into())),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_topk() {
        let r = parse_request(r#"{"op":"topk","user":7,"domain":"a","k":10}"#).unwrap();
        assert_eq!(
            r,
            Request::TopK {
                user: 7,
                domain: 0,
                k: 10
            }
        );
        // numeric domain also accepted
        let r = parse_request(r#"{"op":"topk","user":7,"domain":1,"k":3}"#).unwrap();
        assert_eq!(
            r,
            Request::TopK {
                user: 7,
                domain: 1,
                k: 3
            }
        );
    }

    #[test]
    fn parses_score_and_admin_ops() {
        let r = parse_request(r#"{"op":"score","user":2,"domain":"b","items":[5,1,8]}"#).unwrap();
        assert_eq!(
            r,
            Request::Score {
                user: 2,
                domain: 1,
                items: vec![5, 1, 8]
            }
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"obs"}"#).unwrap(), Request::Obs);
        assert_eq!(
            parse_request(r#"{"op":"series"}"#).unwrap(),
            Request::Series { window: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"series","window":30}"#).unwrap(),
            Request::Series { window: Some(30) }
        );
        assert_eq!(
            parse_request(r#"{"op":"trace"}"#).unwrap(),
            Request::Trace { n: None }
        );
        assert_eq!(
            parse_request(r#"{"op":"trace","n":5}"#).unwrap(),
            Request::Trace { n: Some(5) }
        );
        assert_eq!(
            parse_request(r#"{"op":"reload","path":"m.nmss"}"#).unwrap(),
            Request::Reload {
                path: "m.nmss".into()
            }
        );
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn rejects_bad_requests() {
        for bad in [
            "not json",
            r#"{"user":1}"#,
            r#"{"op":"frobnicate"}"#,
            r#"{"op":"topk","user":1,"domain":"c","k":5}"#,
            r#"{"op":"topk","user":1,"domain":"a","k":0}"#,
            r#"{"op":"topk","user":1,"domain":"a","k":1000000}"#,
            r#"{"op":"topk","user":-3,"domain":"a","k":5}"#,
            r#"{"op":"topk","user":1.5,"domain":"a","k":5}"#,
            r#"{"op":"score","user":1,"domain":"a","items":[1,"x"]}"#,
            r#"{"op":"trace","n":0}"#,
            r#"{"op":"trace","n":"all"}"#,
            r#"{"op":"reload"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn responses_are_single_line_json_with_ok() {
        let r = encode_topk_response(3, 0, true, &[(9, 1.5), (2, 0.5)]);
        assert!(!r.contains('\n'));
        let v = Json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("cached").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("domain").unwrap().as_str(), Some("a"));
        let items = v.get("items").unwrap().as_arr().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].as_u64(), Some(9));

        let e = encode_error("bad \"input\"");
        let v = Json::parse(&e).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("bad"));
    }

    #[test]
    fn degraded_and_proto_error_responses_are_structured() {
        let r = encode_topk_degraded(3, 1, "stale", &[(4, 2.0)]);
        let v = Json::parse(&r).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("degraded").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("reason").unwrap().as_str(), Some("stale"));
        assert_eq!(v.get("items").unwrap().as_arr().unwrap().len(), 1);

        let e = encode_proto_error("oversized", "frame exceeds 65536 bytes");
        let v = Json::parse(&e).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("code").unwrap().as_str(), Some("oversized"));
        assert!(v.get("error").unwrap().as_str().unwrap().contains("frame"));
    }

    #[test]
    fn score_response_preserves_order() {
        let r = encode_scores_response(1, 1, &[0.5, -1.25, 3.0]);
        let v = Json::parse(&r).unwrap();
        let s = v.get("scores").unwrap().as_arr().unwrap();
        assert_eq!(s[1].as_f64(), Some(-1.25));
        assert_eq!(v.get("domain").unwrap().as_str(), Some("b"));
    }
}
