//! Newline-delimited JSON codec for `dccs serve`.
//!
//! The vendored `serde_json` stand-in is emit-only, so the request side is
//! a small hand-written recursive-descent parser producing the same
//! [`Value`] tree the emitter consumes. It accepts one JSON document per
//! line and is deliberately lenient about number grammar edge cases
//! (`.5`, `1.` parse like `f64::from_str` does) — every number is an `f64`,
//! matching the vendored `Value::Number`.
//!
//! Wire format (one request object per line; every field optional, defaults
//! come from the command line):
//!
//! ```text
//! {"id":7,"d":2,"s":2,"k":5,"algorithm":"bu","serve":"peel",
//!  "timeout_ms":250,"budget":40,"degrade":true}
//! ```
//!
//! A line carrying `"op":"apply"` is a mutation batch instead of a query:
//! its `insert`/`delete` arrays hold `[layer, u, v]` triples, committed
//! atomically when the line's turn in the stream comes up:
//!
//! ```text
//! {"id":9,"op":"apply","insert":[[0,1,2],[1,3,4]],"delete":[[0,5,6]]}
//! ```
//!
//! Responses are emitted one per line, in input order:
//!
//! ```text
//! {"id":7,"ok":true,"cover":12,"cores":3,"candidates":9,
//!  "algorithm":"BU-DCCS","serve":"peel","cache":false,"epoch":1,"ms":0.42}
//! {"id":8,"ok":false,"error":"...","limit":true}
//! {"id":9,"ok":true,"op":"apply","epoch":2,"inserted":2,"deleted":1,
//!  "layers":2,"detached":false,"ms":0.31}
//! ```
//!
//! A malformed line produces an `ok:false` response for that line only; the
//! stream continues.

use dccs::{
    Algorithm, CommitReceipt, DccsError, DccsParams, DccsResult, QueryLimits, Serve, ServePath,
};
use mlgraph::{EdgeBatch, Layer, Vertex};
use serde_json::Value;
use std::time::Duration;

/// Parses one JSON document from `line`, rejecting trailing garbage.
pub fn parse(line: &str) -> Result<Value, String> {
    let mut p = Parser { src: line, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != line.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r' | '\n')) {
            self.bump();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.bump() {
            Some(c) if c == want => Ok(()),
            Some(c) => {
                Err(format!("expected `{want}` at byte {}, found `{c}`", self.pos - c.len_utf8()))
            }
            None => Err(format!("expected `{want}`, found end of line")),
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => self.string().map(Value::String),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected `{c}` at byte {}", self.pos)),
            None => Err("unexpected end of line".into()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.bump();
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            pairs.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => return Ok(Value::Object(pairs)),
                Some(c) => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found `{c}`",
                        self.pos - c.len_utf8()
                    ))
                }
                None => return Err("unterminated object".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.bump();
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => return Ok(Value::Array(items)),
                Some(c) => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found `{c}`",
                        self.pos - c.len_utf8()
                    ))
                }
                None => return Err("unterminated array".into()),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('b') => out.push('\u{0008}'),
                    Some('f') => out.push('\u{000C}'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('u') => out.push(self.unicode_escape()?),
                    Some(c) => return Err(format!("invalid escape `\\{c}`")),
                    None => return Err("unterminated string".into()),
                },
                Some(c) if (c as u32) < 0x20 => {
                    return Err("unescaped control character in string".into())
                }
                Some(c) => out.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            // A UTF-16 surrogate pair: the low half must follow immediately.
            if self.bump() != Some('\\') || self.bump() != Some('u') {
                return Err("lone high surrogate in \\u escape".into());
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err("invalid low surrogate in \\u escape".into());
            }
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(code).ok_or_else(|| "invalid \\u escape".into());
        }
        char::from_u32(high).ok_or_else(|| "invalid \\u escape".into())
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = self
                .bump()
                .and_then(|c| c.to_digit(16))
                .ok_or_else(|| "\\u needs four hex digits".to_string())?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || "-+.eE".contains(c)) {
            self.bump();
        }
        self.src[start..self.pos]
            .parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number `{}`", &self.src[start..self.pos]))
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.src[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("unexpected token at byte {}", self.pos))
        }
    }
}

/// Per-request fallbacks, taken from the `dccs serve` command line: a
/// request object only overrides the fields it carries.
pub struct RequestDefaults {
    /// Degree threshold (`-d`).
    pub d: u32,
    /// Layer-subset size (`-s`, resolved against the graph).
    pub s: usize,
    /// Cover budget (`-k`).
    pub k: usize,
    /// Algorithm (`--algorithm`).
    pub algorithm: Algorithm,
    /// Serve mode (`--serve`).
    pub serve: Serve,
    /// Resource limits (`--timeout-ms`, `--budget`, `--degrade`).
    pub limits: QueryLimits,
}

/// One decoded request line: the caller-visible `id` (defaults to the
/// 1-based line number) and the service query to run.
#[derive(Debug)]
pub struct Request {
    /// Echoed verbatim in the response line.
    pub id: u64,
    /// The query, with every unspecified field filled from the defaults.
    pub query: dccs::ServiceQuery,
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 9.0e15 => Some(*n as u64),
        _ => None,
    }
}

fn as_usize(v: &Value) -> Option<usize> {
    as_u64(v).and_then(|n| usize::try_from(n).ok())
}

/// One decoded `"op":"apply"` line: a mutation batch to commit when its
/// turn in the stream comes up.
#[derive(Debug)]
pub struct ApplyRequest {
    /// Echoed verbatim in the response line.
    pub id: u64,
    /// The edge mutations to commit atomically.
    pub batch: EdgeBatch,
}

/// One decoded line of the serve stream: a query to answer or a mutation
/// batch to commit.
#[derive(Debug)]
pub enum Line {
    /// An ordinary query request.
    Query(Request),
    /// An `"op":"apply"` mutation batch.
    Apply(ApplyRequest),
}

/// Decodes one stream line, routing on the presence of an `op` field:
/// objects carrying one are mutation batches, everything else decodes as a
/// query against `defaults`. Errors carry the id to answer with.
pub fn parse_line(
    line: &str,
    lineno: usize,
    defaults: &RequestDefaults,
) -> Result<Line, (u64, String)> {
    let fallback = lineno as u64;
    let value = parse(line).map_err(|e| (fallback, e))?;
    let Value::Object(pairs) = value else {
        return Err((fallback, "request must be a JSON object".into()));
    };
    let id = request_id(&pairs, fallback)?;
    if pairs.iter().any(|(k, _)| k == "op") {
        apply_from_pairs(&pairs, id).map(Line::Apply)
    } else {
        request_from_pairs(&pairs, id, defaults).map(Line::Query)
    }
}

/// Decodes one query line against `defaults`. Errors carry the id to
/// answer with — the request's own `id` when it parsed that far, the
/// 1-based `lineno` otherwise. The serve loop goes through [`parse_line`];
/// this query-only entry remains for the tests.
#[cfg(test)]
pub fn parse_request(
    line: &str,
    lineno: usize,
    defaults: &RequestDefaults,
) -> Result<Request, (u64, String)> {
    let fallback = lineno as u64;
    let value = parse(line).map_err(|e| (fallback, e))?;
    let Value::Object(pairs) = value else {
        return Err((fallback, "request must be a JSON object".into()));
    };
    let id = request_id(&pairs, fallback)?;
    request_from_pairs(&pairs, id, defaults)
}

/// Resolves the `id` to answer with: the object's own `id` field when
/// present and well-formed, the caller's fallback (1-based line number)
/// otherwise.
fn request_id(pairs: &[(String, Value)], fallback: u64) -> Result<u64, (u64, String)> {
    match pairs.iter().find(|(k, _)| k == "id") {
        Some((_, v)) => {
            as_u64(v).ok_or((fallback, "`id` must be a non-negative integer".to_string()))
        }
        None => Ok(fallback),
    }
}

fn request_from_pairs(
    pairs: &[(String, Value)],
    id: u64,
    defaults: &RequestDefaults,
) -> Result<Request, (u64, String)> {
    let field = |name: &str, msg: &str| (id, format!("`{name}` {msg}"));
    let mut d = defaults.d;
    let mut s = defaults.s;
    let mut k = defaults.k;
    let mut algorithm = defaults.algorithm;
    let mut serve = defaults.serve;
    let mut limits = defaults.limits;
    for (key, v) in pairs {
        match key.as_str() {
            "id" => {}
            "d" => {
                d = as_u64(v)
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| field("d", "must be a non-negative integer"))?
            }
            "s" => s = as_usize(v).ok_or_else(|| field("s", "must be a non-negative integer"))?,
            "k" => k = as_usize(v).ok_or_else(|| field("k", "must be a non-negative integer"))?,
            "algorithm" => {
                let Value::String(name) = v else {
                    return Err(field("algorithm", "must be a string"));
                };
                algorithm = Algorithm::parse(name)
                    .ok_or_else(|| (id, format!("unknown algorithm `{name}`")))?;
            }
            "serve" => {
                let Value::String(name) = v else {
                    return Err(field("serve", "must be a string"));
                };
                serve = Serve::parse(name)
                    .ok_or_else(|| (id, format!("unknown serve mode `{name}`")))?;
            }
            "timeout_ms" => {
                let ms = as_u64(v)
                    .ok_or_else(|| field("timeout_ms", "must be a non-negative integer"))?;
                limits.deadline = Some(Duration::from_millis(ms));
            }
            "budget" => {
                limits.candidate_budget = Some(
                    as_usize(v).ok_or_else(|| field("budget", "must be a non-negative integer"))?,
                );
            }
            "degrade" => {
                let Value::Bool(flag) = v else {
                    return Err(field("degrade", "must be a boolean"));
                };
                limits.degrade = *flag;
            }
            other => return Err((id, format!("unknown field `{other}`"))),
        }
    }
    let query = dccs::ServiceQuery::new(DccsParams::new(d, s, k))
        .with_algorithm(algorithm)
        .with_serve(serve)
        .with_limits(limits);
    Ok(Request { id, query })
}

fn apply_from_pairs(pairs: &[(String, Value)], id: u64) -> Result<ApplyRequest, (u64, String)> {
    let mut batch = EdgeBatch::new();
    for (key, v) in pairs {
        match key.as_str() {
            "id" => {}
            "op" => {
                let Value::String(name) = v else {
                    return Err((id, "`op` must be a string".into()));
                };
                if name != "apply" {
                    return Err((id, format!("unknown op `{name}`")));
                }
            }
            "insert" => edges_into(v, "insert", &mut batch, true).map_err(|m| (id, m))?,
            "delete" => edges_into(v, "delete", &mut batch, false).map_err(|m| (id, m))?,
            other => return Err((id, format!("unknown field `{other}` in apply request"))),
        }
    }
    Ok(ApplyRequest { id, batch })
}

/// Decodes an array of `[layer, u, v]` triples into `batch` as insertions
/// or deletions.
fn edges_into(v: &Value, name: &str, batch: &mut EdgeBatch, insert: bool) -> Result<(), String> {
    let bad = || format!("`{name}` must be an array of [layer, u, v] integer triples");
    let Value::Array(items) = v else {
        return Err(bad());
    };
    for item in items {
        let Value::Array(triple) = item else {
            return Err(bad());
        };
        let [layer, u, w] = triple.as_slice() else {
            return Err(bad());
        };
        let layer = as_usize(layer).ok_or_else(bad)? as Layer;
        let vertex = |x: &Value| -> Result<Vertex, String> {
            let id = as_u64(x).ok_or_else(bad)?;
            Vertex::try_from(id).map_err(|_| {
                format!("`{name}` vertex id {id} exceeds the {} id limit", Vertex::MAX)
            })
        };
        let (u, w) = (vertex(u)?, vertex(w)?);
        if insert {
            batch.insert(layer, u, w);
        } else {
            batch.delete(layer, u, w);
        }
    }
    Ok(())
}

/// The response line for a committed (or no-op) mutation batch: the epoch
/// now serving and the effective edge counts.
pub fn apply_response(id: u64, receipt: &CommitReceipt, ms: f64) -> String {
    serde_json::to_string(&Value::Object(vec![
        ("id".to_string(), Value::from(id)),
        ("ok".to_string(), Value::from(true)),
        ("op".to_string(), Value::from("apply")),
        ("epoch".to_string(), Value::from(receipt.epoch)),
        ("inserted".to_string(), Value::from(receipt.inserted)),
        ("deleted".to_string(), Value::from(receipt.deleted)),
        ("layers".to_string(), Value::from(receipt.layers_touched)),
        ("detached".to_string(), Value::from(receipt.index_detached)),
        ("ms".to_string(), Value::from(ms)),
    ]))
}

/// The response line for a successfully answered query.
pub fn ok_response(id: u64, result: &DccsResult, ms: f64) -> String {
    let mut pairs = vec![
        ("id".to_string(), Value::from(id)),
        ("ok".to_string(), Value::from(true)),
        ("cover".to_string(), Value::from(result.cover_size())),
        ("cores".to_string(), Value::from(result.num_cores())),
        ("candidates".to_string(), Value::from(result.stats.candidates_generated)),
    ];
    if let Some(algorithm) = result.stats.algorithm {
        pairs.push(("algorithm".to_string(), Value::from(algorithm.name())));
    }
    if let Some(serve) = result.stats.serve {
        let name = match serve {
            ServePath::Index => "index",
            ServePath::Peel => "peel",
        };
        pairs.push(("serve".to_string(), Value::from(name)));
    }
    pairs.push(("cache".to_string(), Value::from(result.stats.served_from_cache)));
    if let Some(epoch) = result.stats.graph_epoch {
        pairs.push(("epoch".to_string(), Value::from(epoch)));
    }
    pairs.push(("ms".to_string(), Value::from(ms)));
    serde_json::to_string(&Value::Object(pairs))
}

/// The response line for a failed query or an undecodable request line.
/// `limit` marks queries that ran out of their allowance (the serve stream
/// keeps going, so the per-invocation exit code cannot carry this).
pub fn error_response(id: u64, message: &str, limit: bool) -> String {
    let mut pairs = vec![
        ("id".to_string(), Value::from(id)),
        ("ok".to_string(), Value::from(false)),
        ("error".to_string(), Value::from(message)),
    ];
    if limit {
        pairs.push(("limit".to_string(), Value::from(true)));
    }
    serde_json::to_string(&Value::Object(pairs))
}

/// Maps a [`DccsError`] to its response line.
pub fn dccs_error_response(id: u64, err: &DccsError) -> String {
    error_response(id, &err.to_string(), err.is_limit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defaults() -> RequestDefaults {
        RequestDefaults {
            d: 4,
            s: 3,
            k: 10,
            algorithm: Algorithm::Auto,
            serve: Serve::Auto,
            limits: QueryLimits::none(),
        }
    }

    #[test]
    fn parses_scalars_and_nesting() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e1").unwrap(), Value::Number(-25.0));
        assert_eq!(parse(r#""a\"b\nA""#).unwrap(), Value::String("a\"b\nA".into()));
        assert_eq!(
            parse(r#"{"xs":[1,2],"o":{"k":null}}"#).unwrap(),
            Value::Object(vec![
                ("xs".into(), Value::Array(vec![Value::Number(1.0), Value::Number(2.0)])),
                ("o".into(), Value::Object(vec![("k".into(), Value::Null)])),
            ])
        );
        // Surrogate pairs decode to one scalar value.
        assert_eq!(parse(r#""😀""#).unwrap(), Value::String("😀".into()));
    }

    #[test]
    fn parse_round_trips_the_emitter() {
        let v = Value::object(vec![
            ("name", Value::from("dcc \"quoted\"\n")),
            ("runs", Value::from(vec![1usize, 2, 3])),
            ("ok", Value::from(true)),
        ]);
        assert_eq!(parse(&serde_json::to_string(&v)).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "{\"a\":}", "[1,]", "tru", "\"unterminated", "{\"a\":1} extra", "{'a':1}"]
        {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn requests_default_missing_fields_and_override_present_ones() {
        let req = parse_request("{}", 7, &defaults()).unwrap();
        assert_eq!(req.id, 7);
        assert_eq!(req.query.spec.params, DccsParams::new(4, 3, 10));
        assert_eq!(req.query.spec.algorithm, Algorithm::Auto);
        assert!(req.query.limits.is_unlimited());

        let line = r#"{"id":99,"d":2,"s":2,"k":5,"algorithm":"bu","serve":"peel","timeout_ms":250,"budget":40,"degrade":true}"#;
        let req = parse_request(line, 1, &defaults()).unwrap();
        assert_eq!(req.id, 99);
        assert_eq!(req.query.spec.params, DccsParams::new(2, 2, 5));
        assert_eq!(req.query.spec.algorithm, Algorithm::BottomUp);
        assert_eq!(req.query.serve, Serve::Peel);
        assert_eq!(req.query.limits.deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.query.limits.candidate_budget, Some(40));
        assert!(req.query.limits.degrade);
    }

    #[test]
    fn request_errors_carry_the_best_available_id() {
        // Undecodable line: the 1-based line number stands in.
        let (id, msg) = parse_request("not json", 3, &defaults()).unwrap_err();
        assert_eq!(id, 3);
        assert!(!msg.is_empty());
        // Parsed object with a bad field: the request's own id is used.
        let (id, msg) = parse_request(r#"{"id":42,"d":"two"}"#, 3, &defaults()).unwrap_err();
        assert_eq!(id, 42);
        assert!(msg.contains("`d`"), "got: {msg}");
        // Unknown fields are rejected, not ignored — typos must not
        // silently fall back to defaults.
        let (_, msg) = parse_request(r#"{"dd":2}"#, 1, &defaults()).unwrap_err();
        assert!(msg.contains("unknown field"), "got: {msg}");
        for bad in [r#"[1]"#, r#"{"algorithm":"quantum"}"#, r#"{"serve":7}"#] {
            assert!(parse_request(bad, 1, &defaults()).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn parse_line_routes_queries_and_applies() {
        // No `op` field: an ordinary query, identical to `parse_request`.
        match parse_line(r#"{"id":3,"d":2}"#, 1, &defaults()).unwrap() {
            Line::Query(req) => {
                assert_eq!(req.id, 3);
                assert_eq!(req.query.spec.params.d, 2);
            }
            other => panic!("expected a query, got {other:?}"),
        }
        // `op:"apply"` with triples on both lists.
        let line = r#"{"id":9,"op":"apply","insert":[[0,1,2],[1,3,4]],"delete":[[0,5,6]]}"#;
        match parse_line(line, 1, &defaults()).unwrap() {
            Line::Apply(apply) => {
                assert_eq!(apply.id, 9);
                assert_eq!(apply.batch.inserts(), &[(0, 1, 2), (1, 3, 4)]);
                assert_eq!(apply.batch.deletes(), &[(0, 5, 6)]);
            }
            other => panic!("expected an apply, got {other:?}"),
        }
        // An apply with no edge lists is a (legal) no-op batch.
        match parse_line(r#"{"op":"apply"}"#, 4, &defaults()).unwrap() {
            Line::Apply(apply) => {
                assert_eq!(apply.id, 4);
                assert!(apply.batch.is_empty());
            }
            other => panic!("expected an apply, got {other:?}"),
        }
    }

    #[test]
    fn malformed_apply_lines_carry_the_id_and_a_reason() {
        for (bad, needle) in [
            (r#"{"op":"revert"}"#, "unknown op"),
            (r#"{"op":7}"#, "`op` must be a string"),
            (r#"{"op":"apply","insert":7}"#, "integer triples"),
            (r#"{"op":"apply","insert":[[0,1]]}"#, "integer triples"),
            (r#"{"op":"apply","delete":[[0,1,"x"]]}"#, "integer triples"),
            (r#"{"op":"apply","d":2}"#, "unknown field"),
        ] {
            let (id, msg) = parse_line(bad, 6, &defaults()).unwrap_err();
            assert_eq!(id, 6, "line `{bad}`");
            assert!(msg.contains(needle), "line `{bad}`: got `{msg}`");
        }
        let (id, _) =
            parse_line(r#"{"id":11,"op":"apply","insert":0}"#, 6, &defaults()).unwrap_err();
        assert_eq!(id, 11);
    }

    #[test]
    fn apply_responses_report_the_receipt() {
        let receipt = dccs::CommitReceipt {
            epoch: 5,
            inserted: 2,
            deleted: 1,
            layers_touched: 2,
            repaired_ds: 1,
            index_detached: true,
        };
        let line = apply_response(9, &receipt, 0.5);
        assert!(!line.contains('\n'));
        let Value::Object(pairs) = parse(&line).unwrap() else { panic!("not an object") };
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        assert_eq!(get("id"), Some(Value::Number(9.0)));
        assert_eq!(get("ok"), Some(Value::Bool(true)));
        assert_eq!(get("op"), Some(Value::String("apply".into())));
        assert_eq!(get("epoch"), Some(Value::Number(5.0)));
        assert_eq!(get("inserted"), Some(Value::Number(2.0)));
        assert_eq!(get("deleted"), Some(Value::Number(1.0)));
        assert_eq!(get("layers"), Some(Value::Number(2.0)));
        assert_eq!(get("detached"), Some(Value::Bool(true)));
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let err = error_response(5, "bad \"input\"\nline", true);
        assert!(!err.contains('\n'), "got: {err}");
        let v = parse(&err).unwrap();
        let Value::Object(pairs) = v else { panic!("not an object") };
        assert!(pairs.iter().any(|(k, v)| k == "ok" && *v == Value::Bool(false)));
        assert!(pairs.iter().any(|(k, v)| k == "limit" && *v == Value::Bool(true)));
        assert!(!error_response(5, "plain", false).contains("limit"));
    }
}
