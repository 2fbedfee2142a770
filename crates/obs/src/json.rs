//! Minimal JSON parsing and Chrome `trace_event` validation.
//!
//! The workspace vendors no serde; this recursive-descent parser covers
//! exactly what trace validation needs (objects, arrays, strings,
//! numbers, booleans, null) and powers the CI `observability` job's
//! structural checks: every event well-typed, no negative durations,
//! and complete (`X`) spans properly nested per thread.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number inside, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string inside, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Maximum container nesting depth [`parse_json`] accepts. Inputs may
/// come from untrusted sources (network frames, on-disk traces); the
/// recursive-descent parser must return an error on `[[[[…` bombs
/// instead of overflowing the stack, which would abort the process.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses a complete JSON document. Errors carry a byte offset.
/// Container nesting beyond [`MAX_JSON_DEPTH`] is a parse error.
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    if depth > MAX_JSON_DEPTH {
        return Err(format!(
            "nesting depth exceeds {MAX_JSON_DEPTH} at byte {pos}",
            pos = *pos
        ));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(bytes, pos, depth),
        Some(b'[') => parse_arr(bytes, pos, depth),
        Some(b'"') => Ok(JsonValue::Str(parse_str(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: JsonValue) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "non-utf8 number".to_string())?;
    text.parse::<f64>()
        .map(JsonValue::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_str(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // copy a full utf-8 scalar, not a byte
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|_| "non-utf8 string".to_string())?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| "unterminated string".to_string())?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}", pos = *pos));
        }
        let key = parse_str(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

/// Structural statistics of a validated Chrome trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events.
    pub events: usize,
    /// `X` (complete span) events.
    pub spans: usize,
    /// `C` (counter) events.
    pub counters: usize,
    /// `I` (instant) events.
    pub instants: usize,
    /// Distinct `(pid, tid)` lanes seen.
    pub threads: usize,
    /// Deepest span nesting across all lanes (1 = no nesting).
    pub max_depth: usize,
}

/// Validates Chrome `trace_event` JSON structurally:
///
/// * the document parses and is `{"traceEvents": [...]}`;
/// * every event has string `name`/`ph` and numeric non-negative
///   `ts`/`pid`/`tid`, with `ph` one of `X`, `C`, `I`;
/// * every `X` event has a non-negative `dur`;
/// * per `(pid, tid)` lane, `X` spans nest properly — each span lies
///   entirely inside (or entirely outside) every other.
///
/// Returns structural statistics on success.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;

    let mut stats = TraceStats {
        events: events.len(),
        ..TraceStats::default()
    };
    // (pid, tid) -> spans as (ts, dur)
    let mut lanes: BTreeMap<(u64, u64), Vec<(u64, u64)>> = BTreeMap::new();

    for (i, ev) in events.iter().enumerate() {
        let ctx = |what: &str| format!("event {i}: {what}");
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string \"name\""))?;
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing string \"ph\""))?;
        let num_field = |field: &str| -> Result<u64, String> {
            let v = ev
                .get(field)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| ctx(&format!("missing numeric \"{field}\"")))?;
            if v < 0.0 {
                return Err(ctx(&format!("negative \"{field}\" ({v}) in \"{name}\"")));
            }
            Ok(v as u64)
        };
        let ts = num_field("ts")?;
        let pid = num_field("pid")?;
        let tid = num_field("tid")?;
        match ph {
            "X" => {
                stats.spans += 1;
                let dur = num_field("dur")?;
                lanes.entry((pid, tid)).or_default().push((ts, dur));
            }
            "C" => stats.counters += 1,
            "I" => stats.instants += 1,
            other => return Err(ctx(&format!("unsupported phase {other:?} in \"{name}\""))),
        }
    }

    // nesting check per lane: sort (start asc, longest first) and walk
    // a stack of open intervals; every span must fit inside the top
    for ((pid, tid), mut spans) in lanes {
        spans.sort_by_key(|&(ts, dur)| (ts, std::cmp::Reverse(dur)));
        let mut stack: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for (ts, dur) in spans {
            let end = ts + dur;
            while let Some(&(_, open_end)) = stack.last() {
                if open_end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(_, open_end)) = stack.last() {
                if end > open_end {
                    return Err(format!(
                        "lane (pid {pid}, tid {tid}): span [{ts}, {end}) overlaps enclosing span \
                         ending at {open_end} without nesting"
                    ));
                }
            }
            stack.push((ts, end));
            stats.max_depth = stats.max_depth.max(stack.len());
        }
        stats.threads += 1;
    }

    Ok(stats)
}

/// Reduces Chrome trace JSON to a timestamp-free schema summary: per
/// phase, the sorted union of member keys (dotting into `args`) and the
/// sorted set of event names. Two traces of the same workload produce
/// identical summaries even though timestamps differ — the anchor for
/// golden-file schema tests.
pub fn schema_summary(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"traceEvents\" array".to_string())?;

    // phase -> (key set, name set)
    let mut phases: BTreeMap<String, (BTreeSet<String>, BTreeSet<String>)> = BTreeMap::new();
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event missing \"ph\"".to_string())?;
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event missing \"name\"".to_string())?;
        let entry = phases.entry(ph.to_string()).or_default();
        entry.1.insert(name.to_string());
        if let JsonValue::Obj(members) = ev {
            for (key, value) in members {
                if key == "args" {
                    if let JsonValue::Obj(args) = value {
                        for (arg_key, _) in args {
                            entry.0.insert(format!("args.{arg_key}"));
                        }
                        continue;
                    }
                }
                entry.0.insert(key.clone());
            }
        }
    }

    let mut out = String::new();
    for (ph, (keys, names)) in &phases {
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let _ = writeln!(out, "phase {ph} keys=[{}]", keys.join(","));
        let _ = writeln!(out, "phase {ph} names=[{}]", names.join(","));
    }
    Ok(out)
}

/// Escapes a string for embedding in a JSON string literal (the caller
/// writes the surrounding quotes): quotes, backslashes and control
/// characters. The one escaper behind every hand-built JSON line in the
/// workspace.
pub fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_strings() {
        assert_eq!(
            json_escape("a \"quoted\"\nline\\path"),
            "a \\\"quoted\\\"\\nline\\\\path"
        );
        assert_eq!(json_escape("tab\tcr\r\u{1}é"), "tab\\tcr\\r\\u0001é");
        let doc = parse_json(&format!("\"{}\"", json_escape("q\"\\\n\u{1f}x"))).unwrap();
        assert_eq!(doc.as_str(), Some("q\"\\\n\u{1f}x"), "escapes must round-trip");
    }

    #[test]
    fn parses_scalars_and_containers() {
        let doc = parse_json(r#"{"a": [1, -2.5, "x\ny", true, null], "b": {"c": 3e2}}"#).unwrap();
        let arr = doc.get("a").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\ny"));
        assert_eq!(arr[3], JsonValue::Bool(true));
        assert_eq!(arr[4], JsonValue::Null);
        assert_eq!(
            doc.get("b").and_then(|b| b.get("c")).and_then(JsonValue::as_f64),
            Some(300.0)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse_json("{").is_err());
        assert!(parse_json(r#"{"a": }"#).is_err());
        assert!(parse_json(r#"{"a": 1} trailing"#).is_err());
        assert!(parse_json(r#""unterminated"#).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // A nesting bomb must come back as Err, never abort the process.
        for open in ["[", "{\"k\":"] {
            let bomb = open.repeat(100_000);
            let err = parse_json(&bomb).unwrap_err();
            assert!(err.contains("nesting depth"), "unexpected error: {err}");
        }
        // Exactly at the limit still parses.
        let depth = MAX_JSON_DEPTH;
        let ok = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&ok).is_ok());
        let too_deep = format!("{}1{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
        assert!(parse_json(&too_deep).is_err());
    }

    #[test]
    fn validates_a_well_formed_trace() {
        let json = r#"{"traceEvents": [
            {"name": "outer", "cat": "t", "ph": "X", "ts": 0, "dur": 100, "pid": 1, "tid": 0},
            {"name": "inner", "cat": "t", "ph": "X", "ts": 10, "dur": 20, "pid": 1, "tid": 0},
            {"name": "c", "ph": "C", "ts": 100, "pid": 1, "tid": 0, "args": {"value": 3}},
            {"name": "w", "cat": "warn", "ph": "I", "ts": 5, "pid": 1, "tid": 0, "s": "t",
             "args": {"message": "m"}}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.events, 4);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.counters, 1);
        assert_eq!(stats.instants, 1);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.max_depth, 2);
    }

    #[test]
    fn rejects_overlapping_spans_in_one_lane() {
        let json = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 25, "dur": 50, "pid": 1, "tid": 0}
        ]}"#;
        let err = validate_chrome_trace(json).unwrap_err();
        assert!(err.contains("overlaps"), "unexpected error: {err}");
    }

    #[test]
    fn accepts_overlap_across_lanes() {
        let json = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 50, "pid": 1, "tid": 0},
            {"name": "b", "ph": "X", "ts": 25, "dur": 50, "pid": 1, "tid": 1}
        ]}"#;
        let stats = validate_chrome_trace(json).unwrap();
        assert_eq!(stats.threads, 2);
        assert_eq!(stats.max_depth, 1);
    }

    #[test]
    fn rejects_negative_duration_and_bad_phase() {
        let neg = r#"{"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(neg).unwrap_err().contains("negative"));
        let phase = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0}
        ]}"#;
        assert!(validate_chrome_trace(phase)
            .unwrap_err()
            .contains("unsupported phase"));
    }

    #[test]
    fn schema_summary_ignores_timestamps() {
        let a = r#"{"traceEvents": [
            {"name": "s", "cat": "t", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 0}
        ]}"#;
        let b = r#"{"traceEvents": [
            {"name": "s", "cat": "t", "ph": "X", "ts": 900, "dur": 7, "pid": 1, "tid": 0}
        ]}"#;
        let sa = schema_summary(a).unwrap();
        assert_eq!(sa, schema_summary(b).unwrap());
        assert!(sa.contains("phase X keys=[cat,dur,name,ph,pid,tid,ts]"));
        assert!(sa.contains("phase X names=[s]"));
    }
}
