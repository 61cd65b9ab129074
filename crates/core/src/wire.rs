//! The wire format of the front door: dependency-free JSON.
//!
//! PR 5 shaped [`AnnotateRequest`]/[`AnnotateResponse`] for the wire;
//! this module is the wire. It hand-rolls a small JSON model ([`Json`]),
//! parser and writer — no serde, the workspace vendors no registry crates
//! — and maps the front-door types onto it, so an HTTP body *is* the PR-5
//! request/response schema rather than a parallel ad-hoc one.
//!
//! ## Schema
//!
//! ```json
//! // AnnotateRequest
//! {"tables": [{"id": 1, "context": "…", "headers": ["Title", null],
//!              "rows": [["…", "…"]]}],
//!  "workers": 2, "unique_columns": [0], "timeout_ms": 500}
//!
//! // AnnotateResponse
//! {"annotations": [{"cells": [{"row": 0, "col": 0, "entity": 5,
//!                              "confidence": 1.25}],
//!                   "columns": [{"col": 0, "type": 4}],
//!                   "relations": [{"left": 0, "right": 1, "relation": 0}],
//!                   "bp_iterations": 3, "converged": true}],
//!  "timings": [{"candidates_us": 310, "potentials_us": 12,
//!               "inference_us": 4, "total_us": 330}],
//!  "stats": {"tables": 1, "cache_hits": 0, "cache_misses": 6,
//!            "timings": {"candidates_us": 310, "potentials_us": 12,
//!                        "inference_us": 4, "total_us": 330}}}
//! ```
//!
//! Decoders ignore keys they do not know, so a body that still carries a
//! retired field is answered as if it did not.
//! `null` ids encode the paper's explicit `na` decision. Map-shaped
//! annotation fields are emitted in sorted key order, so equal values
//! produce byte-equal encodings — the server's round-trip tests compare
//! encoded bodies directly.
//!
//! ## Numbers
//!
//! Numbers are carried as `f64`. Integers are exact up to 2⁵³ (every id
//! is `u32`, timings are microseconds — centuries away from the bound);
//! floats round-trip bit-identically because the writer emits Rust's
//! shortest round-trip `Display` form and the reader is `str::parse`.
//! Non-finite floats have no JSON form and encode as `null`.

use webtable_catalog::{EntityId, RelationId, TypeId};
use webtable_tables::{Table, TableId};

use crate::result::{AnnotateStats, PhaseTimings, TableAnnotation};
use crate::session::{AnnotateRequest, AnnotateResponse};

/// Maximum nesting depth the parser accepts; a server-facing bound so a
/// hostile body cannot overflow the parse stack.
const MAX_DEPTH: usize = 96;

/// A JSON document. Objects preserve insertion order (`Vec` of pairs), so
/// encodings are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (see the module docs for integer range).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A wire-format error: malformed JSON or a schema mismatch. `offset` is
/// a byte position for parse errors, 0 for schema errors.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// What went wrong.
    pub msg: String,
    /// Byte offset of parse errors (0 for schema-level errors).
    pub offset: usize,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.offset > 0 {
            write!(f, "{} (at byte {})", self.msg, self.offset)
        } else {
            write!(f, "{}", self.msg)
        }
    }
}

impl std::error::Error for WireError {}

fn schema_err(msg: impl Into<String>) -> WireError {
    WireError { msg: msg.into(), offset: 0 }
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: impl Into<String>) -> WireError {
        WireError { msg: msg.into(), offset: self.pos.max(1) }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Json::Null)
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Json::Bool(true))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Json::Bool(false))
                } else {
                    Err(self.err("bad literal"))
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(self.err("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    pairs.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(self.err("expected ',' or '}'")),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => Err(self.err(format!("unexpected byte 0x{b:02x}"))),
        }
    }

    fn number(&mut self) -> Result<Json, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected exponent digits"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("non-utf8 number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("number out of range"))
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else { return Err(self.err("unterminated string")) };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else { return Err(self.err("bad escape")) };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // A surrogate pair: require the low half.
                                if !self.eat_literal("\\u") {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err(self.err("unpaired surrogate"));
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("bad unicode escape"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ if b < 0x20 => return Err(self.err("raw control byte in string")),
                _ => {
                    // Copy the longest run of plain bytes in one shot,
                    // validating UTF-8 once per run (pos is already past
                    // the first byte). Quote, backslash, and control
                    // bytes can never appear inside a multi-byte
                    // sequence, so stopping on them is safe.
                    let run_start = self.pos - 1;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[run_start..self.pos])
                        .map_err(|_| self.err("non-utf8 string"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad unicode escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos = end;
        Ok(v)
    }
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(v)
    }

    /// Serializes this document to a compact string.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// A `u64` as a JSON number (exact up to 2⁵³, debug-asserted).
    pub fn u64(v: u64) -> Json {
        debug_assert!(v <= (1u64 << 53), "integer exceeds exact f64 range");
        Json::Num(v as f64)
    }

    /// A `usize` as a JSON number.
    pub fn usize(v: usize) -> Json {
        Json::u64(v as u64)
    }

    /// A string value.
    pub fn str(v: impl Into<String>) -> Json {
        Json::Str(v.into())
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= (1u64 << 53) as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// [`as_u64`](Json::as_u64) narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v.fract() == 0.0 && v.abs() <= (1u64 << 53) as f64 {
        // Integral values print without the trailing ".0" Display would
        // omit anyway, but going through i64 avoids "-0".
        let i = v as i64;
        out.push_str(itoa(i).as_str());
    } else {
        // Rust's shortest round-trip form; `str::parse` restores the bits.
        out.push_str(&format!("{v}"));
    }
}

fn itoa(v: i64) -> String {
    format!("{v}")
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Schema helpers
// ---------------------------------------------------------------------

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, WireError> {
    obj.get(key).ok_or_else(|| schema_err(format!("missing field `{key}`")))
}

fn usize_field(obj: &Json, key: &str) -> Result<usize, WireError> {
    field(obj, key)?
        .as_usize()
        .ok_or_else(|| schema_err(format!("field `{key}` must be a non-negative integer")))
}

fn u64_field(obj: &Json, key: &str) -> Result<u64, WireError> {
    field(obj, key)?
        .as_u64()
        .ok_or_else(|| schema_err(format!("field `{key}` must be a non-negative integer")))
}

fn f64_field(obj: &Json, key: &str) -> Result<f64, WireError> {
    field(obj, key)?.as_f64().ok_or_else(|| schema_err(format!("field `{key}` must be a number")))
}

fn arr_field<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], WireError> {
    field(obj, key)?.as_arr().ok_or_else(|| schema_err(format!("field `{key}` must be an array")))
}

/// `null` → `None`, integer → `Some(id)`.
fn opt_id(j: &Json, key: &str) -> Result<Option<u32>, WireError> {
    if j.is_null() {
        return Ok(None);
    }
    j.as_u64()
        .filter(|v| *v <= u32::MAX as u64)
        .map(|v| Some(v as u32))
        .ok_or_else(|| schema_err(format!("field `{key}` must be null or a u32 id")))
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Encodes a [`Table`].
pub fn table_to_json(t: &Table) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::u64(t.id.0)),
        ("context".into(), Json::str(&t.context)),
        (
            "headers".into(),
            Json::Arr(
                t.headers.iter().map(|h| h.as_ref().map(Json::str).unwrap_or(Json::Null)).collect(),
            ),
        ),
        (
            "rows".into(),
            Json::Arr(
                t.rows.iter().map(|r| Json::Arr(r.iter().map(Json::str).collect())).collect(),
            ),
        ),
    ])
}

/// Decodes a [`Table`], validating the grid is regular (every row as wide
/// as the header list) — a wire-level check, not a panic.
pub fn table_from_json(j: &Json) -> Result<Table, WireError> {
    let id = TableId(u64_field(j, "id")?);
    let context =
        field(j, "context")?.as_str().ok_or_else(|| schema_err("`context` must be a string"))?;
    let mut headers = Vec::new();
    for h in arr_field(j, "headers")? {
        headers.push(match h {
            Json::Null => None,
            Json::Str(s) => Some(s.clone()),
            _ => return Err(schema_err("`headers` entries must be strings or null")),
        });
    }
    let mut rows = Vec::new();
    for (i, row) in arr_field(j, "rows")?.iter().enumerate() {
        let cells = row.as_arr().ok_or_else(|| schema_err("`rows` entries must be arrays"))?;
        if cells.len() != headers.len() {
            return Err(schema_err(format!(
                "ragged table: row {i} has {} cells but {} headers",
                cells.len(),
                headers.len()
            )));
        }
        let mut out = Vec::with_capacity(cells.len());
        for c in cells {
            out.push(c.as_str().ok_or_else(|| schema_err("cells must be strings"))?.to_string());
        }
        rows.push(out);
    }
    Ok(Table::new(id, context, headers, rows))
}

// ---------------------------------------------------------------------
// Annotate request
// ---------------------------------------------------------------------

/// The owned, wire-borne form of an [`AnnotateRequest`]: what an HTTP body
/// carries. [`as_request`](WireAnnotateRequest::as_request) borrows it
/// back into the in-process builder type; the deadline stays out of the
/// body's hands — `timeout_ms` is a *budget* the serving layer converts
/// to an absolute deadline at ingress.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnnotateRequest {
    /// The tables to annotate.
    pub tables: Vec<Table>,
    /// Worker threads (0 and 1 both mean sequential).
    pub workers: usize,
    /// Columns under a uniqueness constraint, if any.
    pub unique_columns: Option<Vec<usize>>,
    /// Wall-clock budget in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl WireAnnotateRequest {
    /// A request over owned tables with the front door's defaults.
    pub fn new(tables: Vec<Table>) -> WireAnnotateRequest {
        WireAnnotateRequest { tables, workers: 1, unique_columns: None, timeout_ms: None }
    }

    /// Borrows this into the in-process [`AnnotateRequest`]. The deadline
    /// is *not* applied here (a body cannot know ingress time); callers
    /// holding `timeout_ms` add `.deadline(ingress + budget)` themselves.
    pub fn as_request(&self) -> AnnotateRequest<'_> {
        let mut req = AnnotateRequest::new(&self.tables).workers(self.workers.max(1));
        if let Some(cols) = &self.unique_columns {
            req = req.unique_columns(cols);
        }
        req
    }

    /// Encodes to a [`Json`] document.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![(
            "tables".to_string(),
            Json::Arr(self.tables.iter().map(table_to_json).collect()),
        )];
        pairs.push(("workers".into(), Json::usize(self.workers)));
        if let Some(cols) = &self.unique_columns {
            pairs.push((
                "unique_columns".into(),
                Json::Arr(cols.iter().map(|&c| Json::usize(c)).collect()),
            ));
        }
        if let Some(ms) = self.timeout_ms {
            pairs.push(("timeout_ms".into(), Json::u64(ms)));
        }
        Json::Obj(pairs)
    }

    /// Decodes from a [`Json`] document.
    pub fn from_json(j: &Json) -> Result<WireAnnotateRequest, WireError> {
        let mut tables = Vec::new();
        for t in arr_field(j, "tables")? {
            tables.push(table_from_json(t)?);
        }
        let workers = match j.get("workers") {
            None => 1,
            Some(v) => v
                .as_usize()
                .filter(|&w| w <= 1024)
                .ok_or_else(|| schema_err("`workers` must be an integer in 0..=1024"))?,
        };
        let unique_columns = match j.get("unique_columns") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let items =
                    v.as_arr().ok_or_else(|| schema_err("`unique_columns` must be an array"))?;
                let mut cols = Vec::with_capacity(items.len());
                for c in items {
                    cols.push(c.as_usize().ok_or_else(|| {
                        schema_err("`unique_columns` entries must be column indices")
                    })?);
                }
                Some(cols)
            }
        };
        let timeout_ms = match j.get("timeout_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .ok_or_else(|| schema_err("`timeout_ms` must be a non-negative integer"))?,
            ),
        };
        Ok(WireAnnotateRequest { tables, workers, unique_columns, timeout_ms })
    }

    /// Parses from JSON text.
    pub fn decode(text: &str) -> Result<WireAnnotateRequest, WireError> {
        WireAnnotateRequest::from_json(&Json::parse(text)?)
    }

    /// Serializes to JSON text.
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }
}

// ---------------------------------------------------------------------
// Annotate response
// ---------------------------------------------------------------------

/// Encodes one [`TableAnnotation`]; map-shaped fields are sorted by key so
/// equal annotations encode byte-equal.
pub fn annotation_to_json(a: &TableAnnotation) -> Json {
    let mut cell_keys: Vec<(usize, usize)> = a.cell_entities.keys().copied().collect();
    cell_keys.sort_unstable();
    let cells = cell_keys
        .iter()
        .map(|k| {
            let entity = a.cell_entities[k].map(|e| Json::u64(e.0 as u64)).unwrap_or(Json::Null);
            let conf = a.cell_confidence.get(k).copied().unwrap_or(0.0);
            Json::Obj(vec![
                ("row".into(), Json::usize(k.0)),
                ("col".into(), Json::usize(k.1)),
                ("entity".into(), entity),
                ("confidence".into(), Json::Num(conf)),
            ])
        })
        .collect();
    let mut col_keys: Vec<usize> = a.column_types.keys().copied().collect();
    col_keys.sort_unstable();
    let columns = col_keys
        .iter()
        .map(|c| {
            let ty = a.column_types[c].map(|t| Json::u64(t.0 as u64)).unwrap_or(Json::Null);
            Json::Obj(vec![("col".into(), Json::usize(*c)), ("type".into(), ty)])
        })
        .collect();
    let mut rel_keys: Vec<(usize, usize)> = a.relations.keys().copied().collect();
    rel_keys.sort_unstable();
    let relations = rel_keys
        .iter()
        .map(|k| {
            let rel = a.relations[k].map(|r| Json::u64(r.0 as u64)).unwrap_or(Json::Null);
            Json::Obj(vec![
                ("left".into(), Json::usize(k.0)),
                ("right".into(), Json::usize(k.1)),
                ("relation".into(), rel),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("cells".into(), Json::Arr(cells)),
        ("columns".into(), Json::Arr(columns)),
        ("relations".into(), Json::Arr(relations)),
        ("bp_iterations".into(), Json::usize(a.bp_iterations)),
        ("converged".into(), Json::Bool(a.converged)),
    ])
}

/// Decodes one [`TableAnnotation`].
pub fn annotation_from_json(j: &Json) -> Result<TableAnnotation, WireError> {
    let mut a = TableAnnotation::default();
    for cell in arr_field(j, "cells")? {
        let key = (usize_field(cell, "row")?, usize_field(cell, "col")?);
        let entity = opt_id(field(cell, "entity")?, "entity")?.map(EntityId);
        a.cell_entities.insert(key, entity);
        a.cell_confidence.insert(key, f64_field(cell, "confidence")?);
    }
    for col in arr_field(j, "columns")? {
        let c = usize_field(col, "col")?;
        a.column_types.insert(c, opt_id(field(col, "type")?, "type")?.map(TypeId));
    }
    for rel in arr_field(j, "relations")? {
        let key = (usize_field(rel, "left")?, usize_field(rel, "right")?);
        a.relations.insert(key, opt_id(field(rel, "relation")?, "relation")?.map(RelationId));
    }
    a.bp_iterations = usize_field(j, "bp_iterations")?;
    a.converged =
        field(j, "converged")?.as_bool().ok_or_else(|| schema_err("`converged` must be a bool"))?;
    Ok(a)
}

fn timings_to_json(t: &PhaseTimings) -> Json {
    Json::Obj(vec![
        ("candidates_us".into(), Json::u64(t.candidates_us)),
        ("potentials_us".into(), Json::u64(t.potentials_us)),
        ("inference_us".into(), Json::u64(t.inference_us)),
        ("total_us".into(), Json::u64(t.total_us)),
    ])
}

fn timings_from_json(j: &Json) -> Result<PhaseTimings, WireError> {
    Ok(PhaseTimings {
        candidates_us: u64_field(j, "candidates_us")?,
        potentials_us: u64_field(j, "potentials_us")?,
        inference_us: u64_field(j, "inference_us")?,
        total_us: u64_field(j, "total_us")?,
    })
}

/// Encodes an [`AnnotateResponse`].
pub fn response_to_json(r: &AnnotateResponse) -> Json {
    Json::Obj(vec![
        ("annotations".into(), Json::Arr(r.annotations.iter().map(annotation_to_json).collect())),
        ("timings".into(), Json::Arr(r.timings.iter().map(timings_to_json).collect())),
        (
            "stats".into(),
            Json::Obj(vec![
                ("tables".into(), Json::usize(r.stats.tables)),
                ("cache_hits".into(), Json::u64(r.stats.cache_hits)),
                ("cache_misses".into(), Json::u64(r.stats.cache_misses)),
                ("timings".into(), timings_to_json(&r.stats.timings)),
            ]),
        ),
    ])
}

/// Decodes an [`AnnotateResponse`].
pub fn response_from_json(j: &Json) -> Result<AnnotateResponse, WireError> {
    let mut annotations = Vec::new();
    for a in arr_field(j, "annotations")? {
        annotations.push(annotation_from_json(a)?);
    }
    let mut timings = Vec::new();
    for t in arr_field(j, "timings")? {
        timings.push(timings_from_json(t)?);
    }
    if annotations.len() != timings.len() {
        return Err(schema_err("`annotations` and `timings` must be parallel"));
    }
    let stats = field(j, "stats")?;
    Ok(AnnotateResponse {
        annotations,
        timings,
        stats: AnnotateStats {
            tables: usize_field(stats, "tables")?,
            cache_hits: u64_field(stats, "cache_hits")?,
            cache_misses: u64_field(stats, "cache_misses")?,
            timings: timings_from_json(field(stats, "timings")?)?,
        },
    })
}

/// Encodes an [`AnnotateResponse`] to JSON text — the HTTP body the
/// server sends.
pub fn encode_response(r: &AnnotateResponse) -> String {
    response_to_json(r).encode()
}

/// Decodes an [`AnnotateResponse`] from JSON text.
pub fn decode_response(text: &str) -> Result<AnnotateResponse, WireError> {
    response_from_json(&Json::parse(text)?)
}

// Used by tests below; keeps the annotation maps aligned the way the
// pipeline emits them.
#[cfg(test)]
fn demo_annotation() -> TableAnnotation {
    let mut a = TableAnnotation::default();
    a.cell_entities.insert((0, 0), Some(EntityId(4)));
    a.cell_confidence.insert((0, 0), 1.25);
    a.cell_entities.insert((1, 0), None);
    a.cell_confidence.insert((1, 0), 0.0);
    a.column_types.insert(0, Some(TypeId(2)));
    a.column_types.insert(1, None);
    a.relations.insert((0, 1), Some(RelationId(0)));
    a.bp_iterations = 3;
    a.converged = true;
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_the_usual_suspects() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny\u00e9", "c": null, "d": true}"#)
            .unwrap();
        assert_eq!(j.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(j.get("b").unwrap().as_str(), Some("x\nyé"));
        assert!(j.get("c").unwrap().is_null());
        assert_eq!(j.get("d").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "nul",
            "{\"a\" 1}",
            "\"\\q\"",
            "01x",
            "[1] garbage",
            "\"\\ud800\"",
            "1.",
            "--2",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth bomb: bounded, not a stack overflow.
        let bomb = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn json_roundtrips_strings_and_numbers_exactly() {
        for v in [0.0f64, 1.0, -1.0, 0.1, 1.25, 1e-9, 123456789.125, 9007199254740992.0] {
            let text = Json::Num(v).encode();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {text} -> {back}");
        }
        for s in ["", "plain", "esc \" \\ \n \t \r", "unicode é 表 🙂", "\u{0001}"] {
            let text = Json::Str(s.to_string()).encode();
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(s), "{text}");
        }
        assert_eq!(Json::Num(f64::NAN).encode(), "null", "non-finite floats have no JSON form");
    }

    #[test]
    fn table_roundtrip_preserves_everything() {
        let t = Table::new(
            TableId(7),
            "books — \"quoted\" & tabbed\t",
            vec![Some("Title".into()), None],
            vec![
                vec!["Uncle Albert".into(), "Stannard".into()],
                vec!["Relativity".into(), "Einstein".into()],
            ],
        );
        let back = table_from_json(&table_to_json(&t)).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn ragged_tables_are_a_wire_error_not_a_panic() {
        let j = Json::parse(
            r#"{"id": 1, "context": "", "headers": ["a", "b"], "rows": [["only one"]]}"#,
        )
        .unwrap();
        let err = table_from_json(&j).unwrap_err();
        assert!(err.msg.contains("ragged"), "{err}");
    }

    #[test]
    fn request_roundtrip_with_every_knob() {
        let t = Table::new(TableId(1), "ctx", vec![None], vec![vec!["x".into()]]);
        let req = WireAnnotateRequest {
            tables: vec![t],
            workers: 4,
            unique_columns: Some(vec![0]),
            timeout_ms: Some(250),
        };
        let back = WireAnnotateRequest::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
        // Defaults materialize when fields are absent.
        let bare = WireAnnotateRequest::decode(r#"{"tables": []}"#).unwrap();
        assert_eq!(bare.workers, 1);
        assert!(bare.unique_columns.is_none() && bare.timeout_ms.is_none());
    }

    #[test]
    fn annotation_roundtrip_is_exact_and_encoding_is_deterministic() {
        let a = demo_annotation();
        let j = annotation_to_json(&a);
        let back = annotation_from_json(&j).unwrap();
        assert_eq!(a, back);
        assert_eq!(j.encode(), annotation_to_json(&back).encode());
    }

    #[test]
    fn response_roundtrip_is_exact() {
        let r = AnnotateResponse {
            annotations: vec![demo_annotation()],
            timings: vec![PhaseTimings {
                candidates_us: 310,
                potentials_us: 12,
                inference_us: 4,
                total_us: 330,
            }],
            stats: AnnotateStats {
                tables: 1,
                cache_hits: 2,
                cache_misses: 6,
                timings: PhaseTimings {
                    candidates_us: 310,
                    potentials_us: 12,
                    inference_us: 4,
                    total_us: 330,
                },
            },
        };
        let text = encode_response(&r);
        let back = decode_response(&text).unwrap();
        assert_eq!(r.annotations, back.annotations);
        assert_eq!(r.timings, back.timings);
        assert_eq!(r.stats, back.stats);
        assert_eq!(text, encode_response(&back), "re-encoding must be byte-identical");
    }
}
