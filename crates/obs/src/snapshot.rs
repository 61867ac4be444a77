//! Stable, serializable snapshots of a [`MetricsRecorder`](crate::MetricsRecorder).
//!
//! The JSON layout (schema version 1, documented in DESIGN.md §9):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters": { "<name>": <u64>, ... },
//!   "histograms": {
//!     "<name>": { "count": u64, "sum": u64, "min": u64, "max": u64,
//!                  "buckets": [[bit, count], ...] }, ...
//!   },
//!   "spans": { "<path>": { "count": u64, "total_ns": u64 }, ... }
//! }
//! ```
//!
//! Keys are emitted in sorted order (the maps are `BTreeMap`s), histogram
//! buckets list only non-empty `[bit-length, count]` pairs, and every number
//! is an unsigned integer — so equal snapshots always produce byte-identical
//! JSON, making the file diffable across runs (the perf-trajectory property
//! CI's bench-smoke artifact relies on).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the JSON layout this crate writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Point-in-time copy of one histogram.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Smallest observed value (0 when `count == 0`).
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty `(bit_length, count)` buckets, ascending by bit length;
    /// bucket `b` holds values of bit length `b` (0 → the value 0,
    /// 1 → 1, 2 → 2–3, …).
    pub buckets: Vec<(u32, u64)>,
}

/// Point-in-time copy of one span accumulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SpanSnapshot {
    /// Number of completed spans under this path.
    pub count: u64,
    /// Total wall-clock nanoseconds across them.
    pub total_ns: u64,
}

/// A complete, stable snapshot of a recorder's state.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span accumulators by path.
    pub spans: BTreeMap<String, SpanSnapshot>,
}

impl Snapshot {
    /// Counter value, 0 if the counter was never touched.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds recorded under span `path` (0 if absent).
    pub fn span_ns(&self, path: &str) -> u64 {
        self.spans.get(path).map_or(0, |s| s.total_ns)
    }

    /// Serialize to the schema-version-1 JSON document. Deterministic:
    /// equal snapshots yield byte-identical output.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");

        out.push_str("  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {value}", escape(name));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                escape(name),
                h.count,
                h.sum,
                h.min,
                h.max
            );
            for (j, (bit, count)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{bit}, {count}]");
            }
            out.push_str("]}");
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });

        out.push_str("  \"spans\": {");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"total_ns\": {}}}",
                escape(path),
                s.count,
                s.total_ns
            );
        }
        out.push_str(if self.spans.is_empty() {
            "}\n"
        } else {
            "\n  }\n"
        });

        out.push('}');
        out.push('\n');
        out
    }
}

impl Snapshot {
    /// Parse a schema-version-1 JSON document (as produced by
    /// [`Snapshot::to_json`]) back into a `Snapshot`. This is the reference
    /// decoder for the `--metrics` file format; round-tripping through
    /// `to_json`/`from_json` is lossless (tested in `tests/roundtrip.rs`).
    ///
    /// The parser accepts any whitespace layout, so hand-edited or
    /// re-serialized documents decode too, but it only understands the
    /// schema's shape: string keys, unsigned-integer values, and the three
    /// fixed top-level sections.
    pub fn from_json(text: &str) -> Result<Snapshot, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let snap = p.document()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing data after document"));
        }
        Ok(snap)
    }
}

/// Error from [`Snapshot::from_json`]: what went wrong and the byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset in the input where parsing stopped.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

/// Minimal recursive-descent parser for the snapshot schema. Kept private:
/// it is not a general JSON parser (no floats, booleans, or null — the
/// schema has none).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    /// Peek the next non-whitespace byte without consuming it.
    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Metric names never contain surrogate pairs;
                            // reject rather than mis-decode.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("surrogate \\u escape unsupported"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so slicing
                    // at char boundaries is safe via the chars iterator).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected unsigned integer"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| self.err("integer out of u64 range"))
    }

    /// Parse `{ "key": value, ... }` applying `field` to each entry.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, String) -> Result<(), ParseError>,
    ) -> Result<(), ParseError> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            field(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn document(&mut self) -> Result<Snapshot, ParseError> {
        let mut snap = Snapshot::default();
        let mut version = None;
        self.object(|p, key| match key.as_str() {
            "schema_version" => {
                version = Some(p.number()?);
                Ok(())
            }
            "counters" => p.object(|p, name| {
                let v = p.number()?;
                snap.counters.insert(name, v);
                Ok(())
            }),
            "histograms" => p.object(|p, name| {
                let h = p.histogram()?;
                snap.histograms.insert(name, h);
                Ok(())
            }),
            "spans" => p.object(|p, path| {
                let s = p.span()?;
                snap.spans.insert(path, s);
                Ok(())
            }),
            _ => Err(p.err("unknown top-level key")),
        })?;
        match version {
            Some(SCHEMA_VERSION) => Ok(snap),
            Some(_) => Err(self.err("unsupported schema_version")),
            None => Err(self.err("missing schema_version")),
        }
    }

    fn histogram(&mut self) -> Result<HistogramSnapshot, ParseError> {
        let mut h = HistogramSnapshot::default();
        self.object(|p, key| match key.as_str() {
            "count" => {
                h.count = p.number()?;
                Ok(())
            }
            "sum" => {
                h.sum = p.number()?;
                Ok(())
            }
            "min" => {
                h.min = p.number()?;
                Ok(())
            }
            "max" => {
                h.max = p.number()?;
                Ok(())
            }
            "buckets" => {
                p.expect(b'[')?;
                if p.peek() == Some(b']') {
                    p.pos += 1;
                    return Ok(());
                }
                loop {
                    p.expect(b'[')?;
                    let bit = p.number()?;
                    let bit = u32::try_from(bit).map_err(|_| p.err("bucket bit too large"))?;
                    p.expect(b',')?;
                    let count = p.number()?;
                    p.expect(b']')?;
                    h.buckets.push((bit, count));
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b']') => {
                            p.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(p.err("expected ',' or ']'")),
                    }
                }
            }
            _ => Err(p.err("unknown histogram key")),
        })?;
        Ok(h)
    }

    fn span(&mut self) -> Result<SpanSnapshot, ParseError> {
        let mut s = SpanSnapshot::default();
        self.object(|p, key| match key.as_str() {
            "count" => {
                s.count = p.number()?;
                Ok(())
            }
            "total_ns" => {
                s.total_ns = p.number()?;
                Ok(())
            }
            _ => Err(p.err("unknown span key")),
        })?;
        Ok(s)
    }
}

/// Escape `s` for embedding in a JSON string literal. Metric names are
/// static identifiers (`[a-z0-9._/ -]`), but escape defensively anyway;
/// `jem-bench` escapes its result labels with it too.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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

    fn sample() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("b.two".into(), 2);
        s.counters.insert("a.one".into(), 1);
        s.histograms.insert(
            "h".into(),
            HistogramSnapshot {
                count: 3,
                sum: 9,
                min: 1,
                max: 5,
                buckets: vec![(1, 1), (3, 2)],
            },
        );
        s.spans.insert(
            "map/segments".into(),
            SpanSnapshot {
                count: 4,
                total_ns: 123_456,
            },
        );
        s
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        // Sorted keys: "a.one" before "b.two".
        assert!(a.find("a.one").unwrap() < a.find("b.two").unwrap());
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let j = Snapshot::default().to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\"counters\": {}"));
        assert!(j.contains("\"histograms\": {}"));
        assert!(j.contains("\"spans\": {}"));
    }

    #[test]
    fn accessors() {
        let s = sample();
        assert_eq!(s.counter("a.one"), 1);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.span_ns("map/segments"), 123_456);
        assert_eq!(s.span_ns("missing"), 0);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain.name"), "plain.name");
        assert_eq!(escape("a\"b"), "a\\\"b");
        assert_eq!(escape("a\\b"), "a\\\\b");
        assert_eq!(escape("a\nb"), "a\\u000ab");
    }
}
