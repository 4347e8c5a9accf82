//! A small dependency-free JSON writer for benchmark artifacts.
//!
//! The runnable examples emit machine-readable result files (`BENCH_router.json`,
//! `BENCH_trace.json`, ...) consumed as CI artifacts. Hand-rolling `write!` calls
//! per example drifts: commas, escaping, and number formatting end up subtly
//! different across files. This module centralises the emission so every artifact
//! shares one schema style — stable key order (insertion order), explicit float
//! precision, `null` for non-finite floats, and escaped strings.
//!
//! Build a [`JsonValue`] tree with the [`JsonObject`]/[`JsonArray`] builders and
//! [`render`](JsonValue::render) it pretty-printed (or
//! [`render_compact`](JsonValue::render_compact) for log lines). Pre-rendered
//! JSON (for example
//! [`ServiceSnapshot::to_json`](../../taxi_dispatch/struct.ServiceSnapshot.html))
//! embeds via [`JsonValue::Raw`].
//!
//! The matching reader side is [`parse`]: a strict recursive-descent parser into
//! [`Parsed`] used by the round-trip tests (everything the writer — or a `Raw`
//! embedder like `ServiceSnapshot::to_json` — emits must parse back and agree
//! numerically) and by tooling that wants to read artifacts without external
//! crates.
//!
//! # Example
//!
//! ```
//! use taxi_bench::json::{JsonArray, JsonObject};
//!
//! let artifact = JsonObject::new()
//!     .str("bench", "demo")
//!     .bool("smoke", true)
//!     .uint("workers", 4)
//!     .num("speedup", 3.70129, 3)
//!     .array(
//!         "arms",
//!         JsonArray::from_objects([JsonObject::new().uint("max_batch", 1)]),
//!     );
//! let text = artifact.into_value().render();
//! assert!(text.contains("\"speedup\": 3.701"));
//! ```

/// One JSON value (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float rendered with a fixed number of decimals (`null` when non-finite).
    Float {
        /// The value.
        value: f64,
        /// Decimal places to render.
        decimals: usize,
    },
    /// An escaped string.
    Str(String),
    /// Pre-rendered JSON embedded verbatim (the caller guarantees validity).
    Raw(String),
    /// An object with insertion-ordered keys.
    Object(JsonObject),
    /// An array.
    Array(JsonArray),
}

impl JsonValue {
    /// Renders pretty-printed with two-space indentation and a trailing newline —
    /// the artifact-file format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out.push('\n');
        out
    }

    /// Renders on one line (log-friendly).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::UInt(u) => out.push_str(&u.to_string()),
            JsonValue::Float { value, decimals } => {
                if value.is_finite() {
                    out.push_str(&format!("{value:.decimals$}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Raw(raw) => out.push_str(raw),
            JsonValue::Object(object) => {
                if object.fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (index, (key, value)) in object.fields.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    Self::newline(out, indent + 1, pretty);
                    write_escaped(out, key);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, indent + 1, pretty);
                }
                Self::newline(out, indent, pretty);
                out.push('}');
            }
            JsonValue::Array(array) => {
                if array.items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (index, item) in array.items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    Self::newline(out, indent + 1, pretty);
                    item.write(out, indent + 1, pretty);
                }
                Self::newline(out, indent, pretty);
                out.push(']');
            }
        }
    }

    fn newline(out: &mut String, indent: usize, pretty: bool) {
        if pretty {
            out.push('\n');
            for _ in 0..indent {
                out.push_str("  ");
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for a JSON object (insertion-ordered keys).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an arbitrary value.
    #[must_use]
    pub fn field(mut self, key: &str, value: JsonValue) -> Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(self, key: &str, value: &str) -> Self {
        self.field(key, JsonValue::Str(value.to_string()))
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(self, key: &str, value: bool) -> Self {
        self.field(key, JsonValue::Bool(value))
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn uint(self, key: &str, value: u64) -> Self {
        self.field(key, JsonValue::UInt(value))
    }

    /// Adds a signed integer field.
    #[must_use]
    pub fn int(self, key: &str, value: i64) -> Self {
        self.field(key, JsonValue::Int(value))
    }

    /// Adds a float field rendered with `decimals` decimal places.
    #[must_use]
    pub fn num(self, key: &str, value: f64, decimals: usize) -> Self {
        self.field(key, JsonValue::Float { value, decimals })
    }

    /// Adds a nested object.
    #[must_use]
    pub fn object(self, key: &str, value: JsonObject) -> Self {
        self.field(key, JsonValue::Object(value))
    }

    /// Adds a nested array.
    #[must_use]
    pub fn array(self, key: &str, value: JsonArray) -> Self {
        self.field(key, JsonValue::Array(value))
    }

    /// Embeds pre-rendered JSON verbatim (the caller guarantees validity).
    #[must_use]
    pub fn raw(self, key: &str, json: &str) -> Self {
        self.field(key, JsonValue::Raw(json.to_string()))
    }

    /// Finishes the builder into a value.
    pub fn into_value(self) -> JsonValue {
        JsonValue::Object(self)
    }

    /// Renders this object as a pretty-printed artifact file body.
    pub fn render(self) -> String {
        self.into_value().render()
    }
}

/// Builder for a JSON array.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JsonArray {
    items: Vec<JsonValue>,
}

impl JsonArray {
    /// An empty array.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an array of objects.
    pub fn from_objects(objects: impl IntoIterator<Item = JsonObject>) -> Self {
        Self {
            items: objects.into_iter().map(JsonValue::Object).collect(),
        }
    }

    /// Appends a value.
    #[must_use]
    pub fn push(mut self, value: JsonValue) -> Self {
        self.items.push(value);
        self
    }

    /// Appends an object.
    #[must_use]
    pub fn push_object(self, object: JsonObject) -> Self {
        self.push(JsonValue::Object(object))
    }
}

/// A parsed JSON value — the reader-side counterpart of [`JsonValue`].
///
/// Numbers are held as `f64` (exact for every integer the artifacts emit, up to
/// 2^53); objects preserve source key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Parsed {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// An unescaped string.
    Str(String),
    /// An array.
    Array(Vec<Parsed>),
    /// An object, keys in source order.
    Object(Vec<(String, Parsed)>),
}

impl Parsed {
    /// Looks up `key` in an object (`None` for other variants or missing keys).
    pub fn get(&self, key: &str) -> Option<&Parsed> {
        match self {
            Parsed::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Parsed::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an exact unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Parsed::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9e15 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Parsed::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The object's keys in source order, if this is an object.
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Parsed::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parses strict JSON text into a [`Parsed`] tree.
///
/// Trailing garbage, trailing commas, comments and unquoted keys are errors;
/// the message carries the byte offset of the problem.
pub fn parse(text: &str) -> Result<Parsed, String> {
    let mut cursor = Cursor {
        bytes: text.as_bytes(),
        at: 0,
    };
    cursor.skip_whitespace();
    let value = cursor.value()?;
    cursor.skip_whitespace();
    if cursor.at != cursor.bytes.len() {
        return Err(format!("trailing data at byte {}", cursor.at));
    }
    Ok(value)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Cursor<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, self.at))
        }
    }

    fn literal(&mut self, word: &str, value: Parsed) -> Result<Parsed, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Parsed, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Parsed::Str(self.string()?)),
            Some(b't') => self.literal("true", Parsed::Bool(true)),
            Some(b'f') => self.literal("false", Parsed::Bool(false)),
            Some(b'n') => self.literal("null", Parsed::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("expected a value at byte {}", self.at)),
        }
    }

    fn object(&mut self) -> Result<Parsed, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Parsed::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            fields.push((key, self.value()?));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Parsed::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.at)),
            }
        }
    }

    fn array(&mut self) -> Result<Parsed, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Parsed::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Parsed::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.at)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.at += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.at))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.at))?;
                            self.at += 4;
                            // Surrogate pairs are not emitted by the writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape {:?} at byte {}",
                                other as char, self.at
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe
                    // to do byte-wise on char boundaries).
                    let rest = &self.bytes[self.at..];
                    let text = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid UTF-8 at byte {}", self.at))?;
                    let c = text.chars().next().unwrap();
                    out.push(c);
                    self.at += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Parsed, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.at += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii digits");
        text.parse::<f64>()
            .map(Parsed::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_render_in_insertion_order_with_types() {
        let text = JsonObject::new()
            .str("name", "a\"b")
            .bool("ok", true)
            .uint("count", 7)
            .int("delta", -3)
            .num("ratio", 1.0 / 3.0, 4)
            .render();
        let expected = "{\n  \"name\": \"a\\\"b\",\n  \"ok\": true,\n  \"count\": 7,\n  \
                        \"delta\": -3,\n  \"ratio\": 0.3333\n}\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn nested_structures_indent_and_compact_renders_flat() {
        let value = JsonObject::new()
            .object("inner", JsonObject::new().uint("x", 1))
            .array(
                "items",
                JsonArray::new()
                    .push(JsonValue::UInt(1))
                    .push(JsonValue::UInt(2)),
            )
            .into_value();
        assert_eq!(
            value.render_compact(),
            "{\"inner\":{\"x\":1},\"items\":[1,2]}"
        );
        assert!(value.render().contains("\n    \"x\": 1\n"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let text = JsonObject::new()
            .num("nan", f64::NAN, 2)
            .num("inf", f64::INFINITY, 2)
            .render();
        assert!(text.contains("\"nan\": null"));
        assert!(text.contains("\"inf\": null"));
    }

    #[test]
    fn raw_values_embed_verbatim() {
        let text = JsonObject::new()
            .raw("snapshot", "{\"completed\":3}")
            .into_value()
            .render_compact();
        assert_eq!(text, "{\"snapshot\":{\"completed\":3}}");
    }

    #[test]
    fn parse_round_trips_what_the_writer_emits() {
        let text = JsonObject::new()
            .str("name", "a\"b\\c\nd")
            .bool("ok", true)
            .uint("count", 7)
            .int("delta", -3)
            .num("ratio", 0.25, 4)
            .num("nan", f64::NAN, 2)
            .object("inner", JsonObject::new().uint("x", 1))
            .array(
                "items",
                JsonArray::new()
                    .push(JsonValue::UInt(1))
                    .push(JsonValue::UInt(2)),
            )
            .render();
        let parsed = parse(&text).expect("writer output parses");
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(parsed.get("ok"), Some(&Parsed::Bool(true)));
        assert_eq!(parsed.get("count").unwrap().as_u64(), Some(7));
        assert_eq!(parsed.get("delta").unwrap().as_f64(), Some(-3.0));
        assert_eq!(parsed.get("ratio").unwrap().as_f64(), Some(0.25));
        assert_eq!(parsed.get("nan"), Some(&Parsed::Null));
        assert_eq!(
            parsed.get("inner").unwrap().get("x").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            parsed.get("items"),
            Some(&Parsed::Array(vec![
                Parsed::Number(1.0),
                Parsed::Number(2.0)
            ]))
        );
        assert_eq!(
            parsed.keys(),
            ["name", "ok", "count", "delta", "ratio", "nan", "inner", "items"]
        );
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "\"unterminated",
            "{\"a\":1} trailing",
            "{'a':1}",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_handles_scientific_notation_and_unicode_escapes() {
        let parsed = parse("{\"e\": 1.5e3, \"u\": \"\\u0041\\u00e9\"}").unwrap();
        assert_eq!(parsed.get("e").unwrap().as_f64(), Some(1500.0));
        assert_eq!(parsed.get("u").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn empty_containers_render_compactly() {
        let text = JsonObject::new()
            .object("o", JsonObject::new())
            .array("a", JsonArray::new())
            .into_value()
            .render_compact();
        assert_eq!(text, "{\"o\":{},\"a\":[]}");
    }
}
