//! A minimal JSON codec: string escaping for the emitters, and a
//! recursive-descent parser for schema validation. No external crates.
//!
//! The parser keeps integers exact ([`JsonValue::UInt`]/[`JsonValue::Int`]
//! rather than lossy `f64`) so sentinel values like `u64::MAX` survive a
//! round trip.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    /// A negative integer without fraction or exponent.
    Int(i64),
    /// A non-negative integer without fraction or exponent.
    UInt(u64),
    /// Anything with a fraction or exponent, or an integer too large for
    /// the exact variants.
    Float(f64),
    Str(String),
    Array(Vec<JsonValue>),
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks a key up in an object (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(v) => Some(*v),
            JsonValue::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    pub fn is_number(&self) -> bool {
        matches!(
            self,
            JsonValue::Int(_) | JsonValue::UInt(_) | JsonValue::Float(_)
        )
    }
}

/// Renders `s` as a quoted JSON string with the mandatory escapes.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
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
    out
}

/// Renders a finite `f64` so it always reads back as a JSON number with a
/// decimal point (`2.0`, not `2`); non-finite values become `null`.
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Parses one complete JSON document; trailing non-whitespace is an
/// error. Errors report the byte offset they were detected at.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes().get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
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
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Our emitters only produce \u for control
                            // characters; reject lone surrogates.
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => {
                                    return Err(format!("invalid \\u escape at byte {}", self.pos))
                                }
                            }
                            continue;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte as one slice: all three are ASCII, so
                    // the run ends on a char boundary of the `&str`.
                    let start = self.pos;
                    while let Some(&b) = self.bytes().get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(format!("bad hex digit at byte {}", self.pos)),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let mut exact = true;
        if self.peek() == Some(b'.') {
            exact = false;
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek() {
            exact = false;
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek() {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if exact {
            if let Some(digits) = text.strip_prefix('-') {
                if !digits.is_empty() {
                    if let Ok(v) = text.parse::<i64>() {
                        return Ok(JsonValue::Int(v));
                    }
                }
            } else if !text.is_empty() {
                if let Ok(v) = text.parse::<u64>() {
                    return Ok(JsonValue::UInt(v));
                }
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{"a": [1, -2, 3.5], "b": {"c": true, "d": null}, "e": "x"}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            JsonValue::Int(-2)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn u64_max_survives_a_round_trip() {
        let doc = format!(r#"{{"budget": {}}}"#, u64::MAX);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("budget").unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a \"quoted\" \\ path\nwith\ttabs and \u{1} control";
        let quoted = quote(original);
        let v = parse(&quoted).unwrap();
        assert_eq!(v.as_str(), Some(original));
    }

    #[test]
    fn multibyte_scalars_next_to_escapes_round_trip() {
        // 2-, 3- and 4-byte UTF-8 scalars, each followed by an escape.
        let original = "é\n≤\"😀\\";
        let quoted = quote(original);
        assert_eq!(quoted, r#""é\n≤\"😀\\""#);
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(original));
        let in_object = format!("{{{}:[{}]}}", quote(original), quote(original));
        let v = parse(&in_object).unwrap();
        assert_eq!(
            v.get(original).unwrap().as_array().unwrap()[0].as_str(),
            Some(original)
        );
    }

    #[test]
    fn raw_control_characters_and_lone_surrogates_are_rejected() {
        assert_eq!(
            parse("\"ab\u{1}\"").unwrap_err(),
            "raw control character at byte 3"
        );
        // The offset counts bytes, not chars: `é` is two.
        assert_eq!(
            parse("\"é\u{1}\"").unwrap_err(),
            "raw control character at byte 3"
        );
        assert_eq!(
            parse(r#""\ud800""#).unwrap_err(),
            "invalid \\u escape at byte 7"
        );
        assert_eq!(parse("\"abc").unwrap_err(), "unterminated string");
    }

    #[test]
    fn a_one_mebibyte_string_round_trips() {
        let original: String = "ab\"c≤\n".chars().cycle().take(1 << 20).collect();
        let quoted = quote(&original);
        assert_eq!(parse(&quoted).unwrap().as_str(), Some(original.as_str()));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(parse("{} x").is_err());
        assert!(parse("").is_err());
        assert!(parse(r#"{"a": }"#).is_err());
    }

    #[test]
    fn format_f64_always_reads_back_as_float() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(parse(&format_f64(2.0)).unwrap(), JsonValue::Float(2.0));
        assert_eq!(format_f64(f64::NAN), "null");
    }
}
