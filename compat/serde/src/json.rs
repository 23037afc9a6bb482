//! JSON text reader/writer for [`Value`].

use crate::{DeError, Deserialize, Serialize, Value};

impl Value {
    /// Renders the value as compact JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, None, 0);
        out
    }

    /// Renders the value as indented (2-space) JSON.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        write_json(self, &mut out, Some(2), 0);
        out.push('\n');
        out
    }

    /// Parses JSON text into a value.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] on malformed input.
    pub fn from_json(text: &str) -> Result<Value, DeError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.parse_value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(DeError::custom(format!("trailing input at byte {}", p.pos)));
        }
        Ok(v)
    }
}

/// Serializes `value` as indented (2-space) JSON: the form every report
/// and dump is written in.
#[must_use]
pub fn to_json<T: Serialize + ?Sized>(value: &T) -> String {
    value.to_value().to_json_pretty()
}

/// Parses JSON text into a `T`.
///
/// # Errors
///
/// Returns an error string for malformed JSON or a value of the wrong
/// shape.
pub fn from_json<T: Deserialize>(text: &str) -> Result<T, String> {
    let value = Value::from_json(text).map_err(|e| e.to_string())?;
    T::from_value(&value).map_err(|e| e.to_string())
}

fn write_json(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                let s = format!("{x}");
                out.push_str(&s);
                // Keep the token a JSON number that reads back as a float.
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(s, out),
        Value::Seq(items) => {
            write_delimited(out, indent, depth, '[', ']', items.len(), |out, i| {
                write_json(&items[i], out, indent, depth + 1);
            })
        }
        Value::Map(entries) => {
            write_delimited(out, indent, depth, '{', '}', entries.len(), |out, i| {
                write_json_string(&entries[i].0, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_json(&entries[i].1, out, indent, depth + 1);
            });
        }
    }
}

fn write_delimited(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * (depth + 1)));
        }
        item(out, i);
    }
    if len > 0 {
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
    }
    out.push(close);
}

fn write_json_string(s: &str, out: &mut String) {
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
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), DeError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(DeError::custom(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
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

    fn parse_value(&mut self) -> Result<Value, DeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => {
                            return Err(DeError::custom(format!(
                                "expected ',' or ']' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    entries.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => {
                            return Err(DeError::custom(format!(
                                "expected ',' or '}}' at byte {}",
                                self.pos
                            )))
                        }
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            _ => Err(DeError::custom(format!(
                "unexpected input at byte {}",
                self.pos
            ))),
        }
    }

    fn parse_string(&mut self) -> Result<String, DeError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| DeError::custom("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
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
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| DeError::custom("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(hex)
                                    .ok_or_else(|| DeError::custom("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(DeError::custom(format!(
                                "bad escape '\\{}'",
                                other as char
                            )))
                        }
                    }
                }
                Some(_) => {
                    // Consume the whole run up to the next quote or escape,
                    // validating it as UTF-8 once. (Per-character validation
                    // of the remaining input is O(n^2) over the document.)
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| b != b'"' && b != b'\\')
                    {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| DeError::custom("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
                None => return Err(DeError::custom("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, DeError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| DeError::custom("invalid number"))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| DeError::custom(format!("invalid number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips() {
        let v = Value::Map(vec![
            ("name".into(), Value::Str("p50 \"q\"".into())),
            ("count".into(), Value::U64(3)),
            ("delta".into(), Value::I64(-4)),
            ("ratio".into(), Value::F64(0.25)),
            (
                "items".into(),
                Value::Seq(vec![Value::Null, Value::Bool(true)]),
            ),
            ("empty".into(), Value::Seq(vec![])),
        ]);
        let text = v.to_json();
        assert_eq!(Value::from_json(&text), Ok(v.clone()));
        let pretty = v.to_json_pretty();
        assert_eq!(Value::from_json(&pretty), Ok(v));
    }

    #[test]
    fn floats_read_back_as_floats() {
        let text = Value::F64(2.0).to_json();
        assert_eq!(text, "2.0");
        assert_eq!(Value::from_json(&text), Ok(Value::F64(2.0)));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Value::from_json("{").is_err());
        assert!(Value::from_json("[1,]").is_err());
        assert!(Value::from_json("1 2").is_err());
        assert!(Value::from_json("\"unterminated").is_err());
    }
}
