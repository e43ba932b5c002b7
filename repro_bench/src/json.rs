//! A minimal JSON reader — just enough for the parent process of `all` /
//! `aa` to read the result line its children print (no crates.io, so no
//! serde).

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, as `f64`.
    Num(f64),
    /// A string (escapes `\"`, `\\`, `\/`, `\n`, `\t`, `\r` decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
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
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.skip_ws();
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect("{")?;
        let mut members = BTreeMap::new();
        self.skip_ws();
        if self.eat("}") {
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(":")?;
            members.insert(key, self.value()?);
            self.skip_ws();
            if self.eat("}") {
                return Ok(Json::Obj(members));
            }
            self.expect(",")?;
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            self.expect(",")?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected a string at byte {}", self.pos));
        }
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        b'"' | b'\\' | b'/' => esc,
                        other => return Err(format!("unsupported escape \\{}", other as char)),
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

/// `s` with the characters JSON strings cannot hold verbatim escaped.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_result_line() {
        let v = parse(
            r#"{"correct": true, "attempted": 12, "failed": 0,
                "metrics": {"setup_s": {"value": 1.25e-1, "unit": "s"}}, "x": [1, null]}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let m = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.125));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn rejects_trailing_garbage_and_round_trips_escapes() {
        assert!(parse("{} x").is_err());
        let s = "a \"quoted\" \\ line\n";
        let v = parse(&format!("\"{}\"", escape(s))).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }
}
