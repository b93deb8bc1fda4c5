//! A small JSON value with a parser and a printer — the workspace vendors
//! no serde, and `results.json` has to be read back by `efbench compare`.

use std::fmt;

/// A JSON value. Objects keep their keys in file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The members of an object.
    pub fn members(&self) -> &[(String, Value)] {
        match self {
            Value::Obj(members) => members,
            _ => &[],
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_space();
        if p.at == p.bytes.len() {
            Ok(value)
        } else {
            Err(p.error("trailing characters"))
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.at)
    }

    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(literal.as_bytes());
        if hit {
            self.at += literal.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_space();
        match self.bytes.get(self.at) {
            None => Err(self.error("unexpected end")),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) => self.number(),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut members = Vec::new();
        self.skip_space();
        if self.eat("}") {
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_space();
            let key = self.string()?;
            self.skip_space();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            members.push((key, self.value()?));
            self.skip_space();
            if self.eat("}") {
                return Ok(Value::Obj(members));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.at += 1;
        let mut items = Vec::new();
        self.skip_space();
        if self.eat("]") {
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_space();
            if self.eat("]") {
                return Ok(Value::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8"));
                }
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'r') => b'\r',
                        Some(c @ (b'"' | b'\\' | b'/')) => *c,
                        _ => return Err(self.error("unsupported escape")),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(c) => {
                    out.push(*c);
                    self.at += 1;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.at;
        while self
            .bytes
            .get(self.at)
            .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
        {
            self.at += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.at])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::Num)
            .ok_or_else(|| self.error("expected a value"))
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\t' => write!(f, "\\t")?,
            '\r' => write!(f, "\\r")?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Pretty-prints with two-space indentation; an object or array whose
/// members are all scalars stays on one line.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn flat(v: &Value) -> bool {
            !matches!(v, Value::Arr(_) | Value::Obj(_))
        }
        fn go(v: &Value, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth + 1);
            let close = "  ".repeat(depth);
            match v {
                Value::Null => write!(f, "null"),
                Value::Bool(b) => write!(f, "{b}"),
                Value::Num(n) => write!(f, "{n}"),
                Value::Str(s) => write_str(f, s),
                Value::Arr(items) if items.iter().all(flat) => {
                    write!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        go(item, depth, f)?;
                    }
                    write!(f, "]")
                }
                Value::Arr(items) => {
                    writeln!(f, "[")?;
                    for (i, item) in items.iter().enumerate() {
                        write!(f, "{pad}")?;
                        go(item, depth + 1, f)?;
                        writeln!(f, "{}", if i + 1 < items.len() { "," } else { "" })?;
                    }
                    write!(f, "{close}]")
                }
                Value::Obj(members) if members.iter().all(|(_, v)| flat(v)) => {
                    write!(f, "{{")?;
                    for (i, (k, item)) in members.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write_str(f, k)?;
                        write!(f, ": ")?;
                        go(item, depth, f)?;
                    }
                    write!(f, "}}")
                }
                Value::Obj(members) => {
                    writeln!(f, "{{")?;
                    for (i, (k, item)) in members.iter().enumerate() {
                        write!(f, "{pad}")?;
                        write_str(f, k)?;
                        write!(f, ": ")?;
                        go(item, depth + 1, f)?;
                        writeln!(f, "{}", if i + 1 < members.len() { "," } else { "" })?;
                    }
                    write!(f, "{close}}}")
                }
            }
        }
        go(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\" \\ line\n".into())),
            ("ok".into(), Value::Bool(true)),
            ("none".into(), Value::Null),
            (
                "runs".into(),
                Value::Arr(vec![
                    Value::Obj(vec![("value".into(), Value::Num(1.2034e-3))]),
                    Value::Arr(vec![Value::Num(-7.0), Value::Num(0.1 + 0.2)]),
                ]),
            ),
            ("empty".into(), Value::Obj(Vec::new())),
        ]);
        assert_eq!(Value::parse(&doc.to_string()), Ok(doc));
    }

    #[test]
    fn numbers_keep_every_digit() {
        let v = Value::Num(0.1 + 0.2);
        assert_eq!(
            Value::parse(&v.to_string()).unwrap().as_f64(),
            Some(0.1 + 0.2)
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "\"open", "tru", "{} x"] {
            assert!(Value::parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
