//! A minimal JSON reader and writer (the workspace is dependency-free
//! by design).
//!
//! The trace exporters hand-roll their JSON output; [`parse`] is the
//! matching input side, so tests can parse what the exporters wrote and
//! compare structure instead of grepping substrings — schema drift then
//! fails CI as a field mismatch, not a fuzzy string miss. [`write`] is
//! the output side for everything built as a [`Value`]: `repro-tables`
//! builds every `BENCH_*.json` artifact that way and evaluates its gate
//! table over the same values.
//!
//! Numbers are kept as `f64` (every artifact value fits losslessly:
//! counters stay far below 2^53) and object keys keep their file order.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (None on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as u64 (rounded), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n.round() as u64)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// An object from `(key, value)` pairs, kept in the given order.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A number rounded to `places` decimals, to exactly the value a
    /// `{:.places}` format prints (reports state their precision this way
    /// instead of carrying float noise into a diffed artifact).
    pub fn fixed(x: f64, places: usize) -> Value {
        Value::Num(format!("{x:.places$}").parse().expect("formatted float"))
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.into())
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Arr(items.into_iter().collect())
    }
}

/// Prints a value as a JSON document (trailing newline included) that
/// [`parse`] reads back to an equal value. Integral numbers print without
/// a decimal point. A container of scalars stays on one line; a container
/// holding containers puts one member per line, so an artifact diffs row
/// by row. Non-finite numbers have no JSON spelling and print as `null`.
pub fn write(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

fn write_value(v: &Value, indent: usize, out: &mut String) {
    let scalar = |v: &Value| !matches!(v, Value::Arr(_) | Value::Obj(_));
    let (open, close, members): (_, _, Vec<(Option<&str>, &Value)>) = match v {
        Value::Arr(items) if !items.iter().all(scalar) => {
            ('[', ']', items.iter().map(|item| (None, item)).collect())
        }
        Value::Obj(members) if !members.iter().all(|(_, m)| scalar(m)) => {
            let keyed = members.iter().map(|(k, m)| (Some(k.as_str()), m));
            ('{', '}', keyed.collect())
        }
        leaf => return write_inline(leaf, out),
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&" ".repeat(indent + 2));
        if let Some(key) = key {
            write_string(key, out);
            out.push_str(": ");
        }
        write_value(member, indent + 2, out);
    }
    out.push('\n');
    out.push_str(&" ".repeat(indent));
    out.push(close);
}

fn write_inline(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if !n.is_finite() => out.push_str("null"),
        // Exactly representable integers print as integers.
        Value::Num(n) if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 => {
            out.push_str(&format!("{}", *n as i64))
        }
        Value::Num(n) => out.push_str(&format!("{n}")),
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                write_inline(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, item)) in members.iter().enumerate() {
                out.push_str(if i == 0 { "" } else { ", " });
                write_string(k, out);
                out.push_str(": ");
                write_inline(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

/// Reads one number, held to JSON's grammar
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`: `f64::from_str` alone
/// would also take `+1`, `.5`, `5.` and `01`.
fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
    let unsigned = text.strip_prefix('-').unwrap_or(text);
    let (mantissa, exp) = unsigned.split_once(['e', 'E']).unwrap_or((unsigned, "0"));
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, "0"));
    let exp = exp.strip_prefix(['+', '-']).unwrap_or(exp);
    let digits = |d: &str| !d.is_empty() && d.bytes().all(|c| c.is_ascii_digit());
    let valid = digits(int) && digits(frac) && digits(exp) && (int == "0" || !int.starts_with('0'));
    text.parse()
        .ok()
        .filter(|_| valid)
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        // Exactly four hex digits: `from_str_radix` alone
                        // would also take a sign.
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs don't appear in our artifacts;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through untouched.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len])
                    .map_err(|_| format!("bad utf8 at byte {}", *pos))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".into())
}

fn array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let k = string(b, pos)?;
        expect(b, pos, b':')?;
        let v = value(b, pos)?;
        out.push((k, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": 1, "b": [true, null, -2.5e1], "c": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let b = v.get("b").and_then(Value::items).unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_f64(), Some(-25.0));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
        // What `f64::from_str` and `u32::from_str_radix` take but JSON
        // does not.
        for text in ["+1", ".5", "5.", "01", r#""\u+041""#] {
            assert!(parse(text).is_err(), "{text} parsed");
        }
    }

    #[test]
    fn keys_keep_source_order() {
        let v = parse(r#"{"z": 0, "a": 1}"#).unwrap();
        let keys: Vec<_> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    /// A generated document: containers nest to `depth`, may be empty,
    /// strings carry every escape class, numbers cover integers up to
    /// 2^53, negatives and fractions.
    fn gen_value(rng: &mut TestRng, depth: u32) -> Value {
        let scalar = |rng: &mut TestRng| match rng.below(7) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(rng.below((1 << 53) + 1) as f64),
            3 => Value::Num(-(rng.below(1 << 53) as f64)),
            4 => Value::Num((rng.unit_f64() - 0.5) * 1e6),
            5 => Value::fixed(rng.unit_f64() * 100.0, rng.below(5) as usize),
            _ => Value::Str(gen_string(rng)),
        };
        if depth == 0 {
            return scalar(rng);
        }
        let len = rng.below(5) as usize;
        match rng.below(3) {
            0 => scalar(rng),
            1 => (0..len).map(|_| gen_value(rng, depth - 1)).collect(),
            _ => Value::obj((0..len).map(|_| (gen_string(rng), gen_value(rng, depth - 1)))),
        }
    }

    fn gen_string(rng: &mut TestRng) -> String {
        const ALPHABET: [char; 12] = [
            'a',
            'Z',
            ' ',
            '"',
            '\\',
            '/',
            '\n',
            '\t',
            '\r',
            '\u{1}',
            'é',
            '\u{1f600}',
        ];
        (0..rng.below(12))
            .map(|_| ALPHABET[rng.below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    proptest! {
        #[test]
        fn writer_round_trips(seed in any::<u64>()) {
            let v = gen_value(&mut TestRng::from_seed(seed), 4);
            let text = write(&v);
            prop_assert_eq!(parse(&text), Ok(v), "document was:\n{}", text);
        }
    }

    #[test]
    fn writer_prints_integers_bare_and_one_row_per_line() {
        let v = Value::obj([
            ("n", Value::from(9_007_199_254_740_992u64)),
            ("neg", Value::Num(-3.0)),
            ("half", Value::fixed(0.5004, 2)),
            ("empty", Value::Arr(vec![])),
            (
                "rows",
                (0..2usize)
                    .map(|i| Value::obj([("i", i.into()), ("s", "x".into())]))
                    .collect(),
            ),
        ]);
        let want = r#"{
  "n": 9007199254740992,
  "neg": -3,
  "half": 0.5,
  "empty": [],
  "rows": [
    {"i": 0, "s": "x"},
    {"i": 1, "s": "x"}
  ]
}
"#;
        assert_eq!(write(&v), want);
    }
}
