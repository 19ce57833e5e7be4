//! Hand-rolled JSON serialization (strings, numbers, arrays, objects).
//!
//! The server emits a small, fixed family of documents — result sets,
//! status reports, error envelopes — so a writer-style builder is all that
//! is needed; no serde, no parsing.

use std::fmt::Write;

/// Append `s` as a JSON string literal (quotes included): `"`, the
/// backslash and the control characters below U+0020 are escaped, and the
/// runs between them are copied whole. A string with nothing to escape, the
/// usual case, is found so by one branch-free pass and copied at once.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
    let plain = s.bytes().fold(true, |plain, b| {
        plain & (b >= 0x20) & (b != b'"') & (b != b'\\')
    });
    if plain {
        out.push_str(s);
        out.push('"');
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // `b` is ASCII, so `i` is a character boundary.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            // Formatting into a `String` cannot fail.
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON object under construction.
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        push_str(&mut self.buf, k);
        self.buf.push(':');
    }

    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        push_str(&mut self.buf, v);
        self
    }

    pub fn num(mut self, k: &str, v: impl Num) -> Obj {
        self.key(k);
        v.write(&mut self.buf);
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert pre-serialized JSON (a nested object or array).
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn build(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Obj {
        Obj::new()
    }
}

/// Numbers that serialize losslessly into JSON.
pub trait Num {
    fn write(&self, out: &mut String);
}

macro_rules! int_num {
    ($($t:ty),*) => {$(
        impl Num for $t {
            fn write(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
int_num!(u16, u32, u64, usize, i64);

impl Num for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        let mut s = String::new();
        push_str(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn object_building() {
        let o = Obj::new()
            .str("a", "x")
            .num("b", 2u64)
            .bool("c", true)
            .num("d", 0.5f64)
            .raw("e", "[1]")
            .build();
        assert_eq!(o, r#"{"a":"x","b":2,"c":true,"d":0.5,"e":[1]}"#);
        assert_eq!(Obj::new().build(), "{}");
    }
}
