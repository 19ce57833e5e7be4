//! Parsed RDF terms and typed literal values.

use crate::date;
use crate::oid::{DECIMAL_ONE, DECIMAL_SCALE};
use crate::vocab;

/// A typed literal value. Lexical forms are normalized into these variants at
/// parse time so the rest of the system works with values, not strings.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// Plain or `xsd:string` literal, with optional language tag.
    Str {
        lexical: String,
        lang: Option<String>,
    },
    /// `xsd:integer` (and the narrower integer types).
    Int(i64),
    /// `xsd:decimal` / `xsd:double` at fixed scale 4: `unscaled * 10^-4`.
    Decimal(i64),
    /// `xsd:date` as days since 1970-01-01.
    Date(i64),
    /// `xsd:dateTime` as seconds since the epoch.
    DateTime(i64),
    /// `xsd:boolean`.
    Bool(bool),
}

impl Value {
    /// Build a plain string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str {
            lexical: s.into(),
            lang: None,
        }
    }

    /// Build a decimal from an f64 (rounded to scale 4).
    pub fn decimal_f64(v: f64) -> Value {
        Value::Decimal((v * DECIMAL_ONE as f64).round() as i64)
    }

    /// The canonical lexical form (used by the N-Triples writer).
    pub fn lexical(&self) -> String {
        let mut out = String::new();
        self.push_lexical(&mut out);
        out
    }

    /// Append the canonical lexical form to `out`, allocating nothing but
    /// `out`'s growth.
    pub fn push_lexical(&self, out: &mut String) {
        match self {
            Value::Str { lexical, .. } => out.push_str(lexical),
            Value::Int(v) => push_fmt(out, v),
            Value::Decimal(u) => push_decimal(out, *u),
            Value::Date(d) => date::push_date(out, *d),
            Value::DateTime(s) => date::push_datetime(out, *s),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }

    /// The datatype IRI for this value, `None` for plain strings.
    pub fn datatype(&self) -> Option<&'static str> {
        match self {
            Value::Str { .. } => None,
            Value::Int(_) => Some(vocab::XSD_INTEGER),
            Value::Decimal(_) => Some(vocab::XSD_DECIMAL),
            Value::Date(_) => Some(vocab::XSD_DATE),
            Value::DateTime(_) => Some(vocab::XSD_DATETIME),
            Value::Bool(_) => Some(vocab::XSD_BOOLEAN),
        }
    }
}

/// Append `v`'s `Display` form to `out`. Formatting into a `String` cannot
/// fail.
pub(crate) fn push_fmt(out: &mut String, v: impl std::fmt::Display) {
    use std::fmt::Write;
    let _ = write!(out, "{v}");
}

/// Render a scale-4 unscaled decimal without trailing zero noise
/// (`12_3400` → `"12.34"`, `50_000` → `"5"`).
pub fn format_decimal(unscaled: i64) -> String {
    let mut out = String::new();
    push_decimal(&mut out, unscaled);
    out
}

/// [`format_decimal`], appended to `out`.
pub fn push_decimal(out: &mut String, unscaled: i64) {
    if unscaled < 0 {
        out.push('-');
    }
    let abs = unscaled.unsigned_abs();
    push_fmt(out, abs / DECIMAL_ONE as u64);
    let mut frac = abs % DECIMAL_ONE as u64;
    if frac == 0 {
        return;
    }
    let mut digits = DECIMAL_SCALE as usize;
    while frac % 10 == 0 {
        frac /= 10;
        digits -= 1;
    }
    push_fmt(out, format_args!(".{frac:0digits$}"));
}

/// Parse a decimal lexical form into a scale-4 unscaled value.
/// Extra fractional digits are truncated.
pub fn parse_decimal(s: &str) -> Option<i64> {
    let (sign, body) = match s.strip_prefix('-') {
        Some(rest) => (-1i64, rest),
        None => (1i64, s.strip_prefix('+').unwrap_or(s)),
    };
    let (int_part, frac_part) = match body.split_once('.') {
        Some((i, f)) => (i, f),
        None => (body, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return None;
    }
    let int: i64 = if int_part.is_empty() {
        0
    } else {
        int_part.parse().ok()?
    };
    let mut frac: i64 = 0;
    for (i, c) in frac_part.bytes().enumerate() {
        if i >= DECIMAL_SCALE as usize {
            break;
        }
        if !c.is_ascii_digit() {
            return None;
        }
        frac = frac * 10 + (c - b'0') as i64;
    }
    let missing =
        (DECIMAL_SCALE as usize).saturating_sub(frac_part.len().min(DECIMAL_SCALE as usize));
    frac *= 10i64.pow(missing as u32);
    Some(sign * (int.checked_mul(DECIMAL_ONE)? + frac))
}

/// A literal: a [`Value`] (the datatype is implied by the variant).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Literal {
    pub value: Value,
}

impl Literal {
    pub fn new(value: Value) -> Literal {
        Literal { value }
    }
}

/// A parsed RDF term.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// An IRI reference.
    Iri(String),
    /// A blank node label (without the `_:` prefix).
    Blank(String),
    /// A literal.
    Literal(Literal),
}

impl Term {
    /// The skolem IRI a blank-node label is interned under (blank subjects
    /// must participate in subject clustering like any other IRI). The one
    /// definition shared by the encode path (`TripleSet`) and the lookup
    /// path (delete/term resolution) — they must never disagree.
    pub fn skolem_blank_iri(label: &str) -> String {
        format!("urn:sordf:blank:{label}")
    }

    pub fn iri(s: impl Into<String>) -> Term {
        Term::Iri(s.into())
    }

    pub fn blank(s: impl Into<String>) -> Term {
        Term::Blank(s.into())
    }

    pub fn literal(v: Value) -> Term {
        Term::Literal(Literal::new(v))
    }

    pub fn str(s: impl Into<String>) -> Term {
        Term::literal(Value::str(s))
    }

    pub fn int(v: i64) -> Term {
        Term::literal(Value::Int(v))
    }

    pub fn date(s: &str) -> Term {
        Term::literal(Value::Date(
            date::parse_date(s).expect("valid date literal"),
        ))
    }

    pub fn decimal_f64(v: f64) -> Term {
        Term::literal(Value::decimal_f64(v))
    }

    /// The IRI string if this term is an IRI.
    pub fn as_iri(&self) -> Option<&str> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The *local name* of an IRI: the part after the last `#`, `/` or `:`.
    /// Used for human-readable schema naming.
    pub fn local_name(iri: &str) -> &str {
        let cut = iri.rfind(['#', '/', ':']).map(|i| i + 1).unwrap_or(0);
        &iri[cut..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimal_parse_format_roundtrip() {
        for s in [
            "0",
            "1",
            "-1",
            "12.34",
            "-12.34",
            "0.0001",
            "5",
            "1234567.8901",
        ] {
            let u = parse_decimal(s).unwrap();
            assert_eq!(format_decimal(u), s, "roundtrip {s}");
        }
    }

    #[test]
    fn decimal_truncates_extra_digits() {
        assert_eq!(parse_decimal("1.23456789"), Some(12_345));
        assert_eq!(parse_decimal(".5"), Some(5_000));
        assert_eq!(parse_decimal("+2.5"), Some(25_000));
        assert_eq!(parse_decimal("-0.01"), Some(-100));
        assert_eq!(parse_decimal(""), None);
        assert_eq!(parse_decimal("1.2x"), None);
    }

    #[test]
    fn local_name_extraction() {
        assert_eq!(
            Term::local_name("http://ex.org/schema#hasAuthor"),
            "hasAuthor"
        );
        assert_eq!(Term::local_name("http://ex.org/schema/title"), "title");
        assert_eq!(Term::local_name("urn:isbn"), "isbn");
        assert_eq!(Term::local_name("plain"), "plain");
    }

    #[test]
    fn value_lexical_forms() {
        assert_eq!(Value::Int(-5).lexical(), "-5");
        assert_eq!(Value::decimal_f64(2.75).lexical(), "2.75");
        assert_eq!(Value::Bool(true).lexical(), "true");
        assert_eq!(
            Value::Date(date::parse_date("1996-07-04").unwrap()).lexical(),
            "1996-07-04"
        );
    }
}
