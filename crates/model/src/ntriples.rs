//! Line-oriented N-Triples parser and writer.
//!
//! Supports the subset of N-Triples needed for real-world RDF dumps:
//! IRIs in angle brackets, `_:` blank nodes, plain / language-tagged /
//! datatyped literals with the usual string escapes, `#` comments and blank
//! lines. Typed literals whose datatype the model understands (`xsd:integer`,
//! `decimal`, `double`, `date`, `dateTime`, `boolean`) are normalized into
//! typed [`Value`]s; any other datatype degrades to a plain string, which is
//! what the paper's schema-typing step would classify it as anyway.

use crate::date;
use crate::error::ModelError;
use crate::term::{parse_decimal, Term, Value};
use crate::triple::TermTriple;
use crate::vocab;
use std::io::Write;

/// Parse a full N-Triples document, returning all triples.
pub fn parse_document(text: &str) -> Result<Vec<TermTriple>, ModelError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if let Some(t) = parse_line(line, lineno + 1)? {
            out.push(t);
        }
    }
    Ok(out)
}

/// Parse one line. Returns `None` for comments and blank lines.
pub fn parse_line(line: &str, lineno: usize) -> Result<Option<TermTriple>, ModelError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        line: lineno,
    };
    p.skip_ws();
    if p.at_end() || p.peek() == b'#' {
        return Ok(None);
    }
    let s = p.parse_subject()?;
    p.skip_ws();
    let pred = p.parse_predicate()?;
    p.skip_ws();
    let o = p.parse_object()?;
    p.skip_ws();
    p.expect(b'.')?;
    p.skip_ws();
    if !p.at_end() && p.peek() != b'#' {
        return Err(p.err("trailing garbage after '.'"));
    }
    Ok(Some(TermTriple::new(s, pred, o)))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ModelError {
        ModelError::Parse {
            line: self.line,
            msg: msg.to_string(),
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> u8 {
        self.bytes[self.pos]
    }

    fn bump(&mut self) -> u8 {
        let b = self.bytes[self.pos];
        self.pos += 1;
        b
    }

    fn skip_ws(&mut self) {
        while !self.at_end() && (self.peek() == b' ' || self.peek() == b'\t') {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ModelError> {
        if self.at_end() || self.peek() != b {
            return Err(self.err(&format!("expected '{}'", b as char)));
        }
        self.pos += 1;
        Ok(())
    }

    fn parse_iri(&mut self) -> Result<String, ModelError> {
        self.expect(b'<')?;
        let start = self.pos;
        while !self.at_end() && self.peek() != b'>' {
            self.pos += 1;
        }
        if self.at_end() {
            return Err(self.err("unterminated IRI"));
        }
        let iri = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in IRI"))?
            .to_string();
        self.pos += 1; // consume '>'
        Ok(iri)
    }

    fn parse_blank(&mut self) -> Result<String, ModelError> {
        // caller saw '_'
        self.expect(b'_')?;
        self.expect(b':')?;
        let start = self.pos;
        while !self.at_end()
            && (self.peek().is_ascii_alphanumeric() || self.peek() == b'_' || self.peek() == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("empty blank node label"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_subject(&mut self) -> Result<Term, ModelError> {
        if self.at_end() {
            return Err(self.err("missing subject"));
        }
        match self.peek() {
            b'<' => Ok(Term::Iri(self.parse_iri()?)),
            b'_' => Ok(Term::Blank(self.parse_blank()?)),
            _ => Err(self.err("subject must be IRI or blank node")),
        }
    }

    fn parse_predicate(&mut self) -> Result<Term, ModelError> {
        if self.at_end() || self.peek() != b'<' {
            return Err(self.err("predicate must be an IRI"));
        }
        Ok(Term::Iri(self.parse_iri()?))
    }

    fn parse_object(&mut self) -> Result<Term, ModelError> {
        if self.at_end() {
            return Err(self.err("missing object"));
        }
        match self.peek() {
            b'<' => Ok(Term::Iri(self.parse_iri()?)),
            b'_' => Ok(Term::Blank(self.parse_blank()?)),
            b'"' => self.parse_literal(),
            _ => Err(self.err("object must be IRI, blank node or literal")),
        }
    }

    fn parse_literal(&mut self) -> Result<Term, ModelError> {
        self.expect(b'"')?;
        let mut lexical = String::new();
        loop {
            if self.at_end() {
                return Err(self.err("unterminated string literal"));
            }
            match self.bump() {
                b'"' => break,
                b'\\' => {
                    if self.at_end() {
                        return Err(self.err("dangling escape"));
                    }
                    match self.bump() {
                        b't' => lexical.push('\t'),
                        b'n' => lexical.push('\n'),
                        b'r' => lexical.push('\r'),
                        b'"' => lexical.push('"'),
                        b'\\' => lexical.push('\\'),
                        b'u' => lexical.push(self.parse_unicode_escape(4)?),
                        b'U' => lexical.push(self.parse_unicode_escape(8)?),
                        c => return Err(self.err(&format!("unknown escape \\{}", c as char))),
                    }
                }
                c if c < 0x80 => lexical.push(c as char),
                c => {
                    // Re-assemble a multi-byte UTF-8 sequence.
                    let start = self.pos - 1;
                    let len = utf8_len(c);
                    if start + len > self.bytes.len() {
                        return Err(self.err("invalid UTF-8 in literal"));
                    }
                    let s = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| self.err("invalid UTF-8 in literal"))?;
                    lexical.push_str(s);
                    self.pos = start + len;
                }
            }
        }
        // Optional language tag or datatype.
        if !self.at_end() && self.peek() == b'@' {
            self.pos += 1;
            let start = self.pos;
            while !self.at_end() && (self.peek().is_ascii_alphanumeric() || self.peek() == b'-') {
                self.pos += 1;
            }
            let lang = String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned();
            return Ok(Term::Literal(crate::term::Literal::new(Value::Str {
                lexical,
                lang: Some(lang),
            })));
        }
        if self.pos + 1 < self.bytes.len()
            && self.peek() == b'^'
            && self.bytes[self.pos + 1] == b'^'
        {
            self.pos += 2;
            let dt = self.parse_iri()?;
            return Ok(Term::Literal(crate::term::Literal::new(typed_value(
                lexical, &dt, self.line,
            )?)));
        }
        Ok(Term::str(lexical))
    }

    fn parse_unicode_escape(&mut self, digits: usize) -> Result<char, ModelError> {
        if self.pos + digits > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + digits])
            .map_err(|_| self.err("bad unicode escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad unicode escape"))?;
        self.pos += digits;
        char::from_u32(cp).ok_or_else(|| self.err("invalid unicode code point"))
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Map a (lexical, datatype IRI) pair to a typed [`Value`].
fn typed_value(lexical: String, datatype: &str, line: usize) -> Result<Value, ModelError> {
    let parse_err = |msg: &str| ModelError::Parse {
        line,
        msg: format!("{msg}: {lexical:?}"),
    };
    Ok(match datatype {
        vocab::XSD_INTEGER
        | "http://www.w3.org/2001/XMLSchema#int"
        | "http://www.w3.org/2001/XMLSchema#long"
        | "http://www.w3.org/2001/XMLSchema#short" => {
            Value::Int(lexical.parse().map_err(|_| parse_err("bad integer"))?)
        }
        vocab::XSD_DECIMAL | vocab::XSD_DOUBLE | "http://www.w3.org/2001/XMLSchema#float" => {
            Value::Decimal(parse_decimal(&lexical).ok_or_else(|| parse_err("bad decimal"))?)
        }
        vocab::XSD_DATE => Value::Date(date::parse_date(&lexical)?),
        vocab::XSD_DATETIME => Value::DateTime(date::parse_datetime(&lexical)?),
        vocab::XSD_BOOLEAN => match lexical.as_str() {
            "true" | "1" => Value::Bool(true),
            "false" | "0" => Value::Bool(false),
            _ => return Err(parse_err("bad boolean")),
        },
        // Unknown datatypes (including xsd:string) degrade to plain strings.
        _ => Value::Str {
            lexical,
            lang: None,
        },
    })
}

/// Serialize one term in N-Triples syntax.
pub fn write_term(out: &mut String, term: &Term) {
    match term {
        Term::Iri(iri) => {
            out.push('<');
            out.push_str(iri);
            out.push('>');
        }
        Term::Blank(label) => {
            out.push_str("_:");
            out.push_str(label);
        }
        Term::Literal(lit) => {
            out.push('"');
            for c in lit.value.lexical().chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out.push('"');
            if let Value::Str {
                lang: Some(lang), ..
            } = &lit.value
            {
                out.push('@');
                out.push_str(lang);
            } else if let Some(dt) = lit.value.datatype() {
                out.push_str("^^<");
                out.push_str(dt);
                out.push('>');
            }
        }
    }
}

/// Serialize triples as an N-Triples document.
pub fn write_document<W: Write>(mut w: W, triples: &[TermTriple]) -> std::io::Result<()> {
    let mut line = String::new();
    for t in triples {
        line.clear();
        write_term(&mut line, &t.s);
        line.push(' ');
        write_term(&mut line, &t.p);
        line.push(' ');
        write_term(&mut line, &t.o);
        line.push_str(" .\n");
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_basic_triples() {
        let doc = r#"
# a comment
<http://ex.org/book1> <http://ex.org/has_author> <http://ex.org/author1> .
<http://ex.org/book1> <http://ex.org/in_year> "1996"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex.org/book1> <http://ex.org/isbn_no> "1-56619-909-3" .
_:b0 <http://ex.org/label> "blank"@en .
"#;
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples.len(), 4);
        assert_eq!(triples[0].s, Term::iri("http://ex.org/book1"));
        assert_eq!(triples[1].o, Term::int(1996));
        assert_eq!(triples[2].o, Term::str("1-56619-909-3"));
        assert_eq!(
            triples[3].o,
            Term::Literal(crate::term::Literal::new(Value::Str {
                lexical: "blank".into(),
                lang: Some("en".into())
            }))
        );
    }

    #[test]
    fn parses_typed_literals() {
        let doc = concat!(
            "<http://e/s> <http://e/d> \"1996-07-04\"^^<http://www.w3.org/2001/XMLSchema#date> .\n",
            "<http://e/s> <http://e/m> \"12.34\"^^<http://www.w3.org/2001/XMLSchema#decimal> .\n",
            "<http://e/s> <http://e/b> \"true\"^^<http://www.w3.org/2001/XMLSchema#boolean> .\n",
        );
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples[0].o, Term::date("1996-07-04"));
        assert_eq!(triples[1].o, Term::decimal_f64(12.34));
        assert_eq!(triples[2].o, Term::literal(Value::Bool(true)));
    }

    #[test]
    fn escapes_roundtrip() {
        let original = vec![TermTriple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::str("line1\nline2\t\"quoted\" \\slash"),
        )];
        let mut buf = Vec::new();
        write_document(&mut buf, &original).unwrap();
        let reparsed = parse_document(std::str::from_utf8(&buf).unwrap()).unwrap();
        assert_eq!(reparsed, original);
    }

    #[test]
    fn unicode_escapes() {
        let doc = "<http://e/s> <http://e/p> \"caf\\u00e9 \\U0001F600\" .";
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples[0].o, Term::str("café 😀"));
    }

    #[test]
    fn utf8_passthrough() {
        let doc = "<http://e/s> <http://e/p> \"naïve — überfluß\" .";
        let triples = parse_document(doc).unwrap();
        assert_eq!(triples[0].o, Term::str("naïve — überfluß"));
    }

    #[test]
    fn error_reporting_carries_line_numbers() {
        let doc = "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> nonsense .";
        let err = parse_document(doc).unwrap_err();
        match err {
            ModelError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_syntax() {
        for bad in [
            "<http://e/s> <http://e/p> \"unterminated .",
            "<http://e/s> <http://e/p> .",
            "<http://e/s> \"literal-predicate\" <http://e/o> .",
            "<http://e/s> <http://e/p> <http://e/o> extra .",
            "<unclosed <http://e/p> <http://e/o> .",
        ] {
            assert!(parse_document(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn writer_emits_datatypes() {
        let triples = vec![TermTriple::new(
            Term::iri("http://e/s"),
            Term::iri("http://e/p"),
            Term::date("1996-07-04"),
        )];
        let mut buf = Vec::new();
        write_document(&mut buf, &triples).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"1996-07-04\"^^<http://www.w3.org/2001/XMLSchema#date>"));
    }
}
