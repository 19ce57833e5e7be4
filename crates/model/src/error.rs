//! Error type shared by model-layer operations.

use std::fmt;

/// Errors raised while parsing or encoding RDF data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// An N-Triples line could not be parsed. Carries (line number, message).
    Parse { line: usize, msg: String },
    /// A literal value falls outside the range an inlined OID can represent.
    ValueOutOfRange(String),
    /// An OID was decoded against a dictionary that does not contain it.
    UnknownOid(u64),
    /// A malformed date / dateTime lexical form.
    BadDate(String),
    /// A storage page could not be read (after retries). Carries the page
    /// number and the underlying I/O message.
    PageRead { page: u64, msg: String },
    /// Dumped dictionary pools that cannot be a dictionary (an entry with
    /// two indexes, an unsorted frozen string run).
    BadDictionary(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
            ModelError::ValueOutOfRange(v) => write!(f, "value out of inlinable range: {v}"),
            ModelError::UnknownOid(o) => write!(f, "unknown OID {o:#x}"),
            ModelError::BadDate(s) => write!(f, "malformed date: {s:?}"),
            ModelError::PageRead { page, msg } => {
                write!(f, "page {page} read failed: {msg}")
            }
            ModelError::BadDictionary(msg) => write!(f, "malformed dictionary pools: {msg}"),
        }
    }
}

impl std::error::Error for ModelError {}
