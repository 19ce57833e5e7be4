//! # sordf-model
//!
//! The RDF data model substrate for the `sordf` self-organizing RDF store.
//!
//! This crate provides everything the storage and query layers need to talk
//! about RDF data without caring how it is physically stored:
//!
//! * [`Term`] / [`Literal`] — parsed RDF terms with typed literal values.
//! * [`Oid`] — 64-bit *tagged* object identifiers. Values of "inlinable"
//!   types (integers, decimals, dates, datetimes, booleans) are encoded
//!   directly into the OID payload in an **order-preserving** way, so that
//!   comparing OIDs of the same type compares the underlying values. This is
//!   the paper's requirement that "O OIDs used for literals should be ordered
//!   in a way that is meaningful to SPARQL value comparison semantics".
//! * [`Dictionary`] — bidirectional mapping between IRIs / strings and OIDs,
//!   with support for the *remapping* that subject clustering performs.
//! * [`ntriples`] — a line-oriented N-Triples parser and writer.
//!
//! The crate is deliberately free of I/O and storage concerns; it is the
//! vocabulary shared by every other crate in the workspace.

pub mod date;
pub mod dict;
pub mod error;
pub mod fxhash;
pub mod ntriples;
pub mod oid;
pub mod term;
pub mod triple;

pub use dict::{DictMemory, DictPool, Dictionary};
pub use error::ModelError;
pub use fxhash::{FxHashMap, FxHashSet};
pub use oid::{Oid, TypeTag};
pub use term::{Literal, Term, Value};
pub use triple::{TermTriple, Triple};

/// Commonly used XSD / RDF vocabulary IRIs.
pub mod vocab {
    /// `rdf:type` — the predicate that names a subject's class.
    pub const RDF_TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    pub const XSD_INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    pub const XSD_DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    pub const XSD_DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    pub const XSD_DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
    pub const XSD_DATETIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
    pub const XSD_BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    pub const XSD_STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
}
