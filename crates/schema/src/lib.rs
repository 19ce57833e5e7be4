//! # sordf-schema
//!
//! Emergent relational schema discovery for RDF data — the paper's core
//! contribution (§II-A "Schema exploration and Summarization").
//!
//! Starting from dictionary-encoded triples, the pipeline in [`discover`]
//! recovers the implicit class structure:
//!
//! 1. **Characteristic sets** ([`cs`]) — the exact property set of every
//!    subject, following Neumann & Moerkotte (ICDE 2011).
//! 2. **Generalization** ([`merge`]) — exact CSs are merged into fewer
//!    classes; attributes present in only a significant minority of subjects
//!    become NULLABLE (`0..1`) columns instead of spawning new CSs.
//! 3. **Typed properties** ([`typing`]) — object-type histograms give every
//!    column a declared type; classes whose subjects disagree on types are
//!    split into per-type-signature *variants*.
//! 4. **Multiplicity fine-tuning** ([`finetune`]) — rarely multi-valued
//!    properties are reduced to `0..1` (extras become irregular), genuinely
//!    multi-valued ones are split off into side tables.
//! 5. **Foreign keys** ([`fk`]) — IRI columns whose values concentrate in one
//!    target class become FK edges; incoming links add *indirect support*
//!    that rescues small-but-referenced classes from being dropped.
//! 6. **Naming** ([`naming`]) — human-readable SQL identifiers from
//!    `rdf:type` objects and predicate local names.
//! 7. **Statistics** ([`stats`]) — per-class / per-column counts, null
//!    fractions and distinct sketches for the engine's cardinality
//!    estimator, and the schema's coverage.
//!
//! **The passes it makes.** One pass over every triple, the *profile*
//! (`cs::Profile`): each subject's exact CS, its triple range and an
//! ordinal (a table by IRI payload finds a subject's ordinal; other
//! subjects are found by binary search), and per (exact CS, property) the
//! objects of each type tag and the (s, p) groups with one or more than one
//! of them. A merged class is a union of whole CSs, so typing and
//! multiplicity shaping are sums over its member CSs, with no triple read.
//! After that, only subject ranges are walked: those of a class whose
//! types conflict (twice: variant signatures, then per-variant counts),
//! those of classes with an IRI property (FK targets, resolved through the
//! ordinals), each subject's `rdf:type` group (naming), and one placement
//! walk that fills the statistics and the coverage together. No stage
//! builds a subject → class hash map; the one the schema returns
//! ([`EmergentSchema::assignment`]) is filled once, at the end.
//!
//! The result, [`EmergentSchema`], tells the storage layer which triples are
//! *regular* (stored in CS-clustered columns) and which remain *irregular*
//! (kept in the PSO triple table), and backs the SQL view exposed to users.

pub mod config;
pub mod cs;
pub mod finetune;
pub mod fk;
pub mod incremental;
pub mod merge;
pub mod naming;
pub mod stats;
pub mod statsview;
pub mod summary;
pub mod types;
pub mod typing;

mod pipeline;

pub use config::SchemaConfig;
pub use incremental::{DriftStats, IncrementalAssigner};
pub use pipeline::discover;
pub use statsview::StatsView;
pub use summary::{summarize, SchemaSummary};
pub use types::{
    ClassDef, ClassId, ColStats, ColumnDef, EmergentSchema, ForeignKey, MultiPropDef, TripleHome,
};
