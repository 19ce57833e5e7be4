//! # sordf-storage
//!
//! Physical RDF storage in two generations, mirroring the paper:
//!
//! * **ParseOrder / exhaustive indexing** ([`BaselineStore`]) — the
//!   MonetDB+HSP / RDF-3X layout: sorted permutation projections of the
//!   full triple table (PSO and POS, the two orders a plan reads), stored
//!   as paged columns. OIDs are assigned in order of appearance, so storage
//!   order is uncorrelated with access paths — the paper's "direct cause of
//!   non-locality in RDF query plans".
//!
//! * **Clustered / self-organizing** ([`ClusteredStore`]) — after schema
//!   discovery, [`reorganize`] renumbers subject OIDs so that subjects of
//!   the same characteristic set are contiguous (optionally sub-ordered by a
//!   sort-key property), and sorts string-literal OIDs by value. Regular
//!   triples then live in per-class [`ClassSegment`]s: aligned columns over
//!   an *implicit* dense subject range, with NULLs for missing `0..1`
//!   attributes and side tables for multi-valued properties. Irregular
//!   triples stay in a (much smaller) permutation-indexed triple table.
//!
//! Zone maps come for free from the column builders and enable the
//! cross-table date pushdown of the paper's Table I experiment.
//!
//! Writes after organization land in the [`DeltaStore`] ([`delta`]): sorted
//! in-memory insert runs plus a tombstone set, sequenced for MVCC-lite
//! snapshot reads. The engine unions delta runs with base scans and filters
//! tombstones; a reorganization collapses the delta into a fresh base.

pub mod baseline;
pub mod clustered;
pub mod delta;
pub mod generation;
pub mod manifest;
pub mod perm;
pub mod reorg;
pub mod triple_set;
pub mod wal;

pub use baseline::BaselineStore;
pub use clustered::{build_clustered, ClassSegment, ClusteredStore, MultiTable};
pub use delta::{DeltaStore, DeltaView, DeltaWrite, Snapshot};
pub use generation::{
    fold_delta, visible_base, BaseLayout, DictPin, GenerationHandle, StoreGeneration,
};
pub use manifest::{LayoutFlags, Manifest, SnapshotHeader, StoreSnapshot};
pub use perm::{Order, PermIndex};
pub use reorg::{reorganize, reorganize_from, ClusterSpec, ReorgReport};
pub use triple_set::{
    encode_term_skolemized, encode_triple_skolemized, term_oid_skolemized, BatchResolver, TripleSet,
};
pub use wal::{Crc32, LogRecord, PoolCounts, SyncPolicy, WalKind, WalRecord, WalWriter};
