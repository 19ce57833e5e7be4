//! # sordf-engine
//!
//! The query engine: vectorized, materialized ("BAT-algebra style", like the
//! MonetDB kernel the paper targets) operators over both storage
//! generations, with the paper's two plan schemes:
//!
//! * **Default** — every triple pattern becomes a per-property scan; star
//!   patterns are assembled with merge self-joins on the subject, exactly
//!   the "bad query plans" of §I.
//! * **RDFscan / RDFjoin** — star patterns over CS storage are answered by
//!   aligned multi-column scans ([`star`]) "without wasting effort in
//!   self-joins"; RDFjoin is the candidate-driven variant used when a star
//!   is probed through a foreign-key link.
//!
//! Zone maps (when enabled) prune scan ranges and push range restrictions
//! across foreign-key links between clustered segments (§II-D's
//! shipdate/orderdate trick). [`cardest`] implements characteristic-set
//! cardinality estimation next to the classic independence assumption.

pub mod agg;
pub mod cancel;
pub mod cardest;
pub mod context;
pub mod expr;
pub mod join;
pub mod optimizer;
pub mod parallel;
pub mod plan;
pub mod planner;
pub mod query;
pub mod scan;
pub mod star;
pub mod table;

pub use cancel::{CancellationToken, QueryInterrupted, StopReason};
pub use context::{ExecConfig, ExecContext, ExecStats, PlanScheme, StorageRef};
pub use expr::{AggFunc, CmpOp, Expr};
pub use optimizer::{optimize, optimize_with_order};
pub use parallel::{eval_star, ParallelConfig};
pub use plan::{prepare, JoinStrategy, LogicalOp, LogicalPlan, PhysicalPlan, StarAccess};
pub use planner::{execute, execute_physical, explain, explain_analyze};
pub use query::{Query, SelectItem, TriplePattern, VarOrOid};
pub use table::{Table, VarId};
