//! The plan IR: an explicit two-level representation of a BGP query.
//!
//! The **logical plan** is what today's `stars_of` rewrite discovers — the
//! star decomposition of the BGP plus flattened filter conjuncts — wrapped
//! in a small operator tree (star scan / unordered join set / filter /
//! project / aggregate). It says *what* to compute, never in which order.
//!
//! The **physical plan** is what the optimizer ([`crate::optimizer`])
//! lowers it to: one [`PhysicalStep`] per star, in execution order, each
//! carrying the chosen access path ([`StarAccess`]: RDFscan over aligned CS
//! segments vs per-property IdxScan+MergeJoin), the join strategy for the
//! edge that connects it to the already-bound prefix ([`JoinStrategy`]:
//! candidate-driven RDFjoin, zone-map range pushdown, plain hash join, or a
//! guarded cross product), the *complete* set of shared join variables, and
//! the optimizer's cost/cardinality estimates. One executor
//! ([`crate::planner::execute_physical`]) interprets it, every star through
//! one star evaluator (the all-variables form of which is
//! [`crate::parallel::eval_star`]) — so a plan fixes the result bytes
//! regardless of worker count.

use crate::context::PlanScheme;
use crate::expr::Expr;
use crate::query::Query;
use crate::star::{stars_of, tail_filters, Star};
use crate::table::VarId;

/// A logical operator. The join of a multi-star BGP is represented as an
/// *unordered* set ([`LogicalOp::JoinSet`]) — choosing the order and the
/// physical operator per edge is exactly the optimizer's job.
#[derive(Debug, Clone)]
pub enum LogicalOp {
    /// Evaluate one star of the BGP (index into [`LogicalPlan::stars`]).
    StarScan { star: usize },
    /// Natural join of the inputs on their shared variables, order
    /// unspecified.
    JoinSet { inputs: Vec<LogicalOp> },
    /// Apply filter conjuncts (indices into [`LogicalPlan::filters`]).
    /// Lowering pushes single-star conjuncts into the star scans; the rest
    /// run after the joins.
    Filter {
        input: Box<LogicalOp>,
        filters: Vec<usize>,
    },
    /// Project to the SELECT list.
    Project { input: Box<LogicalOp> },
    /// Group/aggregate into the SELECT list.
    Aggregate { input: Box<LogicalOp> },
}

/// The logical plan: the star decomposition plus the operator tree above it.
#[derive(Debug, Clone)]
pub struct LogicalPlan {
    /// The stars of the BGP, in discovery order. Physical steps reference
    /// them by index.
    pub stars: Vec<Star>,
    /// Every filter conjunct, flattened: the query's FILTERs plus the
    /// equality filters introduced by the duplicate-variable star rewrite.
    pub filters: Vec<Expr>,
    /// The operator tree: Aggregate|Project ∘ Filter? ∘ JoinSet|StarScan.
    pub root: LogicalOp,
}

/// Normalize a query into its logical plan. Returns the rewritten query
/// (star rewriting introduces fresh variables for duplicate uses) together
/// with the plan; the rewritten query is what [`crate::agg::finalize`]
/// must see.
pub fn prepare(query: &Query) -> (Query, LogicalPlan) {
    let mut q = query.clone();
    let (stars, extra_filters) = stars_of(&mut q);
    // Flatten conjunctions so every `var OP const` conjunct is individually
    // visible to pushdown and the enforced-filter analysis.
    let mut filters: Vec<Expr> = Vec::new();
    for f in q.filters.iter().chain(extra_filters.iter()) {
        for c in f.conjuncts() {
            filters.push(c.clone());
        }
    }
    let scans: Vec<LogicalOp> = (0..stars.len())
        .map(|star| LogicalOp::StarScan { star })
        .collect();
    let mut root = match scans.len() {
        0 | 1 => scans
            .into_iter()
            .next()
            .unwrap_or(LogicalOp::JoinSet { inputs: Vec::new() }),
        _ => LogicalOp::JoinSet { inputs: scans },
    };
    if !filters.is_empty() {
        root = LogicalOp::Filter {
            input: Box::new(root),
            filters: (0..filters.len()).collect(),
        };
    }
    root = if q.has_aggregates() {
        LogicalOp::Aggregate {
            input: Box::new(root),
        }
    } else {
        LogicalOp::Project {
            input: Box::new(root),
        }
    };
    (
        q,
        LogicalPlan {
            stars,
            filters,
            root,
        },
    )
}

/// How one star becomes a binding table — the paper's two access paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StarAccess {
    /// Aligned multi-column scan over CS segments (RDFscan; RDFjoin when
    /// driven by candidates). Requires clustered storage.
    RdfScan,
    /// One index scan per property, assembled with merge self-joins on the
    /// subject (the triple-store classic).
    PropMerge,
}

impl StarAccess {
    /// The operator name EXPLAIN prints.
    pub fn label(&self) -> &'static str {
        match self {
            StarAccess::RdfScan => "RDFscan",
            StarAccess::PropMerge => "IdxScan+MergeJoin",
        }
    }
}

/// How a star joins the already-bound prefix of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinStrategy {
    /// First star: nothing to join with.
    Seed,
    /// Candidate-driven RDFjoin: the prefix's distinct values of `var`
    /// (the star's subject) drive the star's evaluation directly.
    Candidates { var: VarId },
    /// Zone-map pushdown on the star's subject: restrict its scans to the
    /// `[min, max]` OID range of the prefix's values, then hash join.
    SubjectRange { var: VarId },
    /// Zone-map sideways information passing (§II-D) on an object column:
    /// restrict the star's `var` column to the prefix's `[min, max]` via
    /// injected range filters, then hash join.
    ObjectRange { var: VarId },
    /// Plain hash join on `var` (no pushdown into the star's scan).
    Hash { var: VarId },
    /// Cartesian product — disconnected BGP components. Guarded by
    /// [`crate::context::ExecConfig::cross_join_budget`].
    Cross,
}

impl JoinStrategy {
    /// The primary link variable, if any.
    pub fn var(&self) -> Option<VarId> {
        match self {
            JoinStrategy::Candidates { var }
            | JoinStrategy::SubjectRange { var }
            | JoinStrategy::ObjectRange { var } => Some(*var),
            JoinStrategy::Hash { var } => Some(*var),
            JoinStrategy::Seed | JoinStrategy::Cross => None,
        }
    }

    /// The strategy name EXPLAIN prints (without the variable).
    pub fn label(&self) -> &'static str {
        match self {
            JoinStrategy::Seed => "seed",
            JoinStrategy::Candidates { .. } => "RDFjoin",
            JoinStrategy::SubjectRange { .. } => "zm-subject-range",
            JoinStrategy::ObjectRange { .. } => "zm-object-range",
            JoinStrategy::Hash { .. } => "hash",
            JoinStrategy::Cross => "cross",
        }
    }
}

/// One executed star in plan order: which star, how it is scanned, how it
/// joins the prefix, and what the optimizer expected of it.
#[derive(Debug, Clone)]
pub struct PhysicalStep {
    /// Index into [`LogicalPlan::stars`].
    pub star: usize,
    pub access: StarAccess,
    pub join: JoinStrategy,
    /// Every variable shared with the bound prefix. The join keys on all of
    /// them (not just the primary link variable), so stars sharing both
    /// subject and object variables produce consistent bindings.
    pub join_vars: Vec<VarId>,
    /// Estimated rows this star's scan produces on its own.
    pub est_star_rows: f64,
    /// Estimated rows bound after joining with the prefix.
    pub est_rows: f64,
    /// Cost charged to this step (scan + join work, in cost-model units).
    pub cost: f64,
}

/// The executable plan: steps in execution order plus the configuration
/// they were optimized under.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    pub scheme: PlanScheme,
    pub zonemaps: bool,
    pub steps: Vec<PhysicalStep>,
    /// Sum of the step costs (the quantity the optimizer minimized).
    pub total_cost: f64,
}

/// What each step of a plan has to bind, derived per request from the plan
/// and the select list (the plan cache stores neither: both cost a few
/// small vectors, once per request): **a variable is bound by a step and
/// carried by its join only while something later reads it** — the select
/// list, GROUP BY, the cross-star filters of the tail, and the link / join
/// variables of this and later steps. A star's own residual filters add
/// their variables when the star is evaluated
/// ([`crate::star::StarCall`]); they depend on the constants.
#[derive(Debug)]
pub(crate) struct StepReads<'p> {
    /// Per step: the variables of its star this step's join or anything
    /// after it reads.
    pub(crate) star: Vec<Vec<VarId>>,
    /// Per step: the variables still read after this step's join — what the
    /// joined table keeps.
    pub(crate) keep: Vec<Vec<VarId>>,
    /// The filters no single star can decide ([`tail_filters`]).
    pub(crate) tail: Vec<&'p Expr>,
}

/// The [`StepReads`] of `pp` when its final table feeds a consumer reading
/// `output`.
pub(crate) fn step_reads<'p>(
    output: &[VarId],
    lp: &'p LogicalPlan,
    pp: &PhysicalPlan,
) -> StepReads<'p> {
    let tail = tail_filters(&lp.stars, &lp.filters);
    let mut read = output.to_vec();
    tail.iter().for_each(|f| f.vars(&mut read));
    let n = pp.steps.len();
    let (mut star, mut keep) = (vec![Vec::new(); n], vec![Vec::new(); n]);
    for (i, step) in pp.steps.iter().enumerate().rev() {
        keep[i] = read.clone();
        for &v in step.join_vars.iter().chain(step.join.var().iter()) {
            if !read.contains(&v) {
                read.push(v);
            }
        }
        star[i] = lp.stars[step.star].bound_vars();
        star[i].retain(|v| read.contains(v));
    }
    StepReads { star, keep, tail }
}

impl PhysicalPlan {
    /// Star indices in execution order.
    pub fn star_order(&self) -> Vec<usize> {
        self.steps.iter().map(|s| s.star).collect()
    }

    /// A stable, float-free structural rendering for golden snapshot tests:
    /// operators, join strategies and key sets — not costs or estimates,
    /// which may legitimately drift with the estimator.
    pub fn signature(&self, vars: &[String]) -> String {
        use std::fmt::Write;
        let name = |v: VarId| {
            vars.get(v.0 as usize)
                .map(|s| format!("?{s}"))
                .unwrap_or_else(|| format!("?#{}", v.0))
        };
        let mut out = format!(
            "scheme={:?} zonemaps={} steps={}\n",
            self.scheme,
            self.zonemaps,
            self.steps.len()
        );
        for (i, st) in self.steps.iter().enumerate() {
            let join = match st.join.var() {
                Some(v) => format!("{}({})", st.join.label(), name(v)),
                None => st.join.label().to_string(),
            };
            let keys: Vec<String> = st.join_vars.iter().map(|&v| name(v)).collect();
            let _ = writeln!(
                out,
                "  {i}: star {} access={} join={} on=[{}]",
                st.star,
                st.access.label(),
                join,
                keys.join(",")
            );
        }
        out
    }
}
