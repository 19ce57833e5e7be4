//! The correctness matrix: every input answers every query alike in every
//! cell. Each test file that asks "same answer?" runs its inputs through it.
//!
//! **Inputs.** Random graphs from one generator (classes with NULLs,
//! multi-valued properties, type exceptions, and second values on every
//! column — the sort key included — that fall outside the column's zone
//! map), RDF-H at a tiny scale with its catalog, `sordf_datagen::dirty`, a
//! page fixture whose items span two zone-map pages, and the printed cases
//! under `tests/matrix_cases/`. Each input carries a write history (inserts:
//! second values, filled NULLs and brand-new subjects; tombstones spread over
//! every page; re-inserts of deleted triples) and generated queries: stars of
//! one to four properties, repeated predicates included, linked through
//! object variables into chains of up to three stars, now and then a
//! component of its own (a cross join), constant objects and subjects,
//! filters of every pushdown status (pushed exactly, pushed and confirmed by
//! value, residual, on the subject, across stars, disjunctions), and a
//! select list of all variables, a subset, DISTINCT, `COUNT(*)`, grouped
//! aggregates or a sum of a product.
//!
//! **Cells.** layout {baseline, CS in parse order (sparse), clustered
//! (dense)} × executor {1 worker, 3 workers} × scheme {RDFscan/RDFjoin,
//! Default} × zone maps {on, off} × writes {none, inserts, tombstones,
//! both} × plan {optimizer pick, every star order, every join strategy of
//! the pick's links} × projection {all variables, pruned} at the engine,
//! and the same layouts, executors, schemes, zone maps and projections
//! through the facade (optimizer pick) over its own write path: writes
//! pending in a durable store, read at a snapshot taken before the
//! tombstones, after the store is dropped and reopened, and after
//! `reorganize_now` on the reopened store. Forced plans need the engine's
//! storage handles, which the facade does not expose, so facade cells run
//! the optimizer's pick only. Each facade store validates its invariants
//! (`Database::validate_invariants`: buffer pool, generation, delta) and
//! counts its triples after the writes, the reopen and the reorganization.
//! One more cell per history is the baseline of a fresh bulk load of its
//! logical triples (Default scheme, no zone maps, one worker).
//!
//! **Comparisons.** A 3-worker cell's answer is its 1-worker twin's **byte
//! for byte, row order included**. In a 1-worker engine cell a pruned
//! subset, DISTINCT or `COUNT(*)` is the all-variables answer projected.
//! Every answer equals its reference canonically (a SUM within
//! `reference::SUM_TOLERANCE`): for a generated query the term-level
//! reference (`reference`) over the history's logical triples — it shares
//! no code with the engine, so it sees a rule that is wrong the same way
//! in every layout — and for a catalog query (RDF-H, fixtures) the fresh
//! bulk load, whose answer to each generated query is checked against the
//! term-level reference too. A cell that panics never agrees. Every star of
//! the optimizer's plan also enforces its own filters (applying them again
//! to its unpruned table removes no row), and the plan costs no more than
//! any forced star order.
//!
//! **Shrinking.** The vendored `proptest` does not shrink; this harness does.
//! On a disagreement it drops triples (the whole list, halves, quarters, …),
//! then patterns, then filters while the two cells still disagree, and
//! panics with the input's seed, the shrunk case and both answers. The case
//! block is the format of `tests/matrix_cases/*.case`: save it there and it
//! runs as a fixed input in every cell.
//!
//! Each test binary that includes this module (`mod harness;`) uses part of
//! it, so dead code is allowed here.

#![allow(dead_code)]

pub mod reference;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sordf::{Database, Generation, QueryRequest, QueryResponse, Snapshot, SyncPolicy};
use sordf_columnar::{BufferPool, DiskManager};
use sordf_engine::plan::PhysicalPlan;
use sordf_engine::{
    execute_physical, optimize, optimize_with_order, prepare, AggFunc, ExecConfig, ExecContext,
    Expr, JoinStrategy, LogicalPlan, ParallelConfig, PlanScheme, Query as Plan, SelectItem,
    StorageRef, VarId,
};
use sordf_model::{ntriples, Dictionary, Term, TermTriple};
use sordf_schema::{EmergentSchema, SchemaConfig};
use sordf_storage::{
    build_clustered, encode_triple_skolemized, reorganize, BaselineStore, ClusterSpec,
    ClusteredStore, DeltaStore, DeltaView, TripleSet,
};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

pub const NS: &str = "http://m/";
/// Values per 64 KiB column page.
pub const PAGE: usize = 8192;

pub fn e(local: impl std::fmt::Display) -> Term {
    Term::iri(format!("{NS}{local}"))
}

pub fn triple(s: Term, p: &str, o: Term) -> TermTriple {
    TermTriple::new(s, e(p), o)
}

pub fn day(d: usize) -> String {
    format!(
        "{}-{:02}-{:02}",
        1990 + d / 336,
        d / 28 % 12 + 1,
        d % 28 + 1
    )
}

// ---- inputs -----------------------------------------------------------------

/// Inserts, then tombstones, then re-inserts of deleted base triples.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Writes {
    pub inserts: Vec<TermTriple>,
    pub deletes: Vec<TermTriple>,
    pub reinserts: Vec<TermTriple>,
}

/// What a query selects; the all-variables form is always run beside it.
#[derive(Clone, Debug, PartialEq)]
pub enum Select {
    All,
    Vars(Vec<String>),
    Distinct(Vec<String>),
    Count,
    /// `GROUP BY ?key` with COUNT(*), MIN, MAX and SUM of `?of`.
    Group(String, String),
    /// `SUM(?a * ?b)`.
    Product(String, String),
}

/// A comparison operator of a generated filter.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// What a variable is compared with.
#[derive(Clone, Debug, PartialEq)]
pub enum Rhs {
    Var(String),
    /// A term, written in N-Triples syntax.
    Const(Term),
    /// A bare integer (SPARQL's short form of an `xsd:integer`).
    Int(i64),
}

/// A generated filter: `?v op rhs`, or a disjunction. `Display` writes it
/// in SPARQL syntax, and `parse` reads that back.
#[derive(Clone, Debug, PartialEq)]
pub enum Filter {
    Cmp(String, Op, Rhs),
    Or(Box<Filter>, Box<Filter>),
}

const OPS: [(Op, &str); 6] = [
    (Op::Eq, "="),
    (Op::Ne, "!="),
    (Op::Lt, "<"),
    (Op::Le, "<="),
    (Op::Gt, ">"),
    (Op::Ge, ">="),
];

impl std::fmt::Display for Filter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Filter::Or(a, b) => write!(f, "{a} || {b}"),
            Filter::Cmp(v, op, rhs) => {
                let op = OPS.iter().find(|(o, _)| o == op).unwrap().1;
                match rhs {
                    Rhs::Var(w) => write!(f, "?{v} {op} ?{w}"),
                    Rhs::Const(t) => write!(f, "?{v} {op} {}", term_text(t)),
                    Rhs::Int(i) => write!(f, "?{v} {op} {i}"),
                }
            }
        }
    }
}

impl Filter {
    pub fn parse(text: &str) -> Filter {
        if let Some((a, b)) = text.split_once(" || ") {
            return Filter::Or(Box::new(Filter::parse(a)), Box::new(Filter::parse(b)));
        }
        let mut words = text.splitn(3, ' ');
        let (v, op, rhs) = (|| Some((words.next()?, words.next()?, words.next()?)))()
            .unwrap_or_else(|| panic!("not a filter: {text}"));
        let op = OPS.iter().find(|(_, o)| *o == op).unwrap().0;
        let rhs = match (rhs.strip_prefix('?'), rhs.parse()) {
            (Some(w), _) => Rhs::Var(w.into()),
            (None, Ok(i)) => Rhs::Int(i),
            (None, Err(_)) => Rhs::Const(parse_term(rhs)),
        };
        Filter::Cmp(v.trim_start_matches('?').into(), op, rhs)
    }

    pub fn vars(&self) -> Vec<String> {
        match self {
            Filter::Or(a, b) => {
                let mut out = a.vars();
                for v in b.vars() {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
                out
            }
            Filter::Cmp(v, _, Rhs::Var(w)) if v != w => vec![v.clone(), w.clone()],
            Filter::Cmp(v, ..) => vec![v.clone()],
        }
    }
}

/// A term in N-Triples syntax.
pub fn parse_term(text: &str) -> Term {
    ntriples::parse_line(&format!("<x:s> <x:p> {text} ."), 0)
        .ok()
        .flatten()
        .unwrap_or_else(|| panic!("not a term: {text}"))
        .o
}

/// A generated query: triple patterns (each position a variable or a term
/// in SPARQL syntax), filters and a select list.
#[derive(Clone, Debug, PartialEq)]
pub struct Bgp {
    pub patterns: Vec<[String; 3]>,
    pub filters: Vec<Filter>,
    pub select: Select,
}

#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    Bgp(Bgp),
    /// A fixed catalog query, run as written.
    Text(String),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Input {
    pub name: String,
    pub seed: u64,
    pub base: Vec<TermTriple>,
    pub writes: Writes,
    pub queries: Vec<Query>,
}

impl Bgp {
    /// The variables of the patterns, in order of first use.
    pub fn vars(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for v in self
            .patterns
            .iter()
            .flatten()
            .filter_map(|t| t.strip_prefix('?'))
        {
            if !out.iter().any(|x| x == v) {
                out.push(v.into());
            }
        }
        out
    }

    pub fn text(&self, select: &Select) -> String {
        let q = |v: &String| format!("?{v}");
        let (head, tail) = match select {
            Select::All => ("*".to_string(), String::new()),
            Select::Vars(vs) => (
                vs.iter().map(q).collect::<Vec<_>>().join(" "),
                String::new(),
            ),
            Select::Distinct(vs) => (
                format!(
                    "DISTINCT {}",
                    vs.iter().map(q).collect::<Vec<_>>().join(" ")
                ),
                String::new(),
            ),
            Select::Count => ("(COUNT(*) AS ?n)".into(), String::new()),
            Select::Group(k, x) => (
                format!(
                    "?{k} (COUNT(*) AS ?n) (MIN(?{x}) AS ?lo) (MAX(?{x}) AS ?hi) (SUM(?{x}) AS ?t)"
                ),
                format!(" GROUP BY ?{k}"),
            ),
            Select::Product(a, b) => (format!("(SUM(?{a} * ?{b}) AS ?r)"), String::new()),
        };
        let mut body: Vec<String> = self.patterns.iter().map(|p| p.join(" ")).collect();
        body.extend(self.filters.iter().map(|f| format!("FILTER({f})")));
        format!("SELECT {head} WHERE {{ {} }}{tail}", body.join(" . "))
    }

    /// `q_all` (the prepared all-variables query) with this select list.
    pub fn pruned(&self, q_all: &Plan) -> Plan {
        let v = |n: &String| VarId(q_all.vars.iter().position(|x| x == n).unwrap() as u16);
        let agg = |func, expr, name: &str| SelectItem::Agg {
            func,
            expr,
            name: name.into(),
        };
        let mut q = q_all.clone();
        q.select = match &self.select {
            Select::All => return q,
            Select::Vars(vs) => vs.iter().map(|n| SelectItem::Var(v(n))).collect(),
            Select::Distinct(vs) => {
                q.distinct = true;
                vs.iter().map(|n| SelectItem::Var(v(n))).collect()
            }
            Select::Count => vec![agg(AggFunc::Count, Expr::Num(1.0), "n")],
            Select::Group(k, x) => {
                q.group_by = vec![v(k)];
                let x = || Expr::Var(v(x));
                vec![
                    SelectItem::Var(v(k)),
                    agg(AggFunc::Count, Expr::Num(1.0), "n"),
                    agg(AggFunc::Min, x(), "lo"),
                    agg(AggFunc::Max, x(), "hi"),
                    agg(AggFunc::Sum, x(), "t"),
                ]
            }
            Select::Product(a, b) => {
                let product = Expr::Arith(
                    Box::new(Expr::Var(v(a))),
                    sordf_engine::expr::ArithOp::Mul,
                    Box::new(Expr::Var(v(b))),
                );
                vec![agg(AggFunc::Sum, product, "r")]
            }
        };
        q
    }

    /// The subject of each star, in order of first use.
    pub fn subjects(&self) -> Vec<&String> {
        let mut out: Vec<&String> = Vec::new();
        for [s, _, _] in &self.patterns {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// The links between stars: object variables that are another star's
    /// subject.
    pub fn links(&self) -> Vec<&String> {
        let subjects = self.subjects();
        subjects
            .into_iter()
            .filter(|s| self.patterns.iter().any(|[_, _, o]| o == *s))
            .collect()
    }

    /// Drop what no longer has its variables bound.
    pub fn repair(mut self) -> Bgp {
        let bound = self.vars();
        let ok = |v: &String| bound.contains(v);
        self.filters.retain(|f| f.vars().iter().all(ok));
        self.select = match self.select {
            Select::Vars(vs) if vs.iter().any(ok) => {
                Select::Vars(vs.into_iter().filter(ok).collect())
            }
            Select::Group(k, x) | Select::Product(k, x) if !(ok(&k) && ok(&x)) => Select::All,
            Select::Distinct(vs) if vs.iter().any(ok) => {
                Select::Distinct(vs.into_iter().filter(ok).collect())
            }
            Select::Vars(_) | Select::Distinct(_) => Select::All,
            s => s,
        };
        self
    }
}

impl Query {
    /// (pruned?, text) of every projection run.
    pub fn texts(&self) -> Vec<(bool, String)> {
        match self {
            Query::Text(t) => vec![(false, t.clone())],
            Query::Bgp(b) if b.select == Select::All => vec![(false, b.text(&Select::All))],
            Query::Bgp(b) => vec![(false, b.text(&Select::All)), (true, b.text(&b.select))],
        }
    }
}

pub fn set_of(ts: &[TermTriple]) -> HashSet<&TermTriple> {
    ts.iter().collect()
}

impl Input {
    pub fn new(name: impl Into<String>, seed: u64, base: Vec<TermTriple>, w: Writes) -> Input {
        let mut seen = HashSet::new();
        let base: Vec<TermTriple> = base
            .into_iter()
            .filter(|t| seen.insert(t.clone()))
            .collect();
        let mut input = Input {
            name: name.into(),
            seed,
            base,
            writes: w,
            queries: Vec::new(),
        };
        input.normalize_writes();
        input
    }

    /// Inserts are new, tombstones hit visible triples, re-inserts bring
    /// back deleted base triples: no write is a no-op whose meaning a
    /// layout could choose.
    pub fn normalize_writes(&mut self) {
        let base = set_of(&self.base);
        let w = &mut self.writes;
        let (mut inserted, mut deleted, mut back) =
            (HashSet::new(), HashSet::new(), HashSet::new());
        w.inserts
            .retain(|t| !base.contains(t) && inserted.insert(t.clone()));
        w.deletes
            .retain(|t| (inserted.contains(t) || base.contains(t)) && deleted.insert(t.clone()));
        w.reinserts
            .retain(|t| base.contains(t) && deleted.contains(t) && back.insert(t.clone()));
    }

    /// The visible triples after `history`.
    pub fn logical(&self, history: History) -> Vec<TermTriple> {
        let w = &self.writes;
        let (ins, del, reins): (&[TermTriple], &[TermTriple], &[TermTriple]) =
            match history.logical() {
                History::None => (&[], &[], &[]),
                History::Inserts => (&w.inserts, &[], &[]),
                History::Tombstones => (&[], &w.deletes, &[]),
                _ => (&w.inserts, &w.deletes, &w.reinserts),
            };
        let dead = set_of(del);
        let mut out: Vec<TermTriple> = self
            .base
            .iter()
            .chain(ins)
            .filter(|t| !dead.contains(t))
            .cloned()
            .collect();
        out.extend(reins.iter().cloned());
        out
    }

    /// The case block the shrinker prints and `tests/matrix_cases/` holds.
    pub fn print(&self) -> String {
        let mut out = format!("# {} · seed {}\n", self.name, self.seed);
        let w = &self.writes;
        for (tag, ts) in [
            ("base", &self.base),
            ("insert", &w.inserts),
            ("delete", &w.deletes),
            ("reinsert", &w.reinserts),
        ] {
            out.push_str(&format!("@{tag}\n"));
            let mut buf = Vec::new();
            ntriples::write_document(&mut buf, ts).unwrap();
            out.push_str(&String::from_utf8(buf).unwrap());
        }
        for q in &self.queries {
            match q {
                Query::Text(t) => out.push_str(&format!("@sparql {}\n", t.replace('\n', " "))),
                Query::Bgp(b) => {
                    let sel = match &b.select {
                        Select::All => "*".into(),
                        Select::Vars(vs) => vs
                            .iter()
                            .map(|v| format!("?{v}"))
                            .collect::<Vec<_>>()
                            .join(" "),
                        Select::Distinct(vs) => format!("distinct ?{}", vs.join(" ?")),
                        Select::Count => "count".into(),
                        Select::Group(k, x) => format!("group ?{k} ?{x}"),
                        Select::Product(a, b) => format!("product ?{a} ?{b}"),
                    };
                    out.push_str(&format!("@select {sel}\n"));
                    for p in &b.patterns {
                        out.push_str(&format!("@pattern {}\n", p.join(" ")));
                    }
                    for f in &b.filters {
                        out.push_str(&format!("@filter {f}\n"));
                    }
                }
            }
        }
        out
    }

    pub fn parse(name: &str, text: &str) -> Input {
        let mut input = Input::new(name, 0, Vec::new(), Writes::default());
        let mut section = "";
        for line in text.lines() {
            // Comments; the header names the seed.
            if let Some(comment) = line.strip_prefix('#') {
                if let Some((_, seed)) = comment.rsplit_once("seed ") {
                    input.seed = seed.trim().parse().unwrap_or(0);
                }
                continue;
            }
            let (tag, rest) = match line.strip_prefix('@') {
                Some(l) => l.split_once(' ').unwrap_or((l, "")),
                None => (section, line),
            };
            section = tag;
            match tag {
                "base" | "insert" | "delete" | "reinsert" if !rest.trim().is_empty() => {
                    let t = ntriples::parse_line(rest, 0).unwrap().unwrap();
                    let w = &mut input.writes;
                    match tag {
                        "base" => input.base.push(t),
                        "insert" => w.inserts.push(t),
                        "delete" => w.deletes.push(t),
                        _ => w.reinserts.push(t),
                    }
                }
                "sparql" => input.queries.push(Query::Text(rest.into())),
                "select" => {
                    let words: Vec<String> = rest
                        .split_whitespace()
                        .map(|w| w.trim_start_matches('?').into())
                        .collect();
                    let select = match words[0].as_str() {
                        "*" => Select::All,
                        "count" => Select::Count,
                        "distinct" => Select::Distinct(words[1..].to_vec()),
                        "group" => Select::Group(words[1].clone(), words[2].clone()),
                        "product" => Select::Product(words[1].clone(), words[2].clone()),
                        _ => Select::Vars(words),
                    };
                    input.queries.push(Query::Bgp(Bgp {
                        patterns: Vec::new(),
                        filters: Vec::new(),
                        select,
                    }));
                }
                "pattern" if !rest.is_empty() => {
                    let (s, rest) = rest.split_once(' ').unwrap();
                    let (p, o) = rest.split_once(' ').unwrap();
                    last_bgp(&mut input.queries)
                        .patterns
                        .push([s.into(), p.into(), o.into()]);
                }
                "filter" if !rest.is_empty() => last_bgp(&mut input.queries)
                    .filters
                    .push(Filter::parse(rest)),
                _ => {}
            }
        }
        let queries = std::mem::take(&mut input.queries);
        let input = Input::new(name, input.seed, input.base, input.writes);
        Input { queries, ..input }
    }
}

pub fn last_bgp(queries: &mut [Query]) -> &mut Bgp {
    match queries.last_mut() {
        Some(Query::Bgp(b)) => b,
        _ => panic!("@pattern or @filter before @select"),
    }
}

// ---- generators ---------------------------------------------------------------

/// The random graph: items over a date column (the clustered sort key), two
/// numeric columns (one nullable, of integers and decimals), a tag link and
/// a sometimes-present note;
/// tags with a label, a rank and a group; then noise — second values on
/// every column outside its zone map, a string in an integer column,
/// multi-valued links, a rare property and subjects of their own shape.
pub fn random_graph(rng: &mut StdRng) -> Vec<TermTriple> {
    let (n, n_tag) = (rng.random_range(4usize..140), rng.random_range(2usize..6));
    let mut out = Vec::new();
    for k in 0..n_tag {
        out.push(triple(
            e(format!("tag{k}")),
            "label",
            Term::str(["red", "green", "blue", "grey", "teal"][k]),
        ));
        out.push(triple(
            e(format!("tag{k}")),
            "rank",
            Term::int(k as i64 * 11),
        ));
        // Tags belong to groups: item → tag → group chains three stars.
        out.push(triple(
            e(format!("tag{k}")),
            "group",
            e(format!("grp{}", k % 2)),
        ));
    }
    for g in 0..2 {
        out.push(triple(
            e(format!("grp{g}")),
            "name",
            Term::str(format!("g{g}")),
        ));
    }
    for i in 0..n {
        let s = e(format!("s{i}"));
        out.push(triple(s.clone(), "qty", Term::int((i % 13) as i64)));
        if i % 4 != 0 {
            // Integers and decimals in one property: numbers compare by
            // value across the two types.
            let price = (i % 7) as i64 * 10;
            let price = if i % 5 == 2 {
                Term::decimal_f64(price as f64 + 2.5)
            } else {
                Term::int(price)
            };
            out.push(triple(s.clone(), "price", price));
        }
        out.push(triple(
            s.clone(),
            "date",
            Term::date(&day(rng.random_range(0..700))),
        ));
        out.push(triple(s.clone(), "tag", e(format!("tag{}", i % n_tag))));
        if i % 3 == 0 {
            out.push(triple(s, "note", Term::str(format!("n{}", i % 5))));
        }
    }
    for k in 0..rng.random_range(0..n / 2 + 4) {
        let s = e(format!("s{}", rng.random_range(0..n)));
        out.push(match rng.random_range(0..7) {
            0 => triple(s, "qty", Term::int(1000 + k as i64)),
            1 => triple(s, "date", Term::date(&day(2000 + k))),
            2 => triple(s, "qty", Term::str("n/a")),
            3 => triple(s, "tag", e(format!("tag{}", rng.random_range(0..n_tag)))),
            4 => triple(s, "rare", Term::int(k as i64)),
            5 => triple(e(format!("odd{k}")), "qty", Term::str(format!("x{k}"))),
            _ => triple(s, "price", Term::int(-(k as i64))),
        });
    }
    out
}

/// Subjects in first-seen order with their (predicate, object) pairs, and
/// every object of each predicate.
pub struct Index {
    pub subjects: Vec<(Term, Vec<(Term, Term)>)>,
    pub of_pred: Vec<(Term, Vec<Term>)>,
}

impl Index {
    pub fn new(triples: &[TermTriple]) -> Index {
        let mut subjects: Vec<(Term, Vec<(Term, Term)>)> = Vec::new();
        let mut at = std::collections::HashMap::new();
        let mut of_pred: Vec<(Term, Vec<Term>)> = Vec::new();
        let mut pat = std::collections::HashMap::new();
        for t in triples {
            let i = *at.entry(t.s.clone()).or_insert_with(|| {
                subjects.push((t.s.clone(), Vec::new()));
                subjects.len() - 1
            });
            subjects[i].1.push((t.p.clone(), t.o.clone()));
            let j = *pat.entry(t.p.clone()).or_insert_with(|| {
                of_pred.push((t.p.clone(), Vec::new()));
                of_pred.len() - 1
            });
            of_pred[j].1.push(t.o.clone());
        }
        Index { subjects, of_pred }
    }

    pub fn props(&self, s: &Term) -> Option<&[(Term, Term)]> {
        self.subjects
            .iter()
            .find(|(x, _)| x == s)
            .map(|(_, ps)| ps.as_slice())
    }

    pub fn objects(&self, p: &Term) -> &[Term] {
        &self.of_pred.iter().find(|(x, _)| x == p).unwrap().1
    }
}

pub fn pick<'a, T>(rng: &mut StdRng, xs: &'a [T]) -> &'a T {
    &xs[rng.random_range(0..xs.len())]
}

pub fn term_text(t: &Term) -> String {
    let mut s = String::new();
    ntriples::write_term(&mut s, t);
    s
}

pub fn generate_query(rng: &mut StdRng, idx: &Index) -> Bgp {
    let mut b = Bgp {
        patterns: Vec::new(),
        filters: Vec::new(),
        select: Select::All,
    };
    // (subject term, its variable or constant text, depth)
    let root = pick(rng, &idx.subjects).0.clone();
    let root_text = if rng.random_bool(0.08) && root.as_iri().is_some() {
        term_text(&root)
    } else {
        "?s0".to_string()
    };
    let mut todo = vec![(root, root_text, 0)];
    let (mut n_vars, mut n_stars) = (0, 1);
    // Object variables with the predicate they come from.
    let mut objects: Vec<(String, Term)> = Vec::new();
    while let Some((s, s_text, depth)) = todo.pop() {
        let props = idx.props(&s).unwrap();
        let mut last: Option<Term> = None;
        for _ in 0..rng.random_range(1..props.len().min(4) + 1) {
            let (p, o) = match &last {
                // The same predicate twice: a self-join inside the star.
                Some(p) if rng.random_bool(0.15) => (p.clone(), pick(rng, idx.objects(p)).clone()),
                _ if rng.random_bool(0.08) => {
                    let (p, os) = pick(rng, &idx.of_pred);
                    (p.clone(), pick(rng, os).clone())
                }
                _ => pick(rng, props).clone(),
            };
            last = Some(p.clone());
            let o_text = if rng.random_bool(0.12) && !matches!(o, Term::Blank(_)) {
                term_text(&o)
            } else {
                n_vars += 1;
                let v = format!("v{n_vars}");
                objects.push((v.clone(), p.clone()));
                if n_stars < 3 && depth < 2 && idx.props(&o).is_some() && rng.random_bool(0.5) {
                    n_stars += 1;
                    todo.push((o.clone(), format!("?{v}"), depth + 1));
                }
                format!("?{v}")
            };
            b.patterns.push([s_text.clone(), term_text(&p), o_text]);
        }
    }
    // Now and then a component of its own: a cross join.
    if rng.random_bool(0.1) {
        let (s, props) = pick(rng, &idx.subjects);
        let p = pick(rng, props).0.clone();
        if s.as_iri().is_some() {
            n_vars += 1;
            objects.push((format!("v{n_vars}"), p.clone()));
            b.patterns
                .push([term_text(s), term_text(&p), format!("?v{n_vars}")]);
        }
    }
    if objects.is_empty() {
        b.patterns[0][2] = "?v0".into();
        objects.push((
            "v0".into(),
            Term::iri(b.patterns[0][1].trim_matches(['<', '>'])),
        ));
    }
    let vars = b.vars();
    for _ in 0..rng.random_range(0..3) {
        let (v, p) = pick(rng, &objects).clone();
        // The last values of a predicate are often its noise: a second value
        // outside the zone map or a value of another type.
        let (os, noisy) = (idx.objects(&p), rng.random_bool(0.35));
        let c = if noisy {
            os[os.len() - 1].clone()
        } else {
            pick(rng, os).clone()
        };
        let ordered = matches!(c, Term::Literal(_));
        let w = pick(rng, &objects).0.clone();
        let cmp = |op, rhs| Filter::Cmp(v.clone(), op, rhs);
        let c = Rhs::Const(c);
        b.filters.push(match rng.random_range(0..8) {
            // A noise value selects rows whose page zone map misses it.
            _ if noisy => cmp(Op::Eq, c),
            0 if ordered => cmp(Op::Ge, c),
            1 if ordered => cmp(Op::Lt, c),
            2 if ordered => Filter::Or(
                Box::new(cmp(Op::Ge, c)),
                Box::new(cmp(Op::Eq, Rhs::Const(pick(rng, idx.objects(&p)).clone()))),
            ),
            3 => cmp(Op::Ne, c),
            4 => cmp(Op::Lt, Rhs::Int(50)),
            5 if vars[0] != v => cmp(Op::Ne, Rhs::Var(vars[0].clone())),
            6 if w != v => cmp(Op::Lt, Rhs::Var(w)),
            _ => cmp(Op::Eq, c),
        });
    }
    let (a, c) = (pick(rng, &vars).clone(), pick(rng, &vars).clone());
    b.select = match rng.random_range(0..10) {
        0..=2 => Select::All,
        3 | 4 if a == c => Select::Vars(vec![a]),
        3 | 4 => Select::Vars(vec![c, a]),
        5 => Select::Distinct(vec![a]),
        6 => Select::Count,
        7 | 8 => Select::Group(a, pick(rng, &objects).0.clone()),
        _ => Select::Product(a, c),
    };
    b
}

/// Writes drawn from the data: second values, values of another subject's
/// property, brand-new subjects copied from old ones, tombstones anywhere
/// (page edges of the ordered subjects included) and re-inserts.
pub fn generate_writes(rng: &mut StdRng, idx: &Index, base: &[TermTriple]) -> Writes {
    let n = (base.len() / 40).clamp(3, 60);
    let mut w = Writes::default();
    for k in 0..n {
        let (s, props) = pick(rng, &idx.subjects);
        let (p, _) = pick(rng, props);
        match rng.random_range(0..3) {
            0 => w.inserts.push(TermTriple::new(
                s.clone(),
                p.clone(),
                pick(rng, idx.objects(p)).clone(),
            )),
            1 => {
                let (p, os) = pick(rng, &idx.of_pred);
                w.inserts
                    .push(TermTriple::new(s.clone(), p.clone(), pick(rng, os).clone()));
            }
            _ => {
                if let Some(iri) = s.as_iri() {
                    let fresh = Term::iri(format!("{iri}_new{k}"));
                    w.inserts.extend(
                        props
                            .iter()
                            .map(|(p, o)| TermTriple::new(fresh.clone(), p.clone(), o.clone())),
                    );
                }
            }
        }
    }
    let edges = [0, PAGE - 1, PAGE, 2 * PAGE - 1, 2 * PAGE];
    for k in 0..n {
        let i = match edges.get(k) {
            Some(&i) if i < idx.subjects.len() => i,
            _ => rng.random_range(0..idx.subjects.len()),
        };
        let (s, props) = &idx.subjects[i];
        let (p, o) = pick(rng, props);
        w.deletes
            .push(TermTriple::new(s.clone(), p.clone(), o.clone()));
    }
    if let Some(t) = w.inserts.first() {
        w.deletes.push(t.clone());
    }
    w.reinserts = w.deletes.iter().step_by(3).cloned().collect();
    w
}

/// An input from `base` and `seed`: generated writes (plus `fixed`) and
/// `n_queries` generated queries after the fixed ones.
pub fn input(
    name: &str,
    seed: u64,
    base: Vec<TermTriple>,
    fixed: Writes,
    catalog: Vec<Query>,
    n_queries: usize,
) -> Input {
    shaped_input(name, seed, base, fixed, catalog, n_queries, |_| true)
}

/// `input`, keeping only the generated queries of one `shape`.
pub fn shaped_input(
    name: &str,
    seed: u64,
    base: Vec<TermTriple>,
    fixed: Writes,
    catalog: Vec<Query>,
    n_queries: usize,
    shape: impl Fn(&Bgp) -> bool,
) -> Input {
    let mut rng = StdRng::seed_from_u64(seed);
    let idx = Index::new(&base);
    let mut w = generate_writes(&mut rng, &idx, &base);
    w.inserts.extend(fixed.inserts);
    w.deletes.extend(fixed.deletes);
    w.reinserts.extend(fixed.reinserts);
    let mut input = Input::new(name, seed, base, w);
    input.queries = catalog;
    let (want, mut tries) = (input.queries.len() + n_queries, 0);
    while input.queries.len() < want {
        let b = generate_query(&mut rng, &idx);
        if shape(&b) {
            input.queries.push(Query::Bgp(b));
        }
        tries += 1;
        assert!(
            tries < 1000 * want,
            "{name}: no generated query has the shape"
        );
    }
    input
}

// ---- stores -----------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Layout {
    Baseline,
    Sparse,
    Dense,
}

pub const LAYOUTS: [Layout; 3] = [Layout::Baseline, Layout::Sparse, Layout::Dense];

impl Layout {
    pub fn generation(self) -> Generation {
        match self {
            Layout::Baseline => Generation::Baseline,
            Layout::Sparse => Generation::CsParseOrder,
            Layout::Dense => Generation::Clustered,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum History {
    None,
    Inserts,
    Tombstones,
    Both,
    /// Facade: read at the snapshot taken between inserts and tombstones.
    Snapshot,
    /// Facade: the reopened store after `reorganize_now`.
    Reorganized,
    /// Facade: the durable store with all writes, dropped and reopened.
    Reopened,
}

impl History {
    pub fn logical(self) -> History {
        match self {
            History::Snapshot => History::Inserts,
            History::Reorganized | History::Reopened => History::Both,
            h => h,
        }
    }
}

/// One bulk load at the engine: the baseline and the CS `layouts` asked for.
pub struct Rig {
    _dm: Arc<DiskManager>,
    pub pool: BufferPool,
    pub parse_order: Dictionary,
    pub baseline: BaselineStore,
    pub sparse: Option<(ClusteredStore, EmergentSchema)>,
    pub dense: Option<(Dictionary, ClusteredStore, EmergentSchema)>,
}

pub fn rig(triples: &[TermTriple], layouts: &[Layout]) -> Rig {
    let mut ts = TripleSet::new();
    ts.extend_terms(triples).unwrap();
    let dm = Arc::new(DiskManager::temp().unwrap());
    let spo = ts.sorted_spo();
    let baseline = BaselineStore::build(&dm, &spo);
    let parse_order = ts.dict.clone();
    let (mut sparse, mut dense) = (None, None);
    // The dense layout is reorganized from the sparse one's schema.
    if layouts.iter().any(|&l| l != Layout::Baseline) {
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &SchemaConfig::default());
        let spec = ClusterSpec::auto(&schema);
        let store = build_clustered(&dm, &spo, &mut schema, &spec, false);
        let mut dense_schema = schema.clone();
        sparse = Some((store, schema));
        if layouts.contains(&Layout::Dense) {
            reorganize(&mut ts, &mut dense_schema, &spec);
            let store = build_clustered(&dm, &ts.sorted_spo(), &mut dense_schema, &spec, true);
            dense = Some((ts.dict, store, dense_schema));
        }
    }
    Rig {
        pool: BufferPool::new(Arc::clone(&dm), 2048),
        _dm: dm,
        parse_order,
        baseline,
        sparse,
        dense,
    }
}

impl Rig {
    pub fn layer(&self, layout: Layout) -> (&Dictionary, StorageRef<'_>) {
        match (layout, &self.sparse, &self.dense) {
            (Layout::Sparse, Some((store, schema)), _) => {
                (&self.parse_order, StorageRef::Clustered { store, schema })
            }
            (Layout::Dense, _, Some((dict, store, schema))) => {
                (dict, StorageRef::Clustered { store, schema })
            }
            _ => (&self.parse_order, StorageRef::Baseline(&self.baseline)),
        }
    }
}

/// The pending writes of `history` in `dict`'s numbering (new subjects are
/// interned).
pub fn delta(dict: &Dictionary, w: &Writes, history: History) -> Option<Arc<DeltaView>> {
    let enc = |ts: &[TermTriple]| {
        ts.iter()
            .map(|t| encode_triple_skolemized(dict, t).unwrap())
            .collect::<Vec<_>>()
    };
    let mut ds = DeltaStore::new();
    if matches!(history, History::Inserts | History::Both) {
        let _ = ds.insert_run(enc(&w.inserts));
    }
    if matches!(history, History::Tombstones | History::Both) {
        let _ = ds.delete(&enc(&w.deletes));
    }
    if history == History::Both {
        let _ = ds.insert_run(enc(&w.reinserts));
    }
    ds.current_view_arc()
}

/// A durable facade store of `input`, self-organized (`dense`) or built in
/// parse order (baseline and CS tables), with every write pending and the
/// snapshot taken between inserts and tombstones; then brought to
/// `history`: reopened, or reopened and reorganized.
pub fn facade(input: &Input, dense: bool, history: History) -> Facade {
    let dir = TempDir::new();
    let db = Database::create_durable(&dir.0, SyncPolicy::Never).unwrap();
    db.load_terms(&input.base).unwrap();
    if dense {
        db.self_organize().unwrap();
    } else {
        db.build_baseline().unwrap();
        db.build_cs_tables().unwrap();
    }
    let w = &input.writes;
    db.insert_terms(&w.inserts).unwrap();
    let snap = db.snapshot();
    assert_eq!(
        db.delete_triples(&w.deletes).unwrap(),
        w.deletes.len(),
        "{}: every tombstone hits",
        input.name
    );
    db.insert_terms(&w.reinserts).unwrap();
    let f = Facade { db, snap, dir };
    f.holds(input, History::Both);
    match history {
        History::Reopened => f.reopen(input),
        History::Reorganized => {
            let f = f.reopen(input);
            f.reorganize(input);
            f
        }
        _ => f,
    }
}

/// A durable facade store; its directory goes after it.
pub struct Facade {
    pub db: Database,
    pub snap: Snapshot,
    dir: TempDir,
}

impl Facade {
    /// Drop the store and open its directory again.
    pub fn reopen(self, input: &Input) -> Facade {
        let Facade { db, snap, dir } = self;
        drop(db);
        let f = Facade {
            db: Database::open(&dir.0).unwrap(),
            snap,
            dir,
        };
        f.holds(input, History::Reopened);
        f
    }

    pub fn reorganize(&self, input: &Input) {
        self.db.reorganize_now().unwrap();
        self.holds(input, History::Reorganized);
    }

    /// The store's invariants hold and it counts the history's triples.
    fn holds(&self, input: &Input, history: History) {
        self.db.validate_invariants();
        assert_eq!(
            self.db.n_triples(),
            input.logical(history).len(),
            "{}: {history:?}",
            input.name
        );
    }
}

pub struct TempDir(std::path::PathBuf);

impl TempDir {
    pub fn new() -> TempDir {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        TempDir(std::env::temp_dir().join(format!("sordf-matrix-{}-{n}", std::process::id())))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---- cells --------------------------------------------------------------------

/// The executor: the morsel executor at one worker or at three.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Exec {
    One,
    Three,
}

/// Where a cell's answer comes from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// The term-level reference (`reference`) over the history's triples.
    Terms,
    /// The baseline of a fresh bulk load of the history's triples.
    Fresh,
    /// The engine over a bulk load of the base, the history's writes
    /// pending.
    Engine,
    /// The facade over its own write path.
    Facade,
}

#[derive(Clone, Debug, PartialEq)]
pub enum PlanPick {
    Optimizer,
    Order(Vec<usize>),
    /// The optimizer's plan with step `step` joined by `label` on `?var`.
    Join(usize, &'static str, String),
}

#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    pub source: Source,
    pub layout: Layout,
    pub history: History,
    pub scheme: PlanScheme,
    pub zonemaps: bool,
    pub plan: PlanPick,
    pub pruned: bool,
    pub exec: Exec,
}

impl Cell {
    /// The baseline of a fresh bulk load of `history`'s triples, Default
    /// scheme, no zone maps, one worker.
    pub fn fresh(history: History, pruned: bool) -> Cell {
        Cell {
            source: Source::Fresh,
            layout: Layout::Baseline,
            history: history.logical(),
            scheme: PlanScheme::Default,
            zonemaps: false,
            plan: PlanPick::Optimizer,
            pruned,
            exec: Exec::One,
        }
    }

    /// The cross-layout reference of `query`: the term-level reference for
    /// a generated query, the fresh bulk load for a catalog one.
    pub fn reference(query: &Query, history: History, pruned: bool) -> Cell {
        let source = match query {
            Query::Bgp(_) => Source::Terms,
            Query::Text(_) => Source::Fresh,
        };
        Cell {
            source,
            ..Cell::fresh(history, pruned)
        }
    }

    pub fn facade(&self) -> bool {
        self.source == Source::Facade
    }
}

/// Rendered answer: the header, then the rows in order.
pub type Rows = Vec<Vec<String>>;

pub fn par3() -> ParallelConfig {
    ParallelConfig {
        workers: 3,
        min_morsel_pages: 1,
        min_morsel_rows: 1,
    }
}

pub fn config(scheme: PlanScheme, zonemaps: bool) -> ExecConfig {
    ExecConfig {
        scheme,
        zonemaps,
        ..Default::default()
    }
}

pub fn caught(f: impl FnOnce() -> Rows) -> Rows {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()));
        vec![vec![format!("panic: {}", msg.unwrap_or_default())]]
    })
}

pub fn rendered(rs: &sordf_engine::agg::ResultSet, dict: &Dictionary) -> Rows {
    std::iter::once(rs.columns.clone())
        .chain(rs.render(dict))
        .collect()
}

pub fn canonical(rows: &Rows) -> Rows {
    let mut body = rows[1..].to_vec();
    body.sort();
    std::iter::once(rows[0].clone()).chain(body).collect()
}

pub fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for p in permutations(n - 1) {
        for at in 0..n {
            let mut q = p.clone();
            q.insert(at, n - 1);
            out.push(q);
        }
    }
    out
}

/// The plans of one query in one context: the optimizer's pick, every star
/// order (the pick's rotations beyond three stars), and on CS layouts with
/// zone maps every join strategy each of the pick's links admits.
pub fn plans(cx: &ExecContext, q: &Plan, lp: &LogicalPlan) -> Vec<(PlanPick, PhysicalPlan)> {
    let pick = optimize(cx, lp);
    let mut out = vec![(PlanPick::Optimizer, pick.clone())];
    let n = lp.stars.len();
    let orders = match n {
        0 | 1 => Vec::new(),
        2 | 3 => permutations(n),
        _ => (0..n)
            .map(|r| {
                let mut o = pick.star_order();
                o.rotate_left(r);
                o
            })
            .collect(),
    };
    for o in orders {
        out.push((PlanPick::Order(o.clone()), optimize_with_order(cx, lp, &o)));
    }
    if matches!(cx.storage, StorageRef::Clustered { .. }) && cx.config.zonemaps {
        for (i, step) in pick.steps.iter().enumerate().skip(1) {
            for &var in &step.join_vars {
                let subject = var == lp.stars[step.star].subject_var;
                let joins = if subject {
                    vec![
                        JoinStrategy::Hash { var },
                        JoinStrategy::Candidates { var },
                        JoinStrategy::SubjectRange { var },
                    ]
                } else {
                    vec![
                        JoinStrategy::Hash { var },
                        JoinStrategy::ObjectRange { var },
                    ]
                };
                for join in joins {
                    let mut plan = pick.clone();
                    let name = q.vars[var.0 as usize].clone();
                    plan.steps[i].join = join;
                    out.push((PlanPick::Join(i, plan.steps[i].join.label(), name), plan));
                }
            }
        }
    }
    let mut seen = HashSet::new();
    out.retain(|(_, p)| seen.insert(p.signature(&q.vars)));
    out
}

/// Where cells run: the engine over one layer of a rig with a delta view,
/// or the facade over one generation (at a snapshot, maybe).
pub enum Store<'a> {
    Engine {
        rig: &'a Rig,
        layout: Layout,
        delta: Option<Arc<DeltaView>>,
    },
    Facade {
        db: &'a Database,
        layout: Layout,
        at: Option<Snapshot>,
    },
}

/// Every answer of `query` in `store`: `base` names the store's layout and
/// history, and `only` restricts the run to one cell.
pub fn answers(
    store: &Store,
    query: &Query,
    base: &Cell,
    only: Option<&Cell>,
) -> Vec<(Cell, Rows)> {
    let mut out = Vec::new();
    let wanted = |c: &Cell| only.map_or(true, |o| o == c);
    for scheme in [PlanScheme::RdfScanJoin, PlanScheme::Default] {
        for zonemaps in [true, false] {
            if only.is_some_and(|o| (o.scheme, o.zonemaps) != (scheme, zonemaps)) {
                continue;
            }
            let cell = |plan: PlanPick, pruned, exec| Cell {
                scheme,
                zonemaps,
                plan,
                pruned,
                exec,
                ..base.clone()
            };
            match store {
                Store::Facade { db, layout, at } => {
                    for (pruned, text) in query.texts() {
                        for exec in [Exec::One, Exec::Three] {
                            let c = cell(PlanPick::Optimizer, pruned, exec);
                            if !wanted(&c) {
                                continue;
                            }
                            let mut req = QueryRequest::sparql(text.as_str())
                                .generation(layout.generation())
                                .config(config(scheme, zonemaps));
                            if exec == Exec::Three {
                                req = req.parallel(par3());
                            }
                            if let Some(s) = at {
                                req = req.snapshot(*s);
                            }
                            let rows = match db.execute(&req) {
                                Ok(resp) => rendered(&resp.results, &resp.pin),
                                Err(sordf::Error::Exec(msg)) => vec![vec![format!("panic: {msg}")]],
                                Err(err) => vec![vec![format!("error: {err}")]],
                            };
                            out.push((c, rows));
                        }
                    }
                }
                Store::Engine { rig, layout, delta } => {
                    let (dict, storage) = rig.layer(*layout);
                    let cx = ExecContext::new(&rig.pool, dict, storage, config(scheme, zonemaps))
                        .with_delta(delta.clone());
                    let Ok(q) = sordf_sparql::parse_sparql(&query.texts()[0].1, dict) else {
                        out.push((
                            cell(PlanPick::Optimizer, false, Exec::One),
                            vec![vec!["unparsable".into()]],
                        ));
                        continue;
                    };
                    let (q_all, lp) = prepare(&q);
                    let variants: Vec<(bool, Plan)> = match query {
                        Query::Bgp(b) if b.select != Select::All => {
                            vec![(false, q_all.clone()), (true, b.pruned(&q_all))]
                        }
                        _ => vec![(false, q_all.clone())],
                    };
                    // One cell wanted: its plan alone (a pick is `plans`' first).
                    let plans = match only {
                        Some(o) if o.plan == PlanPick::Optimizer => {
                            vec![(PlanPick::Optimizer, optimize(&cx, &lp))]
                        }
                        _ => plans(&cx, &q_all, &lp),
                    };
                    if only.is_none() {
                        the_pick_is_the_cheapest_order(&plans);
                    }
                    for (pick, plan) in plans {
                        for (pruned, q) in &variants {
                            for exec in [Exec::One, Exec::Three] {
                                let c = cell(pick.clone(), *pruned, exec);
                                if !wanted(&c) {
                                    continue;
                                }
                                let (_, storage) = rig.layer(*layout);
                                let mut cx = ExecContext::new(
                                    &rig.pool,
                                    dict,
                                    storage,
                                    config(scheme, zonemaps),
                                )
                                .with_delta(delta.clone());
                                if exec == Exec::Three {
                                    cx = cx.with_parallel(par3());
                                }
                                let rows = caught(|| {
                                    rendered(&execute_physical(&cx, q, &lp, &plan, None), dict)
                                });
                                out.push((c, rows));
                            }
                        }
                    }
                    if only.is_none() {
                        filters_are_enforced_once(&cx, &lp);
                    }
                }
            }
        }
    }
    out
}

/// The optimizer's pick costs no more than any forced star order (all of
/// them up to three stars).
pub fn the_pick_is_the_cheapest_order(plans: &[(PlanPick, PhysicalPlan)]) {
    let pick = plans[0].1.total_cost;
    for (order, plan) in plans
        .iter()
        .filter(|(p, _)| matches!(p, PlanPick::Order(o) if o.len() <= 3))
    {
        assert!(
            pick <= plan.total_cost * (1.0 + 1e-9),
            "{order:?} costs {} < the pick's {pick}",
            plan.total_cost
        );
    }
}

/// **A filter is enforced once, by the star that binds all its variables**
/// — the rule that lets the tail of a plan apply cross-star filters only:
/// every star of the pick, evaluated with all its variables, loses no row
/// when every filter is applied to it again.
pub fn filters_are_enforced_once(cx: &ExecContext, lp: &LogicalPlan) {
    let filters: Vec<&Expr> = lp.filters.iter().collect();
    for step in &optimize(cx, lp).steps {
        let mut table =
            sordf_engine::eval_star(cx, &lp.stars[step.star], step.access, &filters, None, None);
        let bound = table.len();
        sordf_engine::star::apply_filters(cx, &mut table, &filters);
        assert_eq!(
            table.len(),
            bound,
            "star {} left one of its filters unenforced: {filters:?}",
            step.star
        );
    }
}

// ---- checks -------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Same rows in the same order.
    Bytes,
    /// The second is the first projected to the query's select list.
    Projected,
    /// Same rows in any order.
    Canonical,
}

pub fn agree(mode: Mode, select: &Select, a: &Rows, b: &Rows) -> bool {
    // Two cells that panic alike still fail.
    if [a, b].iter().any(|r| r[0][0].starts_with("panic: ")) {
        return false;
    }
    match mode {
        Mode::Bytes => a == b,
        Mode::Canonical => match select.sum_col() {
            None => canonical(a) == canonical(b),
            Some(col) => same_sums(a, b, col),
        },
        Mode::Projected => {
            let project = |vs: &Vec<String>| -> Rows {
                let cols: Vec<Option<usize>> = vs
                    .iter()
                    .map(|v| a[0].iter().position(|h| h == v))
                    .collect();
                std::iter::once(vs.clone())
                    .chain(a[1..].iter().map(|r| {
                        cols.iter()
                            .map(|c| c.map_or(String::new(), |c| r[c].clone()))
                            .collect()
                    }))
                    .collect()
            };
            match select {
                Select::Vars(vs) => project(vs) == *b,
                // The projected rows as a set, each once.
                Select::Distinct(vs) => {
                    let set = |r: &Rows| {
                        r[1..]
                            .iter()
                            .cloned()
                            .collect::<std::collections::BTreeSet<_>>()
                    };
                    let projected = project(vs);
                    projected[0] == b[0] && set(&projected) == set(b) && set(b).len() == b.len() - 1
                }
                // No row at all counts nothing: no group, no row.
                Select::Count => {
                    b[1..] == [vec![(a.len() - 1).to_string()]] || a.len() + b.len() == 2
                }
                _ => unreachable!("{select:?} is not compared projected"),
            }
        }
    }
}

/// Same rows in any order, the sums in column `col` within the
/// reference's tolerance (`reference::SUM_TOLERANCE`).
pub fn same_sums(a: &Rows, b: &Rows, col: usize) -> bool {
    let (a, b) = (canonical(a), canonical(b));
    let same = |(i, (x, y)): (usize, (&String, &String))| {
        x == y || (i == col && reference::sums_agree(x, y))
    };
    a.len() == b.len()
        && (a.iter().zip(&b))
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).enumerate().all(same))
}

impl Select {
    /// Whether a pruned answer can be checked against the all-variables
    /// answer projected (aggregates over groups are not recomputed here).
    pub fn projects(&self) -> bool {
        matches!(self, Select::Vars(_) | Select::Distinct(_) | Select::Count)
    }

    /// The column a SUM fills.
    pub fn sum_col(&self) -> Option<usize> {
        match self {
            Select::Group(..) => Some(4),
            Select::Product(..) => Some(0),
            _ => None,
        }
    }
}

pub struct Mismatch {
    pub query: usize,
    pub mode: Mode,
    pub cells: [Cell; 2],
    pub rows: [Rows; 2],
}

/// `b` must agree with `a` (`mode`) in query `query`, whose answer is
/// pruned to `select`.
pub fn compare(
    mode: Mode,
    select: &Select,
    query: usize,
    a: &(Cell, Rows),
    b: &(Cell, Rows),
) -> Result<(), Box<Mismatch>> {
    match agree(mode, select, &a.1, &b.1) {
        true => Ok(()),
        false => Err(Box::new(Mismatch {
            query,
            mode,
            cells: [a.0.clone(), b.0.clone()],
            rows: [a.1.clone(), b.1.clone()],
        })),
    }
}

/// What query `query` (`q`) must satisfy in one store, given its reference
/// answers (all variables, pruned). Returns the number of comparisons made.
pub fn check(
    answers: &[(Cell, Rows)],
    references: &[Rows],
    query: usize,
    q: &Query,
) -> Result<usize, Box<Mismatch>> {
    let mut n = 0;
    for answer in answers {
        let c = &answer.0;
        let mut against = |mode, other: &(Cell, Rows)| {
            n += 1;
            compare(mode, &select_in(q, c.pruned), query, other, answer)
        };
        let twin = |o: Cell| answers.iter().find(|(x, _)| *x == o).unwrap();
        if c.exec == Exec::Three {
            against(
                Mode::Bytes,
                twin(Cell {
                    exec: Exec::One,
                    ..c.clone()
                }),
            )?;
            continue;
        }
        if c.pruned && !c.facade() && select_of(q).projects() {
            against(
                Mode::Projected,
                twin(Cell {
                    pruned: false,
                    ..c.clone()
                }),
            )?;
        }
        let reference = (
            Cell::reference(q, c.history, c.pruned),
            references[c.pruned as usize].clone(),
        );
        against(Mode::Canonical, &reference)?;
    }
    Ok(n)
}

pub fn select_of(q: &Query) -> Select {
    match q {
        Query::Bgp(b) => b.select.clone(),
        Query::Text(_) => Select::All,
    }
}

/// What an answer of `q` selects: its select list when `pruned`.
pub fn select_in(q: &Query, pruned: bool) -> Select {
    match pruned {
        true => select_of(q),
        false => Select::All,
    }
}

/// Run `input` in every cell; on a disagreement, shrink it and panic with
/// the printed case. Returns the number of answer comparisons made.
pub fn run_matrix(input: &Input) -> usize {
    run_matrix_in(input, |_| true)
}

/// `run_matrix` over the stores (facade or engine, layout, history) whose
/// cell `wanted` keeps; every cell of a kept store runs.
pub fn run_matrix_in(input: &Input, wanted: impl Fn(&Cell) -> bool) -> usize {
    match run_cells(input, &wanted) {
        Ok(n) => n,
        Err(m) => panic!("{}", shrink(input, &m)),
    }
}

pub fn base_cell(facade: bool, layout: Layout, history: History) -> Cell {
    let source = match facade {
        true => Source::Facade,
        false => Source::Engine,
    };
    Cell {
        source,
        layout,
        history,
        ..Cell::fresh(History::None, false)
    }
}

/// The reference answers of every query of `input` after `history` (all
/// variables, then pruned), and the number of comparisons that vouch for
/// them. A generated query's is the term-level reference's, which the
/// fresh bulk load's answer must equal canonically; a catalog query's is
/// the fresh bulk load's.
pub fn references(
    input: &Input,
    history: History,
) -> Result<(Vec<Vec<Rows>>, usize), Box<Mismatch>> {
    let h = history.logical();
    let triples = input.logical(h);
    let (fresh, graph) = (rig(&triples, &[]), reference::Graph::new(&triples));
    let store = Store::Engine {
        rig: &fresh,
        layout: Layout::Baseline,
        delta: None,
    };
    let (mut out, mut n) = (Vec::new(), 0);
    for (qi, q) in input.queries.iter().enumerate() {
        let mut of_query = Vec::new();
        for pruned in [false, true] {
            let only = Cell::fresh(h, pruned);
            let Some(answer) = answers(&store, q, &only, Some(&only)).pop() else {
                continue;
            };
            of_query.push(match q {
                Query::Text(_) => answer.1,
                Query::Bgp(b) => {
                    let select = select_in(q, pruned);
                    let terms = (Cell::reference(q, h, pruned), graph.answer(b, &select));
                    compare(Mode::Canonical, &select, qi, &terms, &answer)?;
                    n += 1;
                    terms.1
                }
            });
        }
        out.push(of_query);
    }
    Ok((out, n))
}

/// `references`' answers; on a disagreement, the shrunk case in a panic.
pub fn reference_answers(input: &Input, history: History) -> Vec<Vec<Rows>> {
    match references(input, history) {
        Ok((answers, _)) => answers,
        Err(m) => panic!("{}", shrink(input, &m)),
    }
}

pub fn run_cells(input: &Input, wanted: &dyn Fn(&Cell) -> bool) -> Result<usize, Box<Mismatch>> {
    let histories = [
        History::None,
        History::Inserts,
        History::Tombstones,
        History::Both,
    ];
    let facade_histories = [
        History::Both,
        History::Snapshot,
        History::Reorganized,
        History::Reopened,
    ];
    let mut n = 0;
    let stores: Vec<Cell> = LAYOUTS
        .iter()
        .flat_map(|&l| histories.map(|h| base_cell(false, l, h)))
        .chain(
            LAYOUTS
                .iter()
                .flat_map(|&l| facade_histories.map(|h| base_cell(true, l, h))),
        )
        .filter(|c| wanted(c))
        .collect();
    let references = histories
        .into_iter()
        .filter(|&h| stores.iter().any(|c| c.history.logical() == h))
        .map(|h| {
            let (answers, k) = references(input, h)?;
            n += k;
            Ok((h, answers))
        })
        .collect::<Result<Vec<(History, Vec<Vec<Rows>>)>, Box<Mismatch>>>()?;
    let reference_of = |h: History| {
        &references
            .iter()
            .find(|(x, _)| *x == h.logical())
            .unwrap()
            .1
    };
    let queries = |store: &Store, cell: Cell| -> Result<usize, Box<Mismatch>> {
        if !stores.contains(&cell) {
            return Ok(0);
        }
        let mut n = 0;
        for (qi, q) in input.queries.iter().enumerate() {
            let got = answers(store, q, &cell, None);
            n += check(&got, &reference_of(cell.history)[qi], qi, q)?;
        }
        Ok(n)
    };
    // Jobs: an engine store per layout and history (all over one rig), and
    // a facade store per layout family (parse order, dense).
    let layouts: Vec<Layout> = LAYOUTS
        .into_iter()
        .filter(|&l| stores.iter().any(|c| !c.facade() && c.layout == l))
        .collect();
    let engine = (!layouts.is_empty()).then(|| rig(&input.base, &layouts));
    let family = |dense: bool| -> &'static [Layout] {
        if dense {
            &[Layout::Dense]
        } else {
            &[Layout::Baseline, Layout::Sparse]
        }
    };
    let mut jobs: Vec<(Option<Layout>, History, bool)> = layouts
        .iter()
        .flat_map(|&l| histories.map(|h| (Some(l), h, false)))
        .collect();
    for dense in [false, true] {
        if stores
            .iter()
            .any(|c| c.facade() && family(dense).contains(&c.layout))
        {
            jobs.push((None, History::Both, dense));
        }
    }
    let results = in_parallel(&jobs, |&(layout, h, dense)| {
        if let (Some(layout), Some(engine)) = (layout, &engine) {
            let store = Store::Engine {
                rig: engine,
                layout,
                delta: delta(engine.layer(layout).0, &input.writes, h),
            };
            return queries(&store, base_cell(false, layout, h));
        }
        let mut n = 0;
        let pending = facade(input, dense, History::Both);
        for &layout in family(dense) {
            for (h, at) in [
                (History::Both, None),
                (History::Snapshot, Some(pending.snap)),
            ] {
                let db = &pending.db;
                n += queries(
                    &Store::Facade { db, layout, at },
                    base_cell(true, layout, h),
                )?;
            }
        }
        // The pending writes come back from the log, then collapse.
        let f = pending.reopen(input);
        for h in [History::Reopened, History::Reorganized] {
            if h == History::Reorganized {
                f.reorganize(input);
            }
            for &layout in family(dense) {
                let db = &f.db;
                n += queries(
                    &Store::Facade {
                        db,
                        layout,
                        at: None,
                    },
                    base_cell(true, layout, h),
                )?;
            }
        }
        Ok(n)
    });
    Ok(n + results.into_iter().sum::<Result<usize, _>>()?)
}

/// `f` of every job, on as many threads as the host has cores; the results
/// in job order. A panic in `f` fails the caller with its message.
pub fn in_parallel<J: Sync, R: Send>(jobs: &[J], f: impl Fn(&J) -> R + Sync) -> Vec<R> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(jobs.len());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        match jobs.get(i) {
                            Some(job) => mine.push((i, f(job))),
                            None => break mine,
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

/// The answer of `input`'s only query on the baseline of a fresh bulk load
/// of its base triples (no writes): header, then rows.
pub fn fresh_answer(input: &Input) -> Rows {
    one_cell(input, &Cell::fresh(History::None, false))
}

// ---- shrinking ------------------------------------------------------------------

/// The answer of `input`'s only query in one cell, built from scratch.
pub fn one_cell(input: &Input, cell: &Cell) -> Rows {
    let q = &input.queries[0];
    let run = |store: &Store| {
        answers(store, q, cell, Some(cell))
            .pop()
            .map_or(vec![vec!["no such cell".into()]], |(_, r)| r)
    };
    match cell.source {
        Source::Terms => {
            let triples = input.logical(cell.history);
            let Query::Bgp(b) = q else {
                return vec![vec!["no such cell".into()]];
            };
            reference::Graph::new(&triples).answer(b, &select_in(q, cell.pruned))
        }
        Source::Facade => {
            let f = facade(input, cell.layout == Layout::Dense, cell.history);
            let at = (cell.history == History::Snapshot).then_some(f.snap);
            run(&Store::Facade {
                db: &f.db,
                layout: cell.layout,
                at,
            })
        }
        Source::Fresh => {
            let fresh = rig(&input.logical(cell.history), &[]);
            run(&Store::Engine {
                rig: &fresh,
                layout: Layout::Baseline,
                delta: None,
            })
        }
        Source::Engine => {
            let engine = rig(&input.base, &[cell.layout]);
            let d = delta(engine.layer(cell.layout).0, &input.writes, cell.history);
            run(&Store::Engine {
                rig: &engine,
                layout: cell.layout,
                delta: d,
            })
        }
    }
}

/// The two cells of `m` still disagree on `input`: their answers. (The
/// second cell is the pruned one of a projected comparison.)
pub fn still_fails(input: &Input, m: &Mismatch) -> Option<[Rows; 2]> {
    let rows = [one_cell(input, &m.cells[0]), one_cell(input, &m.cells[1])];
    let select = select_in(&input.queries[0], m.cells[1].pruned);
    (!agree(m.mode, &select, &rows[0], &rows[1])).then_some(rows)
}

/// Shrink the failing case of `m` and print it with both answers.
pub fn shrink(input: &Input, m: &Mismatch) -> String {
    let mut best = Input {
        queries: vec![input.queries[m.query].clone()],
        ..input.clone()
    };
    let mut rows = m.rows.clone();
    // Each attempt rebuilds the stores; two minutes bound the whole walk.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let attempt = |candidate: Input, best: &mut Input, rows: &mut [Rows; 2]| -> bool {
        if std::time::Instant::now() > deadline {
            return false;
        }
        match still_fails(&candidate, m) {
            Some(r) => {
                *best = candidate;
                *rows = r;
                true
            }
            None => false,
        }
    };
    fn list(c: &mut Input, i: usize) -> &mut Vec<TermTriple> {
        match i {
            0 => &mut c.base,
            1 => &mut c.writes.inserts,
            2 => &mut c.writes.deletes,
            _ => &mut c.writes.reinserts,
        }
    }
    // Triples: the whole list, then halves, quarters, … of it.
    for i in 0..4 {
        let mut chunk = list(&mut best, i).len();
        while chunk > 0 {
            let mut at = 0;
            while at < list(&mut best, i).len() {
                let mut c = best.clone();
                let ts = list(&mut c, i);
                let end = (at + chunk).min(ts.len());
                ts.drain(at..end);
                c.normalize_writes();
                if !attempt(c, &mut best, &mut rows) {
                    at = end;
                }
            }
            chunk /= 2;
        }
    }
    // Patterns, then filters.
    for filters in [false, true] {
        let mut i = 0;
        while let Query::Bgp(b) = &best.queries[0] {
            let mut b = b.clone();
            let list_len = if filters {
                b.filters.len()
            } else {
                b.patterns.len()
            };
            if i >= list_len || (!filters && list_len == 1) {
                break;
            }
            if filters {
                b.filters.remove(i);
            } else {
                b.patterns.remove(i);
            }
            let c = Input {
                queries: vec![Query::Bgp(b.repair())],
                ..best.clone()
            };
            if !attempt(c, &mut best, &mut rows) {
                i += 1;
            }
        }
    }
    let mut out = format!(
        "matrix: {} (seed {}) disagrees — {:?} comparison\n  {:?}\n  {:?}\n---- case: save as tests/matrix_cases/<name>.case to rerun\n{}",
        input.name,
        input.seed,
        m.mode,
        m.cells[0],
        m.cells[1],
        best.print()
    );
    for (cell, r) in m.cells.iter().zip(&rows) {
        let _ = writeln!(out, "---- {cell:?}: {} rows", r.len().saturating_sub(1));
        for row in r.iter().take(25) {
            let _ = writeln!(out, "  {}", row.join(" | "));
        }
    }
    out
}

/// Random graphs of `seeds`, each with generated writes and `n_queries`
/// generated queries of `shape`, in every cell. Returns the number of
/// answer comparisons made.
pub fn random_graphs(
    seeds: std::ops::Range<u64>,
    n_queries: usize,
    shape: impl Fn(&Bgp) -> bool,
) -> usize {
    seeds
        .map(|seed| {
            let base = random_graph(&mut StdRng::seed_from_u64(seed));
            let w = Writes::default();
            run_matrix(&shaped_input(
                "random graph",
                seed,
                base,
                w,
                Vec::new(),
                n_queries,
                &shape,
            ))
        })
        .sum()
}

/// RDF-H at sf 0.0001 (seed 3) with its catalog and a four-property
/// lineitem star, generated writes and two generated queries. Every catalog
/// query finds rows in the base, so no catalog comparison passes on two
/// empty answers.
pub fn rdfh() -> Input {
    // Seed 3: at this scale the default seed's Q3 finds no order.
    let config = sordf_rdfh::RdfhConfig {
        sf: 0.0001,
        seed: 3,
    };
    let data = sordf_rdfh::generate(&config).triples;
    let mut catalog: Vec<Query> = sordf_rdfh::ALL_QUERIES
        .iter()
        .map(|&q| Query::Text(sordf_rdfh::query(q).into()))
        .collect();
    catalog.push(Query::Text(format!(
        "PREFIX r: <{}> SELECT ?s WHERE {{ ?s r:lineitem_quantity ?a . ?s r:lineitem_extendedprice ?b . \
         ?s r:lineitem_discount ?c . ?s r:lineitem_tax ?d }}",
        sordf_rdfh::gen::NS
    )));
    let base = Input::new("rdfh catalog", 1, data.clone(), Writes::default());
    let catalog_input = Input {
        queries: catalog.clone(),
        ..base
    };
    let answers = reference_answers(&catalog_input, History::None);
    for (q, rows) in catalog.iter().zip(&answers) {
        assert!(rows[0].len() > 1, "returns nothing at sf 0.0001: {q:?}");
    }
    input("rdfh sf 0.0001", 1, data, Writes::default(), catalog, 2)
}

/// Items over two zone-map pages and parts interleaved with them in load
/// order; `sold` ascends with the index (the dense sort key), `batch` /
/// `weight` with it, and a few items lack `sold`. Part 100 carries a second
/// `weight` its page's zone map excludes; the fixed writes add a `size` to
/// part 3, so a star restricted on `size` first must leave that exception
/// to `weight` (the first zone-map wrong answer), fill a `sold` NULL on the
/// last page, tombstone and refill page-edge rows, and add new items.
pub fn pages() -> Input {
    const N_ITEM: usize = PAGE + 400;
    const N_PART: usize = 400;
    let (item, part) = (
        |i: usize| e(format!("item{i}")),
        |i: usize| e(format!("part{i}")),
    );
    let item_triples = |i: usize| {
        let d = i % N_ITEM * 1000 / N_ITEM;
        let mut t = vec![
            triple(item(i), "qty", Term::int((i % 50) as i64)),
            triple(item(i), "batch", Term::int((d / 10) as i64)),
            triple(item(i), "ofpart", part(i * 13 % N_PART)),
        ];
        if i % 997 != 500 {
            t.push(triple(item(i), "sold", Term::date(&day(d))));
        }
        t
    };
    let part_triples = |i: usize| {
        let d = i * 1000 / N_PART;
        vec![
            triple(part(i), "sold", Term::date(&day(d))),
            triple(part(i), "weight", Term::int((d / 10) as i64)),
            triple(part(i), "size", Term::int((i % 20) as i64)),
        ]
    };
    let mut base = vec![triple(part(100), "weight", Term::int(205))];
    for i in 0..N_ITEM {
        base.extend(item_triples(i));
        if i < N_PART {
            base.extend(part_triples(i));
        }
    }
    let qty = |i: usize, v: i64| triple(item(i), "qty", Term::int(v));
    let mut w = Writes {
        inserts: vec![
            triple(part(3), "size", Term::int(19)),
            qty(PAGE / 2, 12),
            qty(PAGE, 11),
            triple(item(8476), "sold", Term::date("1991-03-01")),
        ],
        deletes: [0, N_ITEM - 1]
            .into_iter()
            .flat_map(item_triples)
            .chain(part_triples(17))
            .collect(),
        reinserts: Vec::new(),
    };
    for i in [PAGE - 1, PAGE, PAGE + 1, PAGE + PAGE / 2] {
        w.deletes.push(qty(i, (i % 50) as i64));
    }
    w.reinserts
        .push(qty(PAGE + PAGE / 2, ((PAGE + PAGE / 2) % 50) as i64));
    w.inserts
        .extend((N_ITEM..N_ITEM + 40).flat_map(item_triples));
    let q = |body: &str| Query::Text(format!("PREFIX e: <{NS}> {body}"));
    let catalog = vec![
        q(
            r#"SELECT ?s ?d ?q WHERE { ?s e:sold ?d . ?s e:qty ?q . FILTER(?d >= "1991-02-01"^^xsd:date && ?d < "1991-04-01"^^xsd:date) }"#,
        ),
        q(
            r#"SELECT ?s ?b ?q WHERE { ?s e:batch ?b . ?s e:qty ?q . FILTER(?b >= "40"^^xsd:integer && ?b <= "42"^^xsd:integer && ?q >= "10"^^xsd:integer) }"#,
        ),
        q(
            r#"SELECT ?s ?z ?w WHERE { ?s e:size ?z . ?s e:weight ?w . FILTER(?z >= "0"^^xsd:integer && ?z <= "19"^^xsd:integer && ?w >= "200"^^xsd:integer && ?w <= "210"^^xsd:integer) }"#,
        ),
        q(
            r#"SELECT ?i ?q ?p ?z WHERE { ?i e:qty ?q . ?i e:ofpart ?p . ?p e:weight ?w . ?p e:size ?z . FILTER(?w = "41"^^xsd:integer) }"#,
        ),
    ];
    input("pages", 3, base, w, catalog, 1)
}

// ---- checks that are not about the answer ----------------------------------------

/// One traced run of `text` (prefix `e:` declared).
pub fn traced(db: &Database, generation: Generation, zonemaps: bool, text: &str) -> QueryResponse {
    let req = QueryRequest::sparql(format!("PREFIX e: <{NS}> {text}"))
        .generation(generation)
        .config(ExecConfig {
            zonemaps,
            ..Default::default()
        })
        .traced(true);
    db.execute(&req).unwrap()
}
