//! Expressions, predicates and aggregate functions — and the engine's one
//! expression evaluator, in two forms.
//!
//! [`Expr::eval`] is the *definition*: one row of bound OIDs in, one
//! [`EvalValue`] out. Comparisons prefer raw OID order (valid for inlined
//! literals and, after clustering, for sorted string pools); ordered
//! comparisons on *unsorted* string OIDs fall back to dictionary decoding, so
//! results stay correct on ParseOrder storage too. It runs where rows are
//! handled one at a time anyway: the dirty rows of a star scan.
//!
//! [`Expr::eval_batch`] is what everything after RDFscan runs — residual
//! filters over the rows a clean run emitted, the cross-star filters at the
//! tail of a plan, aggregate arguments and projected expressions in
//! `finalize`. It evaluates an expression over a chunk of at most
//! [`BATCH_ROWS`] rows of a binding table into one typed [`Col`], a loop per
//! operator instead of a tree walk per row, with exactly the scalar
//! semantics: a `NaN` is an evaluation error, comparisons with NULL are
//! false, cross-type numerics compare through `f64`, strings compare by text
//! unless the context's string pool is value-ordered (where OID order *is*
//! text order). The `batch_equals_scalar` proptest holds the two together.

use crate::context::ExecContext;
use crate::table::VarId;
use sordf_model::{Dictionary, Oid, TypeTag};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Rows per chunk of the batch evaluator (and of the consumers that drive it:
/// filters, grouping, projection). A constant, not an option: 2 K rows make
/// an `f64` or OID scratch column 16 KiB, so an expression's handful of live
/// columns stay cache-resident while the per-chunk overhead (a tree walk, a
/// few scratch pops) is amortized over thousands of rows. Results do not
/// depend on it, so there is nothing for a caller to choose.
pub const BATCH_ROWS: usize = 2048;

/// `rows` cut into consecutive chunks of at most [`BATCH_ROWS`].
pub(crate) fn batches(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let end = rows.end;
    rows.step_by(BATCH_ROWS)
        .map(move |start| start..end.min(start + BATCH_ROWS))
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

/// Arithmetic operators (numeric domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// A scalar expression over query variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Var(VarId),
    /// A constant term (dictionary-encoded at parse time).
    Const(Oid),
    /// A raw numeric constant (for arithmetic like `1 - ?discount`).
    Num(f64),
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// Set membership over a **sorted** OID list (binary search per row).
    /// The SQL compiler uses this to admit delta-routed subjects past a
    /// class segment's dense-range restriction.
    InSet(Box<Expr>, Arc<Vec<Oid>>),
    /// Raw OID range membership, bounds included: `lo <= e <= hi` as OIDs,
    /// not as SPARQL values (IRIs have no SPARQL order). The SQL compiler
    /// restricts a table's subject variable to its class segment's dense
    /// subject range with it.
    InRange(Box<Expr>, Oid, Oid),
}

/// Runtime value of an expression.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalValue {
    Oid(Oid),
    Num(f64),
    Bool(bool),
}

impl EvalValue {
    /// Numeric view (inlined numerics decode; booleans are 0/1).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            EvalValue::Num(n) => Some(*n),
            EvalValue::Oid(o) => o.numeric_f64(),
            EvalValue::Bool(b) => Some(*b as i64 as f64),
        }
    }

    pub fn as_bool(&self) -> bool {
        match self {
            EvalValue::Bool(b) => *b,
            EvalValue::Num(n) => *n != 0.0,
            EvalValue::Oid(_) => true,
        }
    }
}

impl Expr {
    /// Convenience constructors.
    pub fn var(v: VarId) -> Expr {
        Expr::Var(v)
    }

    pub fn cmp(l: Expr, op: CmpOp, r: Expr) -> Expr {
        Expr::Cmp(Box::new(l), op, Box::new(r))
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::And(Box::new(l), Box::new(r))
    }

    /// All variables referenced by the expression.
    pub fn vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Const(_) | Expr::Num(_) => {}
            Expr::Cmp(l, _, r) | Expr::Arith(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
                l.vars(out);
                r.vars(out);
            }
            Expr::Not(e) | Expr::InSet(e, _) | Expr::InRange(e, ..) => e.vars(out),
        }
    }

    /// Split a conjunction into its conjuncts (`a && b && c` → `[a, b, c]`).
    /// The planner flattens filters this way so that every `var OP const`
    /// conjunct is visible to pushdown and to the enforced-filter check.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// If this expression is `var OP const` (or mirrored), return the
    /// normalized triple — the planner uses this for filter pushdown.
    pub fn as_var_cmp(&self) -> Option<(VarId, CmpOp, Oid)> {
        let Expr::Cmp(l, op, r) = self else {
            return None;
        };
        match (l.as_ref(), r.as_ref()) {
            (Expr::Var(v), Expr::Const(c)) => Some((*v, *op, *c)),
            (Expr::Const(c), Expr::Var(v)) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                Some((*v, flipped, *c))
            }
            _ => None,
        }
    }

    /// Evaluate against a row. `lookup` maps a variable to its bound OID.
    pub fn eval(&self, lookup: &impl Fn(VarId) -> Oid, dict: &Dictionary) -> EvalValue {
        match self {
            Expr::Var(v) => EvalValue::Oid(lookup(*v)),
            Expr::Const(c) => EvalValue::Oid(*c),
            Expr::Num(n) => EvalValue::Num(*n),
            Expr::Cmp(l, op, r) => {
                let lv = l.eval(lookup, dict);
                let rv = r.eval(lookup, dict);
                EvalValue::Bool(holds(&lv, *op, &rv, dict))
            }
            Expr::Arith(l, op, r) => {
                let (Some(a), Some(b)) =
                    (l.eval(lookup, dict).as_num(), r.eval(lookup, dict).as_num())
                else {
                    return EvalValue::Num(f64::NAN);
                };
                EvalValue::Num(match op {
                    ArithOp::Add => a + b,
                    ArithOp::Sub => a - b,
                    ArithOp::Mul => a * b,
                    ArithOp::Div => a / b,
                })
            }
            Expr::And(l, r) => {
                EvalValue::Bool(l.eval(lookup, dict).as_bool() && r.eval(lookup, dict).as_bool())
            }
            Expr::Or(l, r) => {
                EvalValue::Bool(l.eval(lookup, dict).as_bool() || r.eval(lookup, dict).as_bool())
            }
            Expr::Not(e) => EvalValue::Bool(!e.eval(lookup, dict).as_bool()),
            Expr::InSet(e, set) => match e.eval(lookup, dict) {
                EvalValue::Oid(o) => EvalValue::Bool(set.binary_search(&o).is_ok()),
                _ => EvalValue::Bool(false),
            },
            Expr::InRange(e, lo, hi) => match e.eval(lookup, dict) {
                EvalValue::Oid(o) => EvalValue::Bool((lo..=hi).contains(&&o)),
                _ => EvalValue::Bool(false),
            },
        }
    }

    /// If this expression is `var IN [lo, hi]` ([`Expr::InRange`]), return
    /// the variable and the raw bounds.
    pub fn as_var_range(&self) -> Option<(VarId, Oid, Oid)> {
        match self {
            Expr::InRange(e, lo, hi) => match **e {
                Expr::Var(v) => Some((v, *lo, *hi)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One chunk of evaluated values ([`Expr::eval_batch`]): a column with one
/// entry per row of the chunk, or one value standing for every row.
#[derive(Debug)]
pub enum Col<'t> {
    /// Term OIDs — always a slice of the binding table itself, never a copy.
    Oid(&'t [Oid]),
    /// Computed numbers; `NaN` marks an evaluation error.
    Num(Vec<f64>),
    Bool(Vec<bool>),
    /// A broadcast constant (a literal, a folded constant subtree, or NULL
    /// for a variable the table does not bind).
    Const(EvalValue),
}

/// One operand of a binary kernel: a column of the chunk or a constant.
#[derive(Clone, Copy)]
enum Operand<'a, T> {
    Col(&'a [T]),
    Const(T),
}

/// `out = [f(a[i], b[i]); n]`, one tight loop per operand shape.
fn zip_map<A: Copy, B: Copy, T: Clone>(
    a: Operand<A>,
    b: Operand<B>,
    n: usize,
    out: &mut Vec<T>,
    f: impl Fn(A, B) -> T,
) {
    out.clear();
    match (a, b) {
        (Operand::Col(a), Operand::Col(b)) => out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y))),
        (Operand::Col(a), Operand::Const(y)) => out.extend(a.iter().map(|&x| f(x, y))),
        (Operand::Const(x), Operand::Col(b)) => out.extend(b.iter().map(|&y| f(x, y))),
        (Operand::Const(x), Operand::Const(y)) => out.resize(n, f(x, y)),
    }
}

/// A chunk in its numeric view ([`EvalValue::as_num`], `NaN` for "none").
enum Nums {
    Col(Vec<f64>),
    Const(f64),
}

impl Nums {
    fn operand(&self) -> Operand<'_, f64> {
        match self {
            Nums::Col(v) => Operand::Col(v),
            Nums::Const(x) => Operand::Const(*x),
        }
    }
}

/// A chunk in its boolean view ([`EvalValue::as_bool`]).
enum Bools {
    Col(Vec<bool>),
    Const(bool),
}

/// The state [`Expr::eval_batch`] needs besides the rows: where each variable
/// lives in the binding table, how strings compare, and scratch columns
/// reused from chunk to chunk (a finished [`Col`] goes back through
/// [`recycle`](Self::recycle)). One per table layout and thread; cheap to
/// build, so a morsel or a `finalize` span makes its own.
pub struct BatchEval<'d> {
    /// Dense `VarId` → column map, resolved once — not per row and variable.
    var_col: Vec<Option<usize>>,
    order: TermOrder<'d>,
    nums: Vec<Vec<f64>>,
    bools: Vec<Vec<bool>>,
}

impl<'d> BatchEval<'d> {
    /// An evaluator over binding tables laid out as `vars`.
    pub fn new(cx: &ExecContext<'d>, vars: &[VarId]) -> BatchEval<'d> {
        BatchEval::with(TermOrder::of(cx), vars)
    }

    /// As [`new`](Self::new), from the one thing it reads off the context.
    pub(crate) fn with(order: TermOrder<'d>, vars: &[VarId]) -> BatchEval<'d> {
        let n_ids = vars.iter().map(|v| v.0 as usize + 1).max().unwrap_or(0);
        let mut var_col = vec![None; n_ids];
        for (c, v) in vars.iter().enumerate() {
            var_col[v.0 as usize] = Some(c);
        }
        BatchEval {
            var_col,
            order,
            nums: Vec::new(),
            bools: Vec::new(),
        }
    }

    /// How this evaluator's comparisons order terms.
    pub fn order(&self) -> TermOrder<'d> {
        self.order
    }

    /// The table column binding `v`, if any.
    pub fn col_of(&self, v: VarId) -> Option<usize> {
        self.var_col.get(v.0 as usize).copied().flatten()
    }

    /// Hand a finished column's buffer back for the next chunk.
    pub fn recycle(&mut self, col: Col) {
        match col {
            Col::Num(v) => self.nums.push(v),
            Col::Bool(v) => self.bools.push(v),
            Col::Oid(_) | Col::Const(_) => {}
        }
    }

    fn take_nums(&mut self) -> Vec<f64> {
        let mut v = self.nums.pop().unwrap_or_default();
        v.clear();
        v
    }

    fn take_bools(&mut self) -> Vec<bool> {
        let mut v = self.bools.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// `mask[i] = every filter holds on row rows.start + i` — the conjunction
    /// [`Expr::eval`]`.as_bool()` computes filter by filter, row by row.
    pub fn filter_mask(
        &mut self,
        filters: &[&Expr],
        cols: &[Vec<Oid>],
        rows: Range<usize>,
        mask: &mut Vec<bool>,
    ) {
        mask.clear();
        mask.resize(rows.len(), true);
        for f in filters {
            let col = f.eval_batch(self, cols, rows.clone());
            match self.bools_of(col) {
                Bools::Const(true) => {}
                Bools::Const(false) => {
                    mask.fill(false);
                    return;
                }
                Bools::Col(v) => {
                    for (m, &k) in mask.iter_mut().zip(&v) {
                        *m &= k;
                    }
                    self.bools.push(v);
                }
            }
        }
    }

    fn nums_of(&mut self, col: Col) -> Nums {
        match col {
            Col::Num(v) => Nums::Col(v),
            Col::Oid(s) => {
                let mut v = self.take_nums();
                v.extend(s.iter().map(|o| o.numeric_f64().unwrap_or(f64::NAN)));
                Nums::Col(v)
            }
            Col::Bool(b) => {
                let mut v = self.take_nums();
                v.extend(b.iter().map(|&b| b as i64 as f64));
                self.bools.push(b);
                Nums::Col(v)
            }
            Col::Const(e) => Nums::Const(e.as_num().unwrap_or(f64::NAN)),
        }
    }

    fn bools_of(&mut self, col: Col) -> Bools {
        match col {
            Col::Bool(v) => Bools::Col(v),
            Col::Num(v) => {
                let mut b = self.take_bools();
                b.extend(v.iter().map(|&x| x != 0.0));
                self.nums.push(v);
                Bools::Col(b)
            }
            Col::Oid(_) => Bools::Const(true),
            Col::Const(e) => Bools::Const(e.as_bool()),
        }
    }

    /// `l OP r` over the numeric views; an operand that has none (`NaN`)
    /// makes the row's result `NaN`, as in [`Expr::eval`].
    fn arith(&mut self, l: Col, r: Col, f: impl Fn(f64, f64) -> f64) -> Col<'static> {
        match (self.nums_of(l), self.nums_of(r)) {
            (Nums::Const(a), Nums::Const(b)) => Col::Const(EvalValue::Num(f(a, b))),
            (Nums::Col(mut a), Nums::Const(b)) => {
                a.iter_mut().for_each(|x| *x = f(*x, b));
                Col::Num(a)
            }
            (Nums::Const(a), Nums::Col(mut b)) => {
                b.iter_mut().for_each(|y| *y = f(a, *y));
                Col::Num(b)
            }
            (Nums::Col(mut a), Nums::Col(b)) => {
                a.iter_mut().zip(&b).for_each(|(x, &y)| *x = f(*x, y));
                self.nums.push(b);
                Col::Num(a)
            }
        }
    }

    /// [`TermOrder::compare`] then `op`, over a chunk: two term columns compare as
    /// OIDs, anything else through the numeric views (where `NaN` — no
    /// numeric value — fails every operator, `!=` included).
    // `x < y || x > y` is *not* `x != y`: the latter holds for a `NaN`.
    #[allow(clippy::double_comparisons)]
    fn cmp(&mut self, l: Col, op: CmpOp, r: Col, n: usize) -> Col<'static> {
        fn terms<'a>(c: &Col<'a>) -> Option<Operand<'a, Oid>> {
            match c {
                Col::Oid(s) => Some(Operand::Col(s)),
                Col::Const(EvalValue::Oid(o)) => Some(Operand::Const(*o)),
                _ => None,
            }
        }
        if let (Some(a), Some(b)) = (terms(&l), terms(&r)) {
            let order = self.order;
            let holds = |x: Oid, y: Oid| order.holds(x, op, y);
            if let (Operand::Const(x), Operand::Const(y)) = (a, b) {
                return Col::Const(EvalValue::Bool(holds(x, y)));
            }
            let mut out = self.take_bools();
            zip_map(a, b, n, &mut out, holds);
            return Col::Bool(out);
        }
        let (a, b) = (self.nums_of(l), self.nums_of(r));
        if let (Nums::Const(x), Nums::Const(y)) = (&a, &b) {
            let holds = x.partial_cmp(y).is_some_and(|o| op.eval(o));
            return Col::Const(EvalValue::Bool(holds));
        }
        let mut out = self.take_bools();
        let (x, y) = (a.operand(), b.operand());
        // One loop per operator, so each stays a bare compare.
        match op {
            CmpOp::Eq => zip_map(x, y, n, &mut out, |x, y| x == y),
            CmpOp::Ne => zip_map(x, y, n, &mut out, |x, y| x < y || x > y),
            CmpOp::Lt => zip_map(x, y, n, &mut out, |x, y| x < y),
            CmpOp::Le => zip_map(x, y, n, &mut out, |x, y| x <= y),
            CmpOp::Gt => zip_map(x, y, n, &mut out, |x, y| x > y),
            CmpOp::Ge => zip_map(x, y, n, &mut out, |x, y| x >= y),
        }
        for side in [a, b] {
            if let Nums::Col(v) = side {
                self.nums.push(v);
            }
        }
        Col::Bool(out)
    }

    /// `l && r` (`and`) or `l || r` over the boolean views. Both sides are
    /// always evaluated: expressions have no effects, so that is the
    /// short-circuit result.
    fn logic(&mut self, l: Col, r: Col, and: bool) -> Col<'static> {
        match (self.bools_of(l), self.bools_of(r)) {
            (Bools::Const(a), Bools::Const(b)) => {
                Col::Const(EvalValue::Bool(if and { a && b } else { a || b }))
            }
            (Bools::Const(c), Bools::Col(v)) | (Bools::Col(v), Bools::Const(c)) => {
                // `true && v`, `false || v` are `v`; the other constant decides.
                if c == and {
                    Col::Bool(v)
                } else {
                    self.bools.push(v);
                    Col::Const(EvalValue::Bool(c))
                }
            }
            (Bools::Col(mut a), Bools::Col(b)) => {
                if and {
                    a.iter_mut().zip(&b).for_each(|(x, &y)| *x &= y);
                } else {
                    a.iter_mut().zip(&b).for_each(|(x, &y)| *x |= y);
                }
                self.bools.push(b);
                Col::Bool(a)
            }
        }
    }
}

impl Expr {
    /// Evaluate over rows `rows` of a binding table's columns `cols` (laid
    /// out as the variables `ev` was built for; at most [`BATCH_ROWS`] rows
    /// keep the scratch cache-resident): entry `i` of the result is
    /// [`eval`](Self::eval) on row `rows.start + i`.
    pub fn eval_batch<'t>(
        &self,
        ev: &mut BatchEval,
        cols: &'t [Vec<Oid>],
        rows: Range<usize>,
    ) -> Col<'t> {
        let n = rows.len();
        match self {
            Expr::Var(v) => match ev.col_of(*v) {
                Some(c) => Col::Oid(&cols[c][rows]),
                None => Col::Const(EvalValue::Oid(Oid::NULL)),
            },
            Expr::Const(c) => Col::Const(EvalValue::Oid(*c)),
            Expr::Num(x) => Col::Const(EvalValue::Num(*x)),
            Expr::Cmp(l, op, r) => {
                let (l, r) = (
                    l.eval_batch(ev, cols, rows.clone()),
                    r.eval_batch(ev, cols, rows),
                );
                ev.cmp(l, *op, r, n)
            }
            Expr::Arith(l, op, r) => {
                let (l, r) = (
                    l.eval_batch(ev, cols, rows.clone()),
                    r.eval_batch(ev, cols, rows),
                );
                match op {
                    ArithOp::Add => ev.arith(l, r, |a, b| a + b),
                    ArithOp::Sub => ev.arith(l, r, |a, b| a - b),
                    ArithOp::Mul => ev.arith(l, r, |a, b| a * b),
                    ArithOp::Div => ev.arith(l, r, |a, b| a / b),
                }
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                let (l, r) = (
                    l.eval_batch(ev, cols, rows.clone()),
                    r.eval_batch(ev, cols, rows),
                );
                ev.logic(l, r, matches!(self, Expr::And(..)))
            }
            Expr::Not(e) => {
                let col = e.eval_batch(ev, cols, rows);
                match ev.bools_of(col) {
                    Bools::Const(b) => Col::Const(EvalValue::Bool(!b)),
                    Bools::Col(mut v) => {
                        v.iter_mut().for_each(|b| *b = !*b);
                        Col::Bool(v)
                    }
                }
            }
            Expr::InSet(e, set) => match e.eval_batch(ev, cols, rows) {
                Col::Oid(s) => {
                    let mut out = ev.take_bools();
                    out.extend(s.iter().map(|o| set.binary_search(o).is_ok()));
                    Col::Bool(out)
                }
                Col::Const(EvalValue::Oid(o)) => {
                    Col::Const(EvalValue::Bool(set.binary_search(&o).is_ok()))
                }
                other => {
                    ev.recycle(other);
                    Col::Const(EvalValue::Bool(false))
                }
            },
            Expr::InRange(e, lo, hi) => match e.eval_batch(ev, cols, rows) {
                Col::Oid(s) => {
                    let mut out = ev.take_bools();
                    out.extend(s.iter().map(|o| (lo..=hi).contains(&o)));
                    Col::Bool(out)
                }
                Col::Const(EvalValue::Oid(o)) => {
                    Col::Const(EvalValue::Bool((lo..=hi).contains(&&o)))
                }
                other => {
                    ev.recycle(other);
                    Col::Const(EvalValue::Bool(false))
                }
            },
        }
    }
}

/// Does `l op r` hold? Two terms compare by [`TermOrder::holds`]; anything
/// else through its numeric view, where a value without one fails every
/// operator.
pub fn holds(l: &EvalValue, op: CmpOp, r: &EvalValue, dict: &Dictionary) -> bool {
    match (l, r) {
        (EvalValue::Oid(a), EvalValue::Oid(b)) => TermOrder::by_text(dict).holds(*a, op, *b),
        (a, b) => match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).is_some_and(|o| op.eval(o)),
            _ => false,
        },
    }
}

/// How terms order, with one thing known about the dictionary — whether
/// string OID order *is* text order
/// ([`ExecContext::strings_value_ordered`]), which spares the two decodes of
/// a string comparison.
#[derive(Clone, Copy)]
pub struct TermOrder<'d> {
    dict: &'d Dictionary,
    strings_ordered: bool,
}

impl<'d> TermOrder<'d> {
    pub fn of(cx: &ExecContext<'d>) -> TermOrder<'d> {
        TermOrder {
            dict: cx.dict,
            strings_ordered: cx.strings_value_ordered(),
        }
    }

    /// Strings always compared by decoded text: right for any dictionary.
    pub fn by_text(dict: &'d Dictionary) -> TermOrder<'d> {
        TermOrder {
            dict,
            strings_ordered: false,
        }
    }

    pub(crate) fn dict(&self) -> &'d Dictionary {
        self.dict
    }

    /// Do string OIDs compare raw (their order is text order)?
    pub(crate) fn strings_ordered(&self) -> bool {
        self.strings_ordered
    }

    /// The order of SPARQL's `<`, `<=`, `>` and `>=` between two terms:
    /// literals of one type by value (strings by text), numbers across
    /// their types by value. `None` — a type error — where there is none:
    /// NULL, an IRI or a blank node (SPARQL does not order them), and
    /// literals of different types unless both are numbers (`"n/a" < 8`).
    #[inline]
    pub fn compare(&self, a: Oid, b: Oid) -> Option<Ordering> {
        if a.is_null() || b.is_null() {
            return None;
        }
        match (a.tag(), b.tag()) {
            (TypeTag::Iri | TypeTag::Blank, _) | (_, TypeTag::Iri | TypeTag::Blank) => None,
            (TypeTag::Str, TypeTag::Str) if !self.strings_ordered && a != b => {
                let (ta, tb) = (self.dict.decode(a).ok()?, self.dict.decode(b).ok()?);
                Some(ta.cmp(&tb))
            }
            (ta, tb) if ta == tb => Some(a.cmp(&b)),
            // Cross numeric types compare by value.
            _ => a.numeric_f64()?.partial_cmp(&b.numeric_f64()?),
        }
    }

    /// Does `a op b` hold? Where [`Self::compare`] orders the two, by that
    /// order (numbers equal by value across types); where it does not, `=`
    /// and `!=` are term equality and the ordered operators fail. NULL
    /// fails every operator.
    #[inline]
    pub fn holds(&self, a: Oid, op: CmpOp, b: Oid) -> bool {
        match self.compare(a, b) {
            Some(o) => op.eval(o),
            None if a.is_null() || b.is_null() => false,
            None => match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                _ => false,
            },
        }
    }

    /// The total order of ORDER BY, MIN and MAX: [`Self::compare`] where it
    /// orders the two, IRIs and blank nodes by their text, anything else by
    /// kind (the tag order). No part of it depends on how a layout numbers
    /// its terms.
    pub fn sort(&self, a: Oid, b: Oid) -> Ordering {
        self.compare(a, b)
            .or_else(|| self.dict.cmp_text(a, b))
            .unwrap_or(a.cmp(&b))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use sordf_model::Value;

    /// A dictionary plus a pool of terms of every kind the evaluator
    /// distinguishes: both numeric types, dates, booleans, IRIs, blanks,
    /// strings and NULL. `sorted` interns the strings in text order, so their
    /// OID order is text order (the clustered string pool); otherwise it is
    /// not ("pear" first).
    pub(crate) fn term_pool(sorted: bool) -> (Dictionary, Vec<Oid>) {
        let dict = Dictionary::new();
        let mut strings = ["pear", "apple", "zebra", "", "fig", "Apple"];
        if sorted {
            strings.sort_unstable();
        }
        let mut pool: Vec<Oid> = strings
            .iter()
            .map(|s| dict.encode_value(&Value::str(*s)).unwrap())
            .collect();
        let date = |s| Oid::from_date_days(sordf_model::date::parse_date(s).unwrap()).unwrap();
        pool.extend([-3, 0, 2, 5, 24].map(|v| Oid::from_int(v).unwrap()));
        pool.extend(
            [25_000, 50_000, 600, -12_500, 0].map(|v| Oid::from_decimal_unscaled(v).unwrap()),
        );
        pool.extend([date("1994-01-01"), date("1995-06-15"), date("1998-09-02")]);
        pool.extend([0, 777_600_000].map(|v| Oid::from_datetime_secs(v).unwrap()));
        pool.extend([Oid::from_bool(false), Oid::from_bool(true)]);
        pool.extend([
            Oid::iri(1),
            Oid::iri(7),
            Oid::blank(2),
            Oid::NULL,
            Oid::NULL,
        ]);
        (dict, pool)
    }

    /// A random expression over variables `0..n_vars` (the last of which the
    /// test tables leave unbound) and the pool's terms, driven by `codes`:
    /// every variant, constants on either side of a comparison.
    pub(crate) fn expr_from(
        codes: &mut impl Iterator<Item = u32>,
        pool: &[Oid],
        n_vars: u16,
        depth: u32,
    ) -> Expr {
        const NUMS: [f64; 7] = [-1.0, 0.0, 0.06, 1.0, 24.0, f64::NAN, f64::INFINITY];
        let mut next = || codes.next().unwrap_or(0) as usize;
        let c = next();
        if depth == 0 || c % 10 < 3 {
            let pick = next();
            return match c % 3 {
                0 => Expr::Var(VarId((pick % n_vars as usize) as u16)),
                1 => Expr::Const(pool[pick % pool.len()]),
                _ => Expr::Num(NUMS[pick % NUMS.len()]),
            };
        }
        let op = next();
        let mut sub = || Box::new(expr_from(codes, pool, n_vars, depth - 1));
        match c % 10 {
            3 | 4 => {
                const OPS: [CmpOp; 6] = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ];
                Expr::Cmp(sub(), OPS[op % 6], sub())
            }
            5 | 6 => {
                const OPS: [ArithOp; 4] = [ArithOp::Add, ArithOp::Sub, ArithOp::Mul, ArithOp::Div];
                Expr::Arith(sub(), OPS[op % 4], sub())
            }
            7 => Expr::And(sub(), sub()),
            8 if op % 2 == 0 => Expr::Or(sub(), sub()),
            8 => Expr::Not(sub()),
            _ if op % 2 == 0 => {
                let mut set: Vec<Oid> = pool.iter().copied().skip(op % 3).step_by(3).collect();
                set.sort_unstable();
                set.dedup();
                Expr::InSet(sub(), Arc::new(set))
            }
            _ => {
                let (x, y) = (pool[op % pool.len()], pool[op / 7 % pool.len()]);
                Expr::InRange(sub(), x.min(y), x.max(y))
            }
        }
    }

    /// Row `i` of a chunk — what [`Expr::eval`] returns for that row.
    fn value_at(col: &Col, i: usize) -> EvalValue {
        match col {
            Col::Oid(s) => EvalValue::Oid(s[i]),
            Col::Num(v) => EvalValue::Num(v[i]),
            Col::Bool(v) => EvalValue::Bool(v[i]),
            Col::Const(e) => e.clone(),
        }
    }

    /// Same value, `NaN`s alike.
    fn same_value(a: &EvalValue, b: &EvalValue) -> bool {
        match (a, b) {
            (EvalValue::Num(x), EvalValue::Num(y)) => {
                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The batch evaluator is the scalar one, row for row: random
        /// expressions over random tables of mixed-type terms, evaluated in
        /// random chunks, under both string orders.
        #[test]
        fn batch_equals_scalar(
            codes in proptest::collection::vec(0u32..1000, 1..48),
            cells in proptest::collection::vec(0usize..64, 0..240),
            cuts in proptest::collection::vec(0usize..80, 0..6),
            sorted in any::<bool>(),
        ) {
            let (dict, pool) = term_pool(sorted);
            const N_VARS: u16 = 4; // the table binds 0..3
            let expr = expr_from(&mut codes.iter().copied(), &pool, N_VARS, 4);
            let vars: Vec<VarId> = (0..N_VARS - 1).map(VarId).collect();
            let n = cells.len() / vars.len();
            let cols: Vec<Vec<Oid>> = (0..vars.len())
                .map(|c| (0..n).map(|i| pool[cells[i * vars.len() + c] % pool.len()]).collect())
                .collect();
            let lookup_at = |i: usize| {
                let cols = &cols;
                move |v: VarId| cols.get(v.0 as usize).map_or(Oid::NULL, |c| c[i])
            };

            let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
            bounds.extend([0, n]);
            bounds.sort_unstable();
            let order = TermOrder { dict: &dict, strings_ordered: sorted };
            let mut ev = BatchEval::with(order, &vars);
            for w in bounds.windows(2) {
                let col = expr.eval_batch(&mut ev, &cols, w[0]..w[1]);
                for i in w[0]..w[1] {
                    let (batch, scalar) = (value_at(&col, i - w[0]), expr.eval(&lookup_at(i), &dict));
                    prop_assert!(
                        same_value(&batch, &scalar),
                        "row {i} of {expr:?}: batch {batch:?}, scalar {scalar:?}"
                    );
                }
                ev.recycle(col);
            }

            // A filter mask is the conjunction of `as_bool`s.
            let mut mask = Vec::new();
            ev.filter_mask(&[&expr, &expr], &cols, 0..n, &mut mask);
            for (i, &keep) in mask.iter().enumerate() {
                prop_assert_eq!(keep, expr.eval(&lookup_at(i), &dict).as_bool());
            }
        }
    }

    fn dict_with(strings: &[&str]) -> Dictionary {
        let d = Dictionary::new();
        for s in strings {
            d.encode_value(&Value::str(*s)).unwrap();
        }
        d
    }

    #[test]
    fn numeric_comparison_and_arith() {
        let d = Dictionary::new();
        let lookup = |_: VarId| Oid::from_int(10).unwrap();
        let e = Expr::cmp(
            Expr::Arith(
                Box::new(Expr::Var(VarId(0))),
                ArithOp::Mul,
                Box::new(Expr::Num(2.0)),
            ),
            CmpOp::Eq,
            Expr::Num(20.0),
        );
        assert_eq!(e.eval(&lookup, &d), EvalValue::Bool(true));
    }

    #[test]
    fn string_comparison_uses_text_not_oid_order() {
        // "zebra" interned before "apple": OID order is wrong, text is right.
        let d = dict_with(&["zebra", "apple"]);
        let zebra = d.string_oid("zebra").unwrap();
        let apple = d.string_oid("apple").unwrap();
        assert!(zebra < apple, "parse order puts zebra first");
        let ord = TermOrder::by_text(&d).compare(apple, zebra);
        assert_eq!(ord, Some(Ordering::Less), "apple < zebra by text");
    }

    #[test]
    fn cross_type_numeric_comparison() {
        let d = Dictionary::new();
        let int2 = EvalValue::Oid(Oid::from_int(2).unwrap());
        let dec25 = EvalValue::Oid(Oid::from_decimal_unscaled(25_000).unwrap()); // 2.5
        assert!(holds(&int2, CmpOp::Lt, &dec25, &d));
        let dec2 = EvalValue::Oid(Oid::from_decimal_unscaled(20_000).unwrap());
        assert!(holds(&int2, CmpOp::Eq, &dec2, &d), "2 = 2.0");
    }

    /// Over every pair of the term pool: IRIs and blank nodes have no order
    /// (`<` and its kin are type errors, `=` and `!=` term equality), nor
    /// do a number and a literal that is not one; ORDER BY, MIN and MAX
    /// order IRIs by their text under any numbering, and are a total order.
    #[test]
    fn terms_without_an_order_fail_ordered_comparisons() {
        for sorted in [false, true] {
            let (dict, pool) = term_pool(sorted);
            let order = TermOrder {
                dict: &dict,
                strings_ordered: sorted,
            };
            for &a in &pool {
                for &b in &pool {
                    let (ta, tb) = (
                        (!a.is_null()).then(|| a.tag()),
                        (!b.is_null()).then(|| b.tag()),
                    );
                    let unordered = |t: Option<TypeTag>| {
                        matches!(t, None | Some(TypeTag::Iri | TypeTag::Blank))
                    };
                    let numeric = a.numeric_f64().is_some() && b.numeric_f64().is_some();
                    let no_order = unordered(ta) || unordered(tb) || (ta != tb && !numeric);
                    assert_eq!(order.compare(a, b).is_none(), no_order, "{a:?} {b:?}");
                    if no_order {
                        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                            assert!(!order.holds(a, op, b), "{a:?} {op:?} {b:?}");
                        }
                    }
                    if !a.is_null() && !b.is_null() {
                        let eq = order.holds(a, CmpOp::Eq, b);
                        assert_eq!(eq, !order.holds(a, CmpOp::Ne, b), "{a:?} {b:?}");
                        if !numeric {
                            assert_eq!(eq, a == b, "{a:?} = {b:?} is term equality");
                        }
                    }
                    assert_eq!(order.sort(a, b), order.sort(b, a).reverse(), "{a:?} {b:?}");
                }
            }
            // A string and a number: no order, whichever the string.
            let na = dict.encode_value(&Value::str("n/a")).unwrap();
            let eight = Oid::from_int(8).unwrap();
            assert_eq!(order.compare(na, eight), None);
            assert!(!order.holds(na, CmpOp::Lt, eight));
            assert!(order.holds(na, CmpOp::Ne, eight));
        }
        // IRIs interned out of text order sort by text.
        let dict = Dictionary::new();
        let (b, a) = (dict.encode_iri("http://m/b"), dict.encode_iri("http://m/a"));
        assert!(b < a, "interned first, numbered first");
        let order = TermOrder::by_text(&dict);
        assert_eq!(order.sort(a, b), Ordering::Less, "a before b by text");
        assert!(!order.holds(a, CmpOp::Lt, b), "IRIs have no SPARQL order");
        assert!(!order.holds(a, CmpOp::Le, a), "not even to themselves");
        assert!(order.holds(a, CmpOp::Eq, a) && order.holds(a, CmpOp::Ne, b));
    }

    #[test]
    fn date_range_filter() {
        let d = Dictionary::new();
        let date =
            |s: &str| Oid::from_date_days(sordf_model::date::parse_date(s).unwrap()).unwrap();
        let lookup = |_: VarId| date("1996-06-15");
        let e = Expr::and(
            Expr::cmp(
                Expr::Var(VarId(0)),
                CmpOp::Ge,
                Expr::Const(date("1996-01-01")),
            ),
            Expr::cmp(
                Expr::Var(VarId(0)),
                CmpOp::Lt,
                Expr::Const(date("1997-01-01")),
            ),
        );
        assert_eq!(e.eval(&lookup, &d), EvalValue::Bool(true));
    }

    #[test]
    fn null_comparisons_are_false() {
        let d = Dictionary::new();
        let lookup = |_: VarId| Oid::NULL;
        let e = Expr::cmp(Expr::Var(VarId(0)), CmpOp::Eq, Expr::Var(VarId(0)));
        assert_eq!(e.eval(&lookup, &d), EvalValue::Bool(false));
    }

    #[test]
    fn as_var_cmp_normalizes_mirrored_comparisons() {
        let c = Oid::from_int(5).unwrap();
        let e = Expr::cmp(Expr::Const(c), CmpOp::Lt, Expr::Var(VarId(3)));
        assert_eq!(e.as_var_cmp(), Some((VarId(3), CmpOp::Gt, c)));
    }

    #[test]
    fn vars_collection() {
        let e = Expr::and(
            Expr::cmp(Expr::Var(VarId(1)), CmpOp::Eq, Expr::Var(VarId(2))),
            Expr::Not(Box::new(Expr::Var(VarId(1)))),
        );
        let mut vars = Vec::new();
        e.vars(&mut vars);
        assert_eq!(vars, vec![VarId(1), VarId(2)]);
    }
}
