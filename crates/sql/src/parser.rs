//! SQL parser + compiler onto the engine's query representation.

use crate::lexer::{tokenize, Tok};
use sordf_engine::expr::ArithOp;
use sordf_engine::query::OrderKey;
use sordf_engine::{AggFunc, CmpOp, Expr, Query, SelectItem, TriplePattern, VarOrOid};
use sordf_model::{Dictionary, FxHashMap, Oid, Term, Value};
use sordf_schema::{ClassId, EmergentSchema};
use sordf_storage::ClusteredStore;
use std::sync::Arc;

/// Compile a SQL query over the emergent schema into an engine query.
/// Requires a *dense* clustered store (table scans are restricted to class
/// segments via subject-OID ranges).
///
/// `routed` maps delta-new subjects (inserted since the last reorganization)
/// to the class the incremental assigner routed them to. Their OIDs lie
/// outside every class segment's dense range, so without it pending inserts
/// would be invisible to the SQL view until the next reorganization; each
/// table's segment restriction is widened to admit exactly its own routed
/// subjects.
pub fn compile_sql(
    sql: &str,
    schema: &EmergentSchema,
    store: &ClusteredStore,
    dict: &Dictionary,
    routed: &FxHashMap<Oid, ClassId>,
) -> Result<Query, String> {
    let tokens = tokenize(sql)?;
    let mut c = Compiler {
        tokens,
        pos: 0,
        schema,
        store,
        dict,
        routed,
        query: Query::default(),
        tables: Vec::new(),
        col_vars: FxHashMap::default(),
    };
    c.compile()?;
    Ok(c.query)
}

struct TableRef {
    alias: String,
    class: ClassId,
    subject_var: sordf_engine::VarId,
}

/// A resolved column reference.
#[derive(Clone, Copy)]
enum RefKind {
    Subject(usize),
    Column(usize, usize),
    Multi(usize, usize),
}

struct Compiler<'a> {
    tokens: Vec<Tok>,
    pos: usize,
    schema: &'a EmergentSchema,
    store: &'a ClusteredStore,
    dict: &'a Dictionary,
    /// Delta-new subject → routed class (see [`compile_sql`]).
    routed: &'a FxHashMap<Oid, ClassId>,
    query: Query,
    tables: Vec<TableRef>,
    /// (table idx, predicate) -> bound object variable.
    col_vars: FxHashMap<(usize, Oid), sordf_engine::VarId>,
}

impl<'a> Compiler<'a> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(w) if w.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), String> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(format!("expected {kw}, found {:?}", self.peek()))
        }
    }

    // ---- top level ---------------------------------------------------------

    fn compile(&mut self) -> Result<(), String> {
        self.expect_kw("SELECT")?;
        if self.eat_kw("DISTINCT") {
            self.query.distinct = true;
        }
        // Defer select parsing until tables are known: remember token span.
        let select_start = self.pos;
        self.skip_until_kw("FROM")?;
        let select_end = self.pos;
        self.expect_kw("FROM")?;
        self.parse_table(false)?;
        while self.eat_kw("JOIN") {
            self.parse_table(true)?;
        }
        if self.eat_kw("WHERE") {
            let e = self.parse_expr()?;
            self.query.filters.push(e);
        }
        // Go back and parse the SELECT list now.
        let after_where = self.pos;
        self.pos = select_start;
        self.parse_select_list(select_end)?;
        self.pos = after_where;

        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                let r = self.parse_ref()?;
                let v = self.var_of(r);
                self.query.group_by.push(v);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let output = self.parse_order_target()?;
                let ascending = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                self.query.order_by.push(OrderKey { output, ascending });
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        if self.eat_kw("LIMIT") {
            let Tok::Int(n) = self.bump() else {
                return Err("expected LIMIT count".into());
            };
            self.query.limit = Some(n.max(0) as usize);
        }
        if *self.peek() != Tok::Eof {
            return Err(format!("trailing input at {:?}", self.peek()));
        }
        self.add_segment_restrictions();
        Ok(())
    }

    fn skip_until_kw(&mut self, kw: &str) -> Result<(), String> {
        let mut depth = 0usize;
        loop {
            match self.peek() {
                Tok::Eof => return Err(format!("expected {kw}")),
                Tok::LParen => depth += 1,
                Tok::RParen => depth = depth.saturating_sub(1),
                Tok::Ident(w) if depth == 0 && w.eq_ignore_ascii_case(kw) => return Ok(()),
                _ => {}
            }
            self.pos += 1;
        }
    }

    // ---- tables ------------------------------------------------------------

    fn parse_table(&mut self, is_join: bool) -> Result<(), String> {
        let Tok::Ident(name) = self.bump() else {
            return Err("expected table name".into());
        };
        let class = self
            .schema
            .class_by_name(&name)
            .ok_or_else(|| format!("unknown table '{name}' (not in the emergent schema)"))?
            .id;
        // optional [AS] alias
        let mut alias = name.clone();
        if self.eat_kw("AS") {
            let Tok::Ident(a) = self.bump() else {
                return Err("expected alias".into());
            };
            alias = a;
        } else if let Tok::Ident(w) = self.peek().clone() {
            if !is_reserved(&w) {
                self.bump();
                alias = w;
            }
        }
        let subject_var = self.query.var(&alias);
        self.tables.push(TableRef {
            alias,
            class,
            subject_var,
        });
        if is_join {
            self.expect_kw("ON")?;
            let left = self.parse_ref()?;
            if self.bump() != Tok::Eq {
                return Err("JOIN supports only equality conditions".into());
            }
            let right = self.parse_ref()?;
            self.unify(left, right)?;
        }
        Ok(())
    }

    /// Unify a join condition.
    fn unify(&mut self, left: RefKind, right: RefKind) -> Result<(), String> {
        use RefKind::*;
        match (left, right) {
            // fk_col = other.subject (either direction): bind the column's
            // object variable *to* the other table's subject variable.
            (Column(t, c), Subject(o)) | (Subject(o), Column(t, c)) => {
                let pred = self.schema.class(self.tables[t].class).columns[c].pred;
                let subject = self.tables[o].subject_var;
                match self.col_vars.get(&(t, pred)) {
                    Some(&existing) => {
                        self.query.filters.push(Expr::cmp(
                            Expr::Var(existing),
                            CmpOp::Eq,
                            Expr::Var(subject),
                        ));
                    }
                    None => {
                        self.col_vars.insert((t, pred), subject);
                        let s = VarOrOid::Var(self.tables[t].subject_var);
                        self.query.patterns.push(TriplePattern {
                            s,
                            p: pred,
                            o: VarOrOid::Var(subject),
                        });
                    }
                }
                Ok(())
            }
            (a @ (Column(..) | Multi(..)), b @ (Column(..) | Multi(..))) => {
                let (va, vb) = (self.var_of(a), self.var_of(b));
                self.query
                    .filters
                    .push(Expr::cmp(Expr::Var(va), CmpOp::Eq, Expr::Var(vb)));
                Ok(())
            }
            (Subject(a), Subject(b)) => {
                let (va, vb) = (self.tables[a].subject_var, self.tables[b].subject_var);
                self.query
                    .filters
                    .push(Expr::cmp(Expr::Var(va), CmpOp::Eq, Expr::Var(vb)));
                Ok(())
            }
            (Multi(t, m), Subject(o)) | (Subject(o), Multi(t, m)) => {
                let pred = self.schema.class(self.tables[t].class).multi_props[m].pred;
                let subject = self.tables[o].subject_var;
                match self.col_vars.get(&(t, pred)) {
                    Some(&existing) => {
                        self.query.filters.push(Expr::cmp(
                            Expr::Var(existing),
                            CmpOp::Eq,
                            Expr::Var(subject),
                        ));
                    }
                    None => {
                        self.col_vars.insert((t, pred), subject);
                        let s = VarOrOid::Var(self.tables[t].subject_var);
                        self.query.patterns.push(TriplePattern {
                            s,
                            p: pred,
                            o: VarOrOid::Var(subject),
                        });
                    }
                }
                Ok(())
            }
        }
    }

    /// Restrict every table's subject variable to its class segment's dense
    /// OID range, so same-named predicates of other classes cannot leak in.
    /// Subjects inserted since the last reorganization live *outside* every
    /// dense range; the ones routed to this table's class are admitted
    /// through an explicit membership disjunct so pending inserts stay
    /// visible to the SQL view.
    fn add_segment_restrictions(&mut self) {
        for t in &self.tables {
            let seg = self.store.segment(t.class);
            let mut extra: Vec<Oid> = self
                .routed
                .iter()
                .filter(|(_, &c)| c == t.class)
                .map(|(&s, _)| s)
                .collect();
            extra.sort_unstable();
            if let Some(range) = seg.dense_range() {
                if range.is_empty() && extra.is_empty() {
                    continue;
                }
                let lo = Oid::iri(range.start);
                let hi = Oid::iri(range.end.saturating_sub(1));
                let in_range = Expr::InRange(Box::new(Expr::Var(t.subject_var)), lo, hi);
                let filter = if extra.is_empty() {
                    in_range
                } else {
                    Expr::Or(
                        Box::new(in_range),
                        Box::new(Expr::InSet(
                            Box::new(Expr::Var(t.subject_var)),
                            Arc::new(extra),
                        )),
                    )
                };
                self.query.filters.push(filter);
            }
        }
    }

    // ---- references ---------------------------------------------------------

    fn parse_ref(&mut self) -> Result<RefKind, String> {
        match self.bump() {
            Tok::Qualified(table, col) => {
                let t = self
                    .tables
                    .iter()
                    .position(|x| x.alias.eq_ignore_ascii_case(&table))
                    .ok_or_else(|| format!("unknown table alias '{table}'"))?;
                self.resolve_in_table(t, &col)
            }
            Tok::Ident(col) => {
                // Unqualified: must be unique across tables.
                let mut found = None;
                for t in 0..self.tables.len() {
                    if let Ok(r) = self.resolve_in_table(t, &col) {
                        if found.is_some() {
                            return Err(format!("ambiguous column '{col}'"));
                        }
                        found = Some(r);
                    }
                }
                found.ok_or_else(|| format!("unknown column '{col}'"))
            }
            other => Err(format!("expected column reference, found {other:?}")),
        }
    }

    fn resolve_in_table(&self, t: usize, col: &str) -> Result<RefKind, String> {
        if col.eq_ignore_ascii_case("subject") {
            return Ok(RefKind::Subject(t));
        }
        let class = self.schema.class(self.tables[t].class);
        if let Some(ci) = class
            .columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(col))
        {
            return Ok(RefKind::Column(t, ci));
        }
        if let Some(mi) = class
            .multi_props
            .iter()
            .position(|m| m.name.eq_ignore_ascii_case(col))
        {
            return Ok(RefKind::Multi(t, mi));
        }
        Err(format!(
            "no column '{col}' in table '{}'",
            self.tables[t].alias
        ))
    }

    /// The engine variable bound to a reference, creating the pattern lazily.
    fn var_of(&mut self, r: RefKind) -> sordf_engine::VarId {
        match r {
            RefKind::Subject(t) => self.tables[t].subject_var,
            RefKind::Column(t, c) => {
                let pred = self.schema.class(self.tables[t].class).columns[c].pred;
                self.pattern_var(t, pred, c, false)
            }
            RefKind::Multi(t, m) => {
                let pred = self.schema.class(self.tables[t].class).multi_props[m].pred;
                self.pattern_var(t, pred, m, true)
            }
        }
    }

    fn pattern_var(&mut self, t: usize, pred: Oid, idx: usize, multi: bool) -> sordf_engine::VarId {
        if let Some(&v) = self.col_vars.get(&(t, pred)) {
            return v;
        }
        let class = self.schema.class(self.tables[t].class);
        let col_name = if multi {
            &class.multi_props[idx].name
        } else {
            &class.columns[idx].name
        };
        let v = self
            .query
            .var(&format!("{}__{}", self.tables[t].alias, col_name));
        self.col_vars.insert((t, pred), v);
        let s = VarOrOid::Var(self.tables[t].subject_var);
        self.query.patterns.push(TriplePattern {
            s,
            p: pred,
            o: VarOrOid::Var(v),
        });
        v
    }

    // ---- select list ---------------------------------------------------------

    fn parse_select_list(&mut self, end: usize) -> Result<(), String> {
        loop {
            if self.pos >= end {
                break;
            }
            let item = self.parse_select_item()?;
            self.query.select.push(item);
            if *self.peek() == Tok::Comma && self.pos < end {
                self.bump();
            } else {
                break;
            }
        }
        if self.query.select.is_empty() {
            return Err("empty SELECT list".into());
        }
        Ok(())
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, String> {
        // Aggregate?
        if let Tok::Ident(w) = self.peek().clone() {
            if let Some(func) = agg_func(&w) {
                if self.tokens.get(self.pos + 1) == Some(&Tok::LParen) {
                    self.bump();
                    self.bump();
                    let expr = if *self.peek() == Tok::Star {
                        self.bump();
                        Expr::Num(1.0)
                    } else {
                        self.parse_expr()?
                    };
                    if self.bump() != Tok::RParen {
                        return Err("expected ')'".into());
                    }
                    let name = self
                        .parse_alias()?
                        .unwrap_or_else(|| w.to_ascii_lowercase());
                    return Ok(SelectItem::Agg { func, expr, name });
                }
            }
        }
        let start_tok = self.peek().clone();
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        // Plain column ref with no alias: select the variable.
        if let (Expr::Var(v), None) = (&expr, &alias) {
            let _ = start_tok;
            return Ok(SelectItem::Var(*v));
        }
        let name = alias.unwrap_or_else(|| match &start_tok {
            Tok::Ident(n) => n.clone(),
            Tok::Qualified(a, n) => format!("{a}_{n}"),
            _ => "expr".to_string(),
        });
        Ok(SelectItem::Expr { expr, name })
    }

    fn parse_alias(&mut self) -> Result<Option<String>, String> {
        if self.eat_kw("AS") {
            match self.bump() {
                Tok::Ident(a) => Ok(Some(a)),
                other => Err(format!("expected alias, found {other:?}")),
            }
        } else {
            Ok(None)
        }
    }

    fn parse_order_target(&mut self) -> Result<usize, String> {
        // By alias or by column ref appearing in the select list.
        let name = match self.peek().clone() {
            Tok::Ident(n) => n,
            Tok::Qualified(a, n) => format!("{a}_{n}"),
            other => return Err(format!("expected ORDER BY target, found {other:?}")),
        };
        // alias match first
        for (i, item) in self.query.select.iter().enumerate() {
            let matches = match item {
                SelectItem::Agg { name: n, .. } | SelectItem::Expr { name: n, .. } => {
                    n.eq_ignore_ascii_case(&name)
                }
                SelectItem::Var(v) => {
                    let vname = &self.query.vars[v.0 as usize];
                    vname.eq_ignore_ascii_case(&name)
                        || vname
                            .split("__")
                            .last()
                            .is_some_and(|c| c.eq_ignore_ascii_case(&name))
                }
            };
            if matches {
                self.bump();
                return Ok(i);
            }
        }
        Err(format!("ORDER BY target '{name}' not in SELECT list"))
    }

    // ---- expressions -----------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, String> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, String> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, String> {
        let mut left = self.parse_rel()?;
        while self.eat_kw("AND") {
            let right = self.parse_rel()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn parse_rel(&mut self) -> Result<Expr, String> {
        let left = self.parse_add()?;
        // BETWEEN a AND b
        if self.eat_kw("BETWEEN") {
            let lo = self.parse_add()?;
            self.expect_kw("AND")?;
            let hi = self.parse_add()?;
            return Ok(Expr::and(
                Expr::cmp(left.clone(), CmpOp::Ge, lo),
                Expr::cmp(left, CmpOp::Le, hi),
            ));
        }
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::Ne => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return Ok(left),
        };
        self.bump();
        let right = self.parse_add()?;
        Ok(Expr::cmp(left, op, right))
    }

    fn parse_add(&mut self) -> Result<Expr, String> {
        let mut left = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_mul()?;
            left = Expr::Arith(Box::new(left), op, Box::new(right));
        }
    }

    fn parse_mul(&mut self) -> Result<Expr, String> {
        let mut left = self.parse_primary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                _ => return Ok(left),
            };
            self.bump();
            let right = self.parse_primary()?;
            left = Expr::Arith(Box::new(left), op, Box::new(right));
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, String> {
        match self.peek().clone() {
            Tok::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                if self.bump() != Tok::RParen {
                    return Err("expected ')'".into());
                }
                Ok(e)
            }
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Num(v as f64))
            }
            Tok::Dec(u) => {
                self.bump();
                Ok(Expr::Num(u as f64 / sordf_model::oid::DECIMAL_ONE as f64))
            }
            Tok::Str(s) => {
                self.bump();
                let oid = self
                    .dict
                    .term_oid(&Term::literal(Value::str(s)))
                    .unwrap_or(Oid::new(
                        sordf_model::TypeTag::Str,
                        sordf_model::oid::PAYLOAD_MASK,
                    ));
                Ok(Expr::Const(oid))
            }
            Tok::Ident(w) if w.eq_ignore_ascii_case("DATE") => {
                self.bump();
                let Tok::Str(s) = self.bump() else {
                    return Err("expected DATE 'x'".into());
                };
                let days =
                    sordf_model::date::parse_date(&s).map_err(|e| format!("bad date: {e}"))?;
                Ok(Expr::Const(
                    Oid::from_date_days(days).map_err(|e| e.to_string())?,
                ))
            }
            Tok::Ident(w) if w.eq_ignore_ascii_case("NOT") => {
                self.bump();
                Ok(Expr::Not(Box::new(self.parse_primary()?)))
            }
            Tok::Ident(_) | Tok::Qualified(_, _) => {
                let r = self.parse_ref()?;
                Ok(Expr::Var(self.var_of(r)))
            }
            other => Err(format!("unexpected token in expression: {other:?}")),
        }
    }
}

fn is_reserved(w: &str) -> bool {
    matches!(
        w.to_ascii_uppercase().as_str(),
        "SELECT"
            | "FROM"
            | "WHERE"
            | "JOIN"
            | "ON"
            | "GROUP"
            | "ORDER"
            | "BY"
            | "LIMIT"
            | "AS"
            | "AND"
            | "OR"
            | "NOT"
            | "ASC"
            | "DESC"
            | "DISTINCT"
            | "BETWEEN"
    )
}

fn agg_func(word: &str) -> Option<AggFunc> {
    match word.to_ascii_uppercase().as_str() {
        "COUNT" => Some(AggFunc::Count),
        "SUM" => Some(AggFunc::Sum),
        "AVG" => Some(AggFunc::Avg),
        "MIN" => Some(AggFunc::Min),
        "MAX" => Some(AggFunc::Max),
        _ => None,
    }
}
