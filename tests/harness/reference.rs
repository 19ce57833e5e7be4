//! The term-level reference: what a generated query answers over a list of
//! term triples, with nothing of the store in it — no OIDs, no dictionary,
//! no pages, no plan, no SPARQL text. Patterns match by nested loops over
//! the triples (a map from subject to predicate to objects, and one from
//! predicate to its triples); filters and aggregates are evaluated on the
//! terms. The matrix compares every cell's answer to a generated query with
//! this one, canonically.
//!
//! **Rules.** Filters follow the operator mapping of SPARQL 1.1 §17.3,
//! aggregates §18.5:
//! * a pattern matches by term equality (`3` is not `3.0`); a filter's `=`
//!   compares values (`3 = 3.0` holds);
//! * integers and decimals compare by value across the two types (numeric
//!   type promotion, exact at the decimals' scale of four digits);
//! * strings compare by text (code point order), dates by day, dateTimes by
//!   second, booleans `false < true`;
//! * `<`, `<=`, `>`, `>=` with an IRI, or between literals of different
//!   types that are not both numbers, are type errors: the row is dropped;
//! * `a || b` holds when either side holds (a type error beside `true`
//!   holds, beside `false` drops the row);
//! * COUNT(*) counts solutions; MIN and MAX take the least and the greatest
//!   term by the order below; SUM adds numbers; DISTINCT keeps each
//!   projected solution once.
//!
//! Where SPARQL leaves a choice open, or the engine documents a convention,
//! this is the rule:
//!
//! | case | SPARQL 1.1 | here |
//! |---|---|---|
//! | `x != y`, literals of different types, not both numbers (`"n/a" != 8`) | type error (§17.4.1.7) | holds: term inequality |
//! | `x = y`, the same | type error | false (the row drops either way) |
//! | MIN / MAX over IRIs | by text (§15.1) | by text |
//! | MIN / MAX over mixed kinds | literals of different types unordered | IRIs < strings < numbers < dates < dateTimes < booleans |
//! | MIN / MAX over `3` and `3.0` | either | either (both print `3`) |
//! | SUM over a non-number (a term, or `?a * ?b` with one) | the aggregate is an error | the value is skipped |
//! | an aggregate without GROUP BY over no solution | one row (`COUNT` 0) | no row |
//! | a blank node | a term of its own | the IRI the store skolemizes it to |
//!
//! **Printing**, as the engine prints an answer: an IRI in angle brackets, a
//! literal by its canonical lexical form without quotes, datatype or
//! language tag; a count or sum as an integer when it is one, else with
//! four decimals. The engine adds a SUM in `f64`, so a sum column is
//! compared within [`SUM_TOLERANCE`], not byte for byte.

use super::{Bgp, Filter, Op, Rhs, Rows, Select};
use sordf_model::{Term, TermTriple, Value};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Two sums agree when they differ by at most the first part times the
/// larger's magnitude plus the second: one unit in the fourth decimal,
/// where printing rounds.
pub const SUM_TOLERANCE: (f64, f64) = (1e-9, 1e-4);

/// The graph a history leaves: its triples once each.
pub struct Graph {
    by_s: HashMap<Term, HashMap<Term, Vec<Term>>>,
    by_p: HashMap<Term, Vec<(Term, Term)>>,
}

/// A pattern position: a variable (its column) or a term.
enum Slot {
    Var(usize),
    Term(Term),
}

impl Graph {
    pub fn new(triples: &[TermTriple]) -> Graph {
        let (mut by_s, mut by_p) = (HashMap::new(), HashMap::<Term, Vec<_>>::new());
        let mut seen = HashSet::new();
        for t in triples {
            let (s, p, o) = (skolem(&t.s), skolem(&t.p), skolem(&t.o));
            if seen.insert((s.clone(), p.clone(), o.clone())) {
                by_s.entry(s.clone())
                    .or_insert_with(HashMap::new)
                    .entry(p.clone())
                    .or_insert_with(Vec::new)
                    .push(o.clone());
                by_p.entry(p).or_default().push((s, o));
            }
        }
        Graph { by_s, by_p }
    }

    /// The answer of `bgp` under `select`: the header, then the rows.
    pub fn answer(&self, bgp: &Bgp, select: &Select) -> Rows {
        let vars = bgp.vars();
        let col = |v: &String| column(&vars, v);
        let solutions = self.solutions(bgp, &vars);
        let project = |vs: &[String]| -> Vec<Vec<&Term>> {
            let cols: Vec<usize> = vs.iter().map(col).collect();
            solutions
                .iter()
                .map(|r| cols.iter().map(|&c| r[c]).collect())
                .collect()
        };
        let printed = |rows: Vec<Vec<&Term>>| -> Vec<Vec<String>> {
            rows.into_iter()
                .map(|r| r.into_iter().map(print).collect())
                .collect()
        };
        let (head, body): (Rows, Rows) = match select {
            Select::All => (vec![vars.clone()], printed(project(&vars))),
            Select::Vars(vs) => (vec![vs.clone()], printed(project(vs))),
            Select::Distinct(vs) => {
                let mut seen = HashSet::new();
                let rows = project(vs).into_iter().filter(|r| seen.insert(r.clone()));
                (vec![vs.clone()], printed(rows.collect()))
            }
            _ if solutions.is_empty() => (select_header(select), Vec::new()),
            Select::Count => (
                select_header(select),
                vec![vec![solutions.len().to_string()]],
            ),
            Select::Group(k, x) => {
                let (k, x) = (col(k), col(x));
                let mut groups: Vec<(&Term, Vec<&Term>)> = Vec::new();
                let mut at: HashMap<&Term, usize> = HashMap::new();
                for r in &solutions {
                    let g = *at.entry(r[k]).or_insert_with(|| {
                        groups.push((r[k], Vec::new()));
                        groups.len() - 1
                    });
                    groups[g].1.push(r[x]);
                }
                let rows = groups.into_iter().map(|(key, xs)| {
                    let sum: i128 = xs.iter().filter_map(|t| number(t)).sum();
                    vec![
                        print(key),
                        xs.len().to_string(),
                        print(xs.iter().copied().min_by(|a, b| order(a, b)).unwrap()),
                        print(xs.iter().copied().max_by(|a, b| order(a, b)).unwrap()),
                        print_number(sum as f64 / 1e4),
                    ]
                });
                (select_header(select), rows.collect())
            }
            Select::Product(a, b) => {
                let (a, b) = (col(a), col(b));
                let sum: i128 = solutions
                    .iter()
                    .filter_map(|r| Some(number(r[a])? * number(r[b])?))
                    .sum();
                (
                    select_header(select),
                    vec![vec![print_number(sum as f64 / 1e8)]],
                )
            }
        };
        head.into_iter().chain(body).collect()
    }

    /// Every solution of the patterns that passes the filters, one term per
    /// variable of `vars`.
    fn solutions(&self, bgp: &Bgp, vars: &[String]) -> Vec<Vec<&Term>> {
        let slot = |text: &str| match text.strip_prefix('?') {
            Some(v) => Slot::Var(column(vars, v)),
            None => Slot::Term(skolem(&super::parse_term(text))),
        };
        let patterns: Vec<[Slot; 3]> = bgp
            .patterns
            .iter()
            .map(|[s, p, o]| [slot(s), slot(p), slot(o)])
            .collect();
        // Each pattern after one that binds its subject (or else its object)
        // where there is one; each filter as soon as its variables are bound.
        let mut bound = vec![false; vars.len()];
        let mut left: Vec<usize> = (0..patterns.len()).collect();
        let mut filters: Vec<&Filter> = bgp.filters.iter().collect();
        let mut plan: Vec<(&[Slot; 3], Vec<&Filter>)> = Vec::new();
        while !left.is_empty() {
            let known =
                |s: &Slot| matches!(s, Slot::Term(_)) || matches!(s, Slot::Var(v) if bound[*v]);
            let at = (left.iter().position(|&i| known(&patterns[i][0])))
                .or_else(|| left.iter().position(|&i| known(&patterns[i][2])))
                .unwrap_or(0);
            let pattern = &patterns[left.remove(at)];
            for s in pattern {
                if let Slot::Var(v) = s {
                    bound[*v] = true;
                }
            }
            let (now, later) = (filters.into_iter())
                .partition(|f| f.vars().iter().all(|v| bound[column(vars, v)]));
            filters = later;
            plan.push((pattern, now));
        }
        let mut out = Vec::new();
        self.walk(&plan, vars, &mut vec![None; vars.len()], &mut out);
        out
    }

    fn walk<'g>(
        &'g self,
        plan: &[(&[Slot; 3], Vec<&Filter>)],
        vars: &[String],
        row: &mut Vec<Option<&'g Term>>,
        out: &mut Vec<Vec<&'g Term>>,
    ) {
        let Some(([s, p, o], conds)) = plan.first() else {
            out.push(row.iter().map(|t| t.unwrap()).collect());
            return;
        };
        let Slot::Term(p) = p else {
            panic!("the reference matches constant predicates only")
        };
        let subject = match s {
            Slot::Term(t) => Some(t),
            Slot::Var(v) => row[*v],
        };
        let pairs: Vec<(&Term, &Term)> = match subject {
            Some(s) => (self.by_s.get_key_value(s))
                .and_then(|(s, ps)| Some((s, ps.get(p)?)))
                .map_or(Vec::new(), |(s, os)| os.iter().map(|o| (s, o)).collect()),
            None => (self.by_p.get(p).into_iter().flatten())
                .map(|(s, o)| (s, o))
                .collect(),
        };
        for (st, ot) in pairs {
            let mut fresh = Vec::new();
            if unify(s, st, row, &mut fresh)
                && unify(o, ot, row, &mut fresh)
                && conds.iter().all(|f| keeps(f, vars, row))
            {
                self.walk(&plan[1..], vars, row, out);
            }
            fresh.into_iter().for_each(|v| row[v] = None);
        }
    }
}

/// The header of an aggregate select list.
fn select_header(select: &Select) -> Rows {
    let names = match select {
        Select::Count => vec!["n".to_string()],
        Select::Group(k, _) => vec![k.clone(), "n".into(), "lo".into(), "hi".into(), "t".into()],
        Select::Product(..) => vec!["r".to_string()],
        _ => unreachable!("{select:?} is no aggregate"),
    };
    vec![names]
}

fn column(vars: &[String], v: &str) -> usize {
    vars.iter().position(|x| x == v).unwrap()
}

/// `slot` takes `t`: a term equal to it, or a variable bound to it (bound
/// now, and pushed to `fresh`, if it was not).
fn unify<'g>(
    slot: &Slot,
    t: &'g Term,
    row: &mut [Option<&'g Term>],
    fresh: &mut Vec<usize>,
) -> bool {
    match slot {
        Slot::Term(c) => c == t,
        Slot::Var(v) => match row[*v] {
            Some(b) => b == t,
            None => {
                row[*v] = Some(t);
                fresh.push(*v);
                true
            }
        },
    }
}

/// Does the filter keep the row (`vars`' bindings)? A type error does not.
fn keeps(f: &Filter, vars: &[String], row: &[Option<&Term>]) -> bool {
    let value = |v: &str| row[column(vars, v)].unwrap();
    match f {
        Filter::Or(a, b) => keeps(a, vars, row) || keeps(b, vars, row),
        Filter::Cmp(v, op, rhs) => {
            let rhs = match rhs {
                Rhs::Var(w) => value(w).clone(),
                Rhs::Const(t) => skolem(t),
                Rhs::Int(i) => Term::int(*i),
            };
            holds(value(v), *op, &rhs).unwrap_or(false)
        }
    }
}

/// Does `f`, a filter on one variable, keep a row that binds it to `t`?
pub fn keeps_term(f: &Filter, t: &Term) -> bool {
    let v = f.vars().remove(0);
    keeps(f, &[v], &[Some(&skolem(t))])
}

/// `a op b` by SPARQL 1.1's operator mapping; `None` is a type error.
pub fn holds(a: &Term, op: Op, b: &Term) -> Option<bool> {
    match (compare(a, b), op) {
        (Some(o), _) => Some(match op {
            Op::Eq => o.is_eq(),
            Op::Ne => o.is_ne(),
            Op::Lt => o.is_lt(),
            Op::Le => o.is_le(),
            Op::Gt => o.is_gt(),
            Op::Ge => o.is_ge(),
        }),
        // Terms without an order: `=` and `!=` by identity.
        (None, Op::Eq) => Some(a == b),
        (None, Op::Ne) => Some(a != b),
        (None, _) => None,
    }
}

/// The order of `<` between two terms, where SPARQL defines one: numbers
/// across their two types by value, other literals of one type (strings
/// without a language tag) by value.
pub fn compare(a: &Term, b: &Term) -> Option<Ordering> {
    let (Term::Literal(x), Term::Literal(y)) = (a, b) else {
        return None;
    };
    if let (Some(m), Some(n)) = (number(a), number(b)) {
        return Some(m.cmp(&n));
    }
    let tagged = |v: &Value| matches!(v, Value::Str { lang: Some(_), .. });
    let same = std::mem::discriminant(&x.value) == std::mem::discriminant(&y.value);
    (same && !tagged(&x.value) && !tagged(&y.value)).then(|| x.value.cmp(&y.value))
}

/// A number's value in units of 10⁻⁴ (the decimals' scale), exactly.
fn number(t: &Term) -> Option<i128> {
    match t {
        Term::Literal(l) => match l.value {
            Value::Int(i) => Some(i as i128 * 10_000),
            Value::Decimal(u) => Some(u as i128),
            _ => None,
        },
        _ => None,
    }
}

/// The order of MIN and MAX: [`compare`] where it orders the two, else
/// `Term`'s own order — IRIs by text, then literals by kind (strings <
/// numbers < dates < dateTimes < booleans).
pub fn order(a: &Term, b: &Term) -> Ordering {
    compare(a, b).unwrap_or_else(|| a.cmp(b))
}

/// A blank node as the store holds it: the IRI it is skolemized to.
fn skolem(t: &Term) -> Term {
    match t {
        Term::Blank(label) => Term::iri(Term::skolem_blank_iri(label)),
        t => t.clone(),
    }
}

pub fn print(t: &Term) -> String {
    match t {
        Term::Iri(i) => format!("<{i}>"),
        Term::Blank(b) => format!("_:{b}"),
        Term::Literal(l) => l.value.lexical(),
    }
}

/// A computed number: an integer when it is one, else four decimals.
pub fn print_number(x: f64) -> String {
    if x.fract().abs() < 1e-9 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.4}")
    }
}

/// Do two printed sums agree within [`SUM_TOLERANCE`]?
pub fn sums_agree(a: &str, b: &str) -> bool {
    match (a.parse::<f64>(), b.parse::<f64>()) {
        (Ok(x), Ok(y)) => {
            let (rel, abs) = SUM_TOLERANCE;
            (x - y).abs() <= rel * x.abs().max(y.abs()) + abs
        }
        _ => a == b,
    }
}
