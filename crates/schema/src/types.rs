//! Core data structures of the emergent schema.

use std::borrow::Cow;

use crate::cs::runs_by;
use sordf_model::{FxHashMap, Oid, Triple, TypeTag};

/// Identifier of a discovered class (a merged/typed characteristic set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Statistics of one column, used by cardinality estimation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColStats {
    /// Subjects with a value in this column.
    pub n_nonnull: u64,
    /// Estimated number of distinct values.
    pub n_distinct: u64,
    /// Minimum stored OID (raw), if any value exists.
    pub min: Option<u64>,
    /// Maximum stored OID (raw), if any value exists.
    pub max: Option<u64>,
}

/// A single-valued (`1` or `0..1`) column of a class.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// The predicate this column stores.
    pub pred: Oid,
    /// Human-readable, SQL-safe column name.
    pub name: String,
    /// Declared type: values with another tag are irregular exceptions.
    pub ty: TypeTag,
    /// Fraction of class subjects having this property.
    pub presence: f64,
    /// `false` only when presence is 1.0 (every subject has a value).
    pub nullable: bool,
    /// Foreign-key edge, if the column references one target class.
    pub fk: Option<ForeignKey>,
    /// Value statistics (filled by the stats stage).
    pub stats: ColStats,
}

/// A multi-valued property split off into a side table of (subject, object)
/// pairs — the paper's "splitting it off into a separate table (CS)".
#[derive(Debug, Clone)]
pub struct MultiPropDef {
    pub pred: Oid,
    pub name: String,
    pub ty: TypeTag,
    /// Mean number of values per subject that has the property.
    pub mean_multiplicity: f64,
    /// Foreign-key edge, if values reference one target class.
    pub fk: Option<ForeignKey>,
    /// Value statistics.
    pub stats: ColStats,
}

/// A foreign-key edge from a column to a class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ForeignKey {
    pub target: ClassId,
    /// Fraction of non-null values that land in the target class.
    pub strength: f64,
    /// True when the link is 1-1 (candidate for blank-node unification:
    /// the SQL view may present source and target as one table).
    pub one_to_one: bool,
}

/// One discovered class: a table in the emergent relational schema.
#[derive(Debug, Clone)]
pub struct ClassDef {
    pub id: ClassId,
    /// Human-readable, SQL-safe table name.
    pub name: String,
    /// Single-valued columns, in a fixed order.
    pub columns: Vec<ColumnDef>,
    /// Multi-valued side tables.
    pub multi_props: Vec<MultiPropDef>,
    /// Number of subjects assigned to this class.
    pub n_subjects: u64,
    /// Direct support + references from kept classes (used for retention).
    pub indirect_support: u64,
    /// Lookup: predicate → index into `columns`.
    pub(crate) col_index: FxHashMap<Oid, usize>,
    /// Lookup: predicate → index into `multi_props`.
    pub(crate) multi_index: FxHashMap<Oid, usize>,
}

impl ClassDef {
    /// Index of the single-valued column storing `pred`, if any.
    pub fn column_of(&self, pred: Oid) -> Option<usize> {
        self.col_index.get(&pred).copied()
    }

    /// Index of the multi-valued side table storing `pred`, if any.
    pub fn multi_of(&self, pred: Oid) -> Option<usize> {
        self.multi_index.get(&pred).copied()
    }

    /// Rebuild the predicate lookup maps after column predicates change
    /// (e.g. after OID reorganization remaps predicate OIDs).
    pub fn reindex(&mut self) {
        self.col_index = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.pred, i))
            .collect();
        self.multi_index = self
            .multi_props
            .iter()
            .enumerate()
            .map(|(i, m)| (m.pred, i))
            .collect();
    }
}

/// Where one triple lives physically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TripleHome {
    /// In class `class`, single-valued column `col`.
    Column { class: ClassId, col: usize },
    /// In class `class`, multi-value side table `mp`.
    Multi { class: ClassId, mp: usize },
    /// In the irregular PSO triple table.
    Irregular,
}

/// The discovered schema: the output of [`crate::discover`].
#[derive(Debug, Clone, Default)]
pub struct EmergentSchema {
    /// All kept classes. `ClassId(i)` indexes this vector.
    pub classes: Vec<ClassDef>,
    /// Subject → class assignment. Subjects absent here are irregular.
    pub assignment: FxHashMap<Oid, ClassId>,
    /// The OID of `rdf:type`, if the dataset uses it.
    pub type_pred: Option<Oid>,
    /// Fraction of input triples that are regular (stored in class columns
    /// or side tables). The paper reports ~85% on real data.
    pub coverage: f64,
    /// Total number of input triples the schema was discovered from.
    pub n_triples: u64,
}

impl EmergentSchema {
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// The class a subject belongs to, if it is regular.
    pub fn class_of(&self, s: Oid) -> Option<ClassId> {
        self.assignment.get(&s).copied()
    }

    /// All classes that have `pred` as a single-valued column.
    pub fn classes_with_column(&self, pred: Oid) -> impl Iterator<Item = (ClassId, usize)> + '_ {
        self.classes
            .iter()
            .filter_map(move |c| c.column_of(pred).map(|i| (c.id, i)))
    }

    /// All classes that have `pred` as a multi-valued side table.
    pub fn classes_with_multi(&self, pred: Oid) -> impl Iterator<Item = (ClassId, usize)> + '_ {
        self.classes
            .iter()
            .filter_map(move |c| c.multi_of(pred).map(|i| (c.id, i)))
    }

    /// Find a class by (case-insensitive) name.
    pub fn class_by_name(&self, name: &str) -> Option<&ClassDef> {
        self.classes
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Decide where each triple lives. `triples_spo` must be sorted by
    /// (s, p, o). For a single-valued column, the *smallest* matching-type
    /// object is the stored value; further values and type mismatches are
    /// irregular. Used by the storage loader and by discovery's statistics
    /// and coverage, so they can never disagree.
    pub fn place_triples(&self, triples_spo: &[Triple], mut f: impl FnMut(Triple, TripleHome)) {
        let homes = self.homes();
        // Subjects come in SPO order: a cursor over the classes that fill an
        // OID range finds theirs without probing the assignment (on a
        // clustered layout, every class).
        let ranges = self.dense_ranges();
        let mut next = 0;
        for run in runs_by(triples_spo, |t| t.s) {
            let s = run[0].s;
            while ranges.get(next).is_some_and(|r| r.1 < s.raw()) {
                next += 1;
            }
            let class = match ranges.get(next) {
                Some(&(first, _, class)) if first <= s.raw() => Some(class),
                _ => self.class_of(s),
            };
            let class_homes = match class {
                Some(cid) => &homes[cid.0 as usize][..],
                None => &[],
            };
            place_subject(class_homes, run, &mut f);
        }
    }

    /// `(first, last, class)` (raw OIDs) of each class whose subjects are
    /// every OID from its first to its last, ascending.
    fn dense_ranges(&self) -> Vec<(u64, u64, ClassId)> {
        let mut spans = vec![(u64::MAX, 0, 0); self.classes.len()];
        for (s, c) in &self.assignment {
            let span = &mut spans[c.0 as usize];
            span.0 = span.0.min(s.raw());
            span.1 = span.1.max(s.raw());
            span.2 += 1;
        }
        let mut ranges: Vec<(u64, u64, ClassId)> = spans
            .into_iter()
            .enumerate()
            .filter(|&(_, (first, last, n))| n > 0 && last - first + 1 == n)
            .map(|(c, (first, last, _))| (first, last, ClassId(c as u32)))
            .collect();
        ranges.sort_unstable();
        ranges
    }

    /// Per class, what [`place_subject`] needs: its stored predicates.
    pub(crate) fn homes(&self) -> Vec<Vec<PredHome>> {
        self.classes
            .iter()
            .map(|c| {
                let columns = c.columns.iter().enumerate().map(|(col, d)| {
                    let home = TripleHome::Column { class: c.id, col };
                    (d.pred, d.ty, home)
                });
                let multi = c
                    .multi_props
                    .iter()
                    .enumerate()
                    .map(|(mp, d)| (d.pred, d.ty, TripleHome::Multi { class: c.id, mp }));
                let mut homes: Vec<PredHome> = columns.chain(multi).collect();
                homes.sort_unstable_by_key(|h| h.0);
                homes
            })
            .collect()
    }

    /// Render the schema as readable DDL-style text (the "SQL view").
    pub fn render_ddl(&self, dict: &sordf_model::Dictionary) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for c in &self.classes {
            let _ = writeln!(
                out,
                "CREATE TABLE {} ( -- {} subjects",
                c.name, c.n_subjects
            );
            let _ = writeln!(out, "  subject IRI PRIMARY KEY,");
            for (i, col) in c.columns.iter().enumerate() {
                let null = if col.nullable { " NULL" } else { " NOT NULL" };
                let fk = match &col.fk {
                    Some(fk) => format!(
                        " REFERENCES {}{}",
                        self.class(fk.target).name,
                        if fk.one_to_one { " -- 1-1" } else { "" }
                    ),
                    None => String::new(),
                };
                let comma = if i + 1 < c.columns.len() || !c.multi_props.is_empty() {
                    ","
                } else {
                    ""
                };
                let pred = dict.iri_str(col.pred).unwrap_or(Cow::Borrowed("?"));
                let _ = writeln!(
                    out,
                    "  {} {}{}{}{} -- <{}> presence {:.0}%",
                    col.name,
                    col.ty.name().to_uppercase(),
                    null,
                    fk,
                    comma,
                    pred,
                    col.presence * 100.0
                );
            }
            for (i, mp) in c.multi_props.iter().enumerate() {
                let comma = if i + 1 < c.multi_props.len() { "," } else { "" };
                let _ = writeln!(
                    out,
                    "  {} SETOF {}{} -- side table, mean multiplicity {:.1}",
                    mp.name,
                    mp.ty.name().to_uppercase(),
                    comma,
                    mp.mean_multiplicity
                );
            }
            let _ = writeln!(out, ");");
        }
        out
    }
}

/// A predicate a class stores: the type a stored object must have, and
/// where it goes.
pub(crate) type PredHome = (Oid, TypeTag, TripleHome);

/// The placement rule, for the triples of one subject (SPO-sorted) whose
/// class stores `homes` (ascending by predicate; empty when the subject is
/// in no class). A column stores the first object of its type and a side
/// table every one; all else is irregular.
pub(crate) fn place_subject(
    homes: &[PredHome],
    run: &[Triple],
    f: &mut impl FnMut(Triple, TripleHome),
) {
    let mut homes = homes.iter().peekable();
    for group in runs_by(run, |t| t.p) {
        let p = group[0].p;
        while homes.next_if(|h| h.0 < p).is_some() {}
        let stores = homes.next_if(|h| h.0 == p);
        let mut stored = false;
        // One call of `f`, so that it inlines: the column build's is hot.
        for &t in group {
            let home = match stores {
                Some(&(_, ty, home)) if !t.o.is_null() && t.o.tag() == ty => {
                    let single = matches!(home, TripleHome::Column { .. });
                    if single && stored {
                        TripleHome::Irregular
                    } else {
                        stored = true;
                        home
                    }
                }
                _ => TripleHome::Irregular,
            };
            f(t, home);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_schema() -> EmergentSchema {
        let mut class = ClassDef {
            id: ClassId(0),
            name: "book".into(),
            columns: vec![
                ColumnDef {
                    pred: Oid::iri(10),
                    name: "title".into(),
                    ty: TypeTag::Str,
                    presence: 1.0,
                    nullable: false,
                    fk: None,
                    stats: ColStats::default(),
                },
                ColumnDef {
                    pred: Oid::iri(11),
                    name: "year".into(),
                    ty: TypeTag::Int,
                    presence: 0.5,
                    nullable: true,
                    fk: None,
                    stats: ColStats::default(),
                },
            ],
            multi_props: vec![MultiPropDef {
                pred: Oid::iri(12),
                name: "author".into(),
                ty: TypeTag::Iri,
                mean_multiplicity: 2.0,
                fk: None,
                stats: ColStats::default(),
            }],
            n_subjects: 2,
            indirect_support: 0,
            col_index: FxHashMap::default(),
            multi_index: FxHashMap::default(),
        };
        class.reindex();
        let mut assignment = FxHashMap::default();
        assignment.insert(Oid::iri(0), ClassId(0));
        assignment.insert(Oid::iri(1), ClassId(0));
        EmergentSchema {
            classes: vec![class],
            assignment,
            type_pred: None,
            coverage: 0.0,
            n_triples: 0,
        }
    }

    #[test]
    fn lookup_helpers() {
        let s = mini_schema();
        let c = s.class(ClassId(0));
        assert_eq!(c.column_of(Oid::iri(10)), Some(0));
        assert_eq!(c.column_of(Oid::iri(12)), None);
        assert_eq!(c.multi_of(Oid::iri(12)), Some(0));
        assert_eq!(s.class_of(Oid::iri(0)), Some(ClassId(0)));
        assert_eq!(s.class_of(Oid::iri(99)), None);
        assert_eq!(s.classes_with_column(Oid::iri(11)).count(), 1);
        assert!(s.class_by_name("BOOK").is_some());
    }

    #[test]
    fn placement_single_multi_and_irregular() {
        let s = mini_schema();
        let title = Oid::iri(10);
        let year = Oid::iri(11);
        let author = Oid::iri(12);
        let other = Oid::iri(13);
        let dict = sordf_model::Dictionary::new();
        let t_hello = dict
            .encode_value(&sordf_model::Value::str("hello"))
            .unwrap();
        let mut triples = vec![
            // subject 0: title (str, ok), year twice (first stored, second irregular),
            // author twice (both multi), unknown prop (irregular)
            Triple::new(Oid::iri(0), title, t_hello),
            Triple::new(Oid::iri(0), year, Oid::from_int(1996).unwrap()),
            Triple::new(Oid::iri(0), year, Oid::from_int(1997).unwrap()),
            Triple::new(Oid::iri(0), author, Oid::iri(50)),
            Triple::new(Oid::iri(0), author, Oid::iri(51)),
            Triple::new(Oid::iri(0), other, Oid::iri(52)),
            // subject 1: title with WRONG type (int) -> irregular
            Triple::new(Oid::iri(1), title, Oid::from_int(7).unwrap()),
            // subject 99: unassigned -> irregular
            Triple::new(Oid::iri(99), title, t_hello),
        ];
        triples.sort_by_key(|t| (t.s, t.p, t.o));
        let mut homes = Vec::new();
        s.place_triples(&triples, |t, h| homes.push((t, h)));
        assert_eq!(homes.len(), triples.len());
        let count = |want: TripleHome| homes.iter().filter(|(_, h)| *h == want).count();
        assert_eq!(
            count(TripleHome::Column {
                class: ClassId(0),
                col: 0
            }),
            1
        );
        assert_eq!(
            count(TripleHome::Column {
                class: ClassId(0),
                col: 1
            }),
            1
        );
        assert_eq!(
            count(TripleHome::Multi {
                class: ClassId(0),
                mp: 0
            }),
            2
        );
        assert_eq!(count(TripleHome::Irregular), 4);
        // The stored year is the first (smallest) one.
        let stored_year = homes
            .iter()
            .find(|(t, h)| matches!(h, TripleHome::Column { col: 1, .. }) && t.p == year)
            .unwrap();
        assert_eq!(stored_year.0.o, Oid::from_int(1996).unwrap());
    }
}
