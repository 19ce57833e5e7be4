//! Materialized intermediate results (column-major, like MonetDB BATs).

use sordf_model::Oid;

/// A query variable, an index into the query's variable registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u16);

/// A materialized binding table: one column of OIDs per bound variable.
///
/// The row count is carried, not read off column 0: a plan step binds only
/// the variables something later reads, and when nothing reads any of them
/// (`SELECT (COUNT(*) AS ?n)`) the table has rows and no columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Which variable each column binds.
    pub vars: Vec<VarId>,
    /// Column-major storage; every column holds [`len`](Self::len) values.
    /// Code that appends to the columns directly reports the new rows
    /// through [`grow`](Self::grow).
    pub cols: Vec<Vec<Oid>>,
    /// Index of a column the rows are sorted by, if known (enables merge
    /// joins without re-sorting).
    pub sorted_by: Option<usize>,
    rows: usize,
}

impl Table {
    /// An empty table binding the given variables.
    pub fn empty(vars: Vec<VarId>) -> Table {
        let cols = vars.iter().map(|_| Vec::new()).collect();
        Table {
            vars,
            cols,
            sorted_by: None,
            rows: 0,
        }
    }

    /// A table of `rows` rows over filled columns (one per variable).
    pub fn from_cols(vars: Vec<VarId>, cols: Vec<Vec<Oid>>, rows: usize) -> Table {
        debug_assert_eq!(vars.len(), cols.len());
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        Table {
            vars,
            cols,
            sorted_by: None,
            rows,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `n` rows were appended to every column directly.
    pub fn grow(&mut self, n: usize) {
        self.rows += n;
        debug_assert!(self.cols.iter().all(|c| c.len() == self.rows));
    }

    /// Keep the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        for c in self.cols.iter_mut() {
            c.truncate(n);
        }
        self.rows = self.rows.min(n);
    }

    /// Drop every row, keeping the layout and the columns' capacity.
    pub fn clear(&mut self) {
        self.truncate(0);
        self.sorted_by = None;
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column index binding `v`, if present.
    pub fn col_of(&self, v: VarId) -> Option<usize> {
        self.vars.iter().position(|&x| x == v)
    }

    /// Append one row (must match the column count).
    pub fn push_row(&mut self, row: &[Oid]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (c, &v) in self.cols.iter_mut().zip(row) {
            c.push(v);
        }
        self.rows += 1;
    }

    /// One row as a Vec (for tests and small outputs).
    pub fn row(&self, i: usize) -> Vec<Oid> {
        self.cols.iter().map(|c| c[i]).collect()
    }

    /// Reorder all columns by `perm` (row `i` of the result is old row
    /// `perm[i]`).
    pub fn apply_perm(&mut self, perm: &[usize]) {
        for c in self.cols.iter_mut() {
            let reordered: Vec<Oid> = perm.iter().map(|&i| c[i]).collect();
            *c = reordered;
        }
        self.rows = perm.len();
    }

    /// Keep only rows where `mask[i]` is true.
    pub fn retain_rows(&mut self, mask: &[bool]) {
        debug_assert_eq!(mask.len(), self.len());
        for c in self.cols.iter_mut() {
            let mut keep = mask.iter();
            // sordf-lint: allow(L3) — debug-asserted above: mask has one entry per row.
            c.retain(|_| *keep.next().unwrap());
        }
        self.rows = mask.iter().filter(|&&keep| keep).count();
    }

    /// Project to a subset of variables (distinct, each must exist), taking
    /// the columns over instead of copying them.
    pub fn project(mut self, vars: &[VarId]) -> Table {
        let cols = vars
            .iter()
            .map(|&v| {
                // sordf-lint: allow(L3) — the documented contract: projection vars must exist in the table.
                let i = self.col_of(v).expect("projection var missing");
                std::mem::take(&mut self.cols[i])
            })
            .collect();
        Table::from_cols(vars.to_vec(), cols, self.rows)
    }

    /// Sorted, deduplicated values of one column.
    pub fn distinct_col(&self, col: usize) -> Vec<Oid> {
        let mut v = self.cols[col].clone();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Concatenate another table with the same variable layout. Appending
    /// to an empty table takes the other's columns over instead of copying
    /// them (the single non-empty partial of a star scan).
    pub fn append(&mut self, other: Table) {
        assert_eq!(self.vars, other.vars, "appending incompatible tables");
        if self.is_empty() {
            self.cols = other.cols;
        } else {
            for (c, oc) in self.cols.iter_mut().zip(other.cols) {
                c.extend(oc);
            }
        }
        self.rows += other.rows;
        self.sorted_by = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t3() -> Table {
        let mut t = Table::empty(vec![VarId(0), VarId(1)]);
        t.push_row(&[Oid::iri(3), Oid::iri(30)]);
        t.push_row(&[Oid::iri(1), Oid::iri(10)]);
        t.push_row(&[Oid::iri(2), Oid::iri(20)]);
        t
    }

    #[test]
    fn sort_and_project() {
        let mut t = t3();
        t.apply_perm(&[1, 2, 0]);
        assert_eq!(t.cols[0], vec![Oid::iri(1), Oid::iri(2), Oid::iri(3)]);
        assert_eq!(t.cols[1], vec![Oid::iri(10), Oid::iri(20), Oid::iri(30)]);
        let p = t.project(&[VarId(1)]);
        assert_eq!(p.cols[0], vec![Oid::iri(10), Oid::iri(20), Oid::iri(30)]);
    }

    #[test]
    fn retain_and_distinct() {
        let mut t = t3();
        t.retain_rows(&[true, false, true]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.distinct_col(0), vec![Oid::iri(2), Oid::iri(3)]);
    }

    #[test]
    fn append_tables() {
        let mut a = t3();
        let b = t3();
        a.append(b);
        assert_eq!(a.len(), 6);
    }
}
