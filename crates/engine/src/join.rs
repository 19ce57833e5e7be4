//! Join operators: merge joins on sorted subject streams (the self-joins of
//! the Default scheme) and hash joins for linking stars.

use crate::context::{ExecContext, ExecStats};
use crate::table::{Table, VarId};
use sordf_model::fxhash::FxHasher;
use sordf_model::{FxHashMap, Oid};
use std::hash::Hasher;

/// Merge-join a table (sorted by column `jc`) with an (s, o)-sorted pair
/// stream, appending the pair's object as a new column. Duplicate keys on
/// either side produce the full cross product, as SPARQL semantics require.
pub fn merge_join_pairs(
    cx: &ExecContext,
    left: &Table,
    jc: usize,
    pairs: &[(Oid, Oid)],
    new_var: VarId,
) -> Table {
    debug_assert_eq!(
        left.sorted_by,
        Some(jc),
        "left side must be sorted by the join column"
    );
    ExecStats::bump(&cx.stats.merge_joins, 1);
    let mut out_vars = left.vars.clone();
    out_vars.push(new_var);
    let mut out = Table::empty(out_vars);
    let key = &left.cols[jc];
    let (mut i, mut j) = (0usize, 0usize);
    while i < key.len() && j < pairs.len() {
        match key[i].cmp(&pairs[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let k = key[i];
                let i_end = (i..key.len()).find(|&x| key[x] != k).unwrap_or(key.len());
                let j_end = (j..pairs.len())
                    .find(|&x| pairs[x].0 != k)
                    .unwrap_or(pairs.len());
                // Emit the run's cross product column-at-a-time: each left
                // value is repeated run-length times in one resize, the pair
                // objects appended as one batched extend per left row. Runs
                // of one pair (unique keys, the common case) keep the cheap
                // per-value push.
                let run = &pairs[j..j_end];
                let last = out.cols.len() - 1;
                if run.len() == 1 {
                    let pv = run[0].1;
                    for li in i..i_end {
                        for (c, lc) in out.cols.iter_mut().zip(&left.cols) {
                            c.push(lc[li]);
                        }
                        out.cols[last].push(pv);
                    }
                } else {
                    for li in i..i_end {
                        for (c, lc) in out.cols.iter_mut().zip(&left.cols) {
                            let v = lc[li];
                            c.resize(c.len() + run.len(), v);
                        }
                        out.cols[last].extend(run.iter().map(|&(_, pv)| pv));
                    }
                }
                out.grow((i_end - i) * run.len());
                i = i_end;
                j = j_end;
            }
        }
    }
    out.sorted_by = Some(jc);
    ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
    out
}

/// Semi-join an (s, o)-sorted pair stream against a sorted candidate list.
pub fn semi_join_pairs(pairs: &[(Oid, Oid)], candidates: &[Oid]) -> Vec<(Oid, Oid)> {
    debug_assert!(candidates.windows(2).all(|w| w[0] <= w[1]));
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < pairs.len() && j < candidates.len() {
        match pairs[i].0.cmp(&candidates[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(pairs[i]);
                i += 1;
            }
        }
    }
    out
}

/// Hash-join two tables on `left[lc] == right[rc]`. Output binds all of
/// left's variables plus right's (minus right's join column, which would
/// duplicate the left one). Builds on the smaller side.
pub fn hash_join(cx: &ExecContext, left: &Table, lc: usize, right: &Table, rc: usize) -> Table {
    join_on_cols(cx, left, &[lc], right, &[rc], None)
}

/// Hash-join two tables on equality of **every** variable in `keys` (each
/// must be bound by both sides). Output binds left's variables plus
/// right's minus the key columns (which would duplicate left's) — of those,
/// only the ones in `keep` when it is given: a plan passes what something
/// after this join still reads, so no column is carried past its last
/// reader (the join keys included). Builds on the smaller side. Joining on
/// all shared variables — not just a primary link — is what keeps stars
/// that share several variables consistent.
pub fn hash_join_on(
    cx: &ExecContext,
    left: &Table,
    right: &Table,
    keys: &[VarId],
    keep: Option<&[VarId]>,
) -> Table {
    debug_assert!(!keys.is_empty(), "use cross_join for keyless joins");
    let cols_of = |t: &Table| -> Vec<usize> {
        keys.iter()
            // sordf-lint: allow(L3) — callers pass keys bound by both sides.
            .map(|&v| t.col_of(v).unwrap())
            .collect()
    };
    join_on_cols(cx, left, &cols_of(left), right, &cols_of(right), keep)
}

/// The output of joining `left` and `right` through the paired row indices
/// `lidx` / `ridx`: left's columns, then right's except `right_keys`, each
/// gathered in one pass — of those, only the variables in `keep` when given.
fn gather_joined(
    left: &Table,
    lidx: &[usize],
    right: &Table,
    ridx: &[usize],
    right_keys: &[usize],
    keep: Option<&[VarId]>,
) -> Table {
    let kept = |v: &VarId| keep.map_or(true, |k| k.contains(v));
    let mut vars = Vec::new();
    let mut cols: Vec<Vec<Oid>> = Vec::new();
    for (v, col) in left.vars.iter().zip(&left.cols) {
        if kept(v) {
            vars.push(*v);
            cols.push(lidx.iter().map(|&i| col[i]).collect());
        }
    }
    for (rc, (v, col)) in right.vars.iter().zip(&right.cols).enumerate() {
        if !right_keys.contains(&rc) && kept(v) {
            vars.push(*v);
            cols.push(ridx.iter().map(|&i| col[i]).collect());
        }
    }
    Table::from_cols(vars, cols, lidx.len())
}

/// Row ids chained by the hash of their keys — the hash table of the hash
/// join and of DISTINCT. No key is stored: rows with one hash form a chain
/// through `link`, and the caller confirms each candidate with its own
/// equality, so the two users share the index-chain code and nothing else.
pub(crate) struct RowChains {
    /// Per hash, the row inserted last.
    head: FxHashMap<u64, usize>,
    /// Per row, the row inserted before it under the same hash (`NONE`: it
    /// was the first).
    link: Vec<usize>,
}

impl RowChains {
    const NONE: usize = usize::MAX;

    /// Chains for row ids below `n_rows`.
    pub(crate) fn new(n_rows: usize) -> RowChains {
        let mut head = FxHashMap::default();
        head.reserve(n_rows);
        RowChains {
            head,
            link: vec![Self::NONE; n_rows],
        }
    }

    /// Chain `row` (not yet inserted) under `hash`, ahead of earlier rows.
    pub(crate) fn insert(&mut self, hash: u64, row: usize) {
        self.link[row] = self.head.insert(hash, row).unwrap_or(Self::NONE);
    }

    /// The rows inserted under `hash`, last inserted first.
    pub(crate) fn candidates(&self, hash: u64) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.head.get(&hash).copied(), |&r| {
            let before = self.link[r];
            (before != Self::NONE).then_some(before)
        })
    }
}

/// The one hash join: equality on the paired key columns `lks` / `rks`.
/// The build side is indexed by [`RowChains`] over the hash of its key (no
/// key is materialized, whatever its width; a probe confirms candidates
/// column by column), the probe collects `(left row, right row)` matches in
/// probe order — build rows ascending within a probe row — and every output
/// column is then gathered through those indices in one pass
/// ([`gather_joined`]).
fn join_on_cols(
    cx: &ExecContext,
    left: &Table,
    lks: &[usize],
    right: &Table,
    rks: &[usize],
    keep: Option<&[VarId]>,
) -> Table {
    ExecStats::bump(&cx.stats.hash_joins, 1);
    // Normalize: build on the smaller input, probe the bigger.
    let (build, bks, probe, pks, build_is_left) = if left.len() <= right.len() {
        (left, lks, right, rks, true)
    } else {
        (right, rks, left, lks, false)
    };
    let key_hash = |t: &Table, ks: &[usize], row: usize| {
        let mut h = FxHasher::default();
        for &c in ks {
            h.write_u64(t.cols[c][row].raw());
        }
        h.finish()
    };
    // Inserted back to front, so every chain ascends.
    let mut chains = RowChains::new(build.len());
    for bi in (0..build.len()).rev() {
        chains.insert(key_hash(build, bks, bi), bi);
    }

    let (mut lidx, mut ridx): (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    for pi in 0..probe.len() {
        for bi in chains.candidates(key_hash(probe, pks, pi)) {
            let same_key = bks
                .iter()
                .zip(pks)
                .all(|(&bc, &pc)| build.cols[bc][bi] == probe.cols[pc][pi]);
            if same_key {
                let (li, ri) = if build_is_left { (bi, pi) } else { (pi, bi) };
                lidx.push(li);
                ridx.push(ri);
            }
        }
    }

    let out = gather_joined(left, &lidx, right, &ridx, rks, keep);
    ExecStats::bump(&cx.stats.rows_emitted, out.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ExecConfig, ExecContext, StorageRef};
    use sordf_columnar::{BufferPool, DiskManager};
    use sordf_model::Dictionary;
    use std::sync::Arc;

    fn test_cx() -> (
        Arc<DiskManager>,
        &'static BufferPool,
        &'static Dictionary,
        sordf_storage::BaselineStore,
    ) {
        let dm = Arc::new(DiskManager::temp().unwrap());
        let store = sordf_storage::BaselineStore::build(&dm, &[]);
        let pool = Box::leak(Box::new(BufferPool::new(Arc::clone(&dm), 16)));
        let dict = Box::leak(Box::new(Dictionary::new()));
        (dm, pool, dict, store)
    }

    fn table(vars: &[u16], rows: &[&[u64]]) -> Table {
        let mut t = Table::empty(vars.iter().map(|&v| VarId(v)).collect());
        for r in rows {
            let row: Vec<Oid> = r.iter().map(|&x| Oid::iri(x)).collect();
            t.push_row(&row);
        }
        t
    }

    #[test]
    fn merge_join_basic() {
        let (_dm, pool, dict, store) = test_cx();
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        let mut left = table(&[0], &[&[1], &[2], &[4]]);
        left.sorted_by = Some(0);
        let pairs = vec![
            (Oid::iri(1), Oid::iri(10)),
            (Oid::iri(3), Oid::iri(30)),
            (Oid::iri(4), Oid::iri(40)),
        ];
        let out = merge_join_pairs(&cx, &left, 0, &pairs, VarId(1));
        assert_eq!(out.len(), 2);
        assert_eq!(out.cols[0], vec![Oid::iri(1), Oid::iri(4)]);
        assert_eq!(out.cols[1], vec![Oid::iri(10), Oid::iri(40)]);
        assert_eq!(ExecStats::get(&cx.stats.merge_joins), 1);
    }

    #[test]
    fn merge_join_duplicates_cross_product() {
        let (_dm, pool, dict, store) = test_cx();
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        let mut left = table(&[0], &[&[1], &[1]]);
        left.sorted_by = Some(0);
        let pairs = vec![(Oid::iri(1), Oid::iri(10)), (Oid::iri(1), Oid::iri(11))];
        let out = merge_join_pairs(&cx, &left, 0, &pairs, VarId(1));
        assert_eq!(out.len(), 4, "2 left x 2 right");
    }

    #[test]
    fn semi_join() {
        let pairs = vec![
            (Oid::iri(1), Oid::iri(10)),
            (Oid::iri(2), Oid::iri(20)),
            (Oid::iri(5), Oid::iri(50)),
        ];
        let cands = vec![Oid::iri(2), Oid::iri(3), Oid::iri(5)];
        let out = semi_join_pairs(&pairs, &cands);
        assert_eq!(
            out,
            vec![(Oid::iri(2), Oid::iri(20)), (Oid::iri(5), Oid::iri(50))]
        );
    }

    #[test]
    fn hash_join_drops_duplicate_join_col() {
        let (_dm, pool, dict, store) = test_cx();
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        let left = table(&[0, 1], &[&[1, 100], &[2, 200], &[3, 300]]);
        let right = table(&[2, 3], &[&[100, 7], &[300, 9]]);
        let out = hash_join(&cx, &left, 1, &right, 0);
        assert_eq!(out.vars, vec![VarId(0), VarId(1), VarId(3)]);
        assert_eq!(out.len(), 2);
        let mut rows: Vec<Vec<Oid>> = (0..out.len()).map(|i| out.row(i)).collect();
        rows.sort();
        assert_eq!(rows[0], vec![Oid::iri(1), Oid::iri(100), Oid::iri(7)]);
        assert_eq!(rows[1], vec![Oid::iri(3), Oid::iri(300), Oid::iri(9)]);
    }

    #[test]
    fn hash_join_on_all_shared_vars() {
        let (_dm, pool, dict, store) = test_cx();
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        // Two tables sharing vars 0 and 2: a single-key join on var 0 would
        // accept rows that disagree on var 2.
        let left = table(&[0, 1, 2], &[&[1, 10, 5], &[2, 20, 6], &[3, 30, 7]]);
        let right = table(&[0, 2, 3], &[&[1, 5, 100], &[2, 9, 200], &[3, 7, 300]]);
        let out = hash_join_on(&cx, &left, &right, &[VarId(0), VarId(2)], None);
        assert_eq!(out.vars, vec![VarId(0), VarId(1), VarId(2), VarId(3)]);
        let mut rows: Vec<Vec<Oid>> = (0..out.len()).map(|i| out.row(i)).collect();
        rows.sort();
        // (2, _, 6) vs (2, 9, _) disagrees on var 2 and must be dropped.
        assert_eq!(
            rows,
            vec![
                vec![Oid::iri(1), Oid::iri(10), Oid::iri(5), Oid::iri(100)],
                vec![Oid::iri(3), Oid::iri(30), Oid::iri(7), Oid::iri(300)],
            ]
        );
    }

    #[test]
    fn hash_join_builds_on_smaller_side_either_way() {
        let (_dm, pool, dict, store) = test_cx();
        let cx = ExecContext::new(
            pool,
            dict,
            StorageRef::Baseline(&store),
            ExecConfig::default(),
        );
        let big = table(&[0], &[&[1], &[2], &[3], &[4], &[5]]);
        let small = table(&[1], &[&[2], &[4]]);
        let a = hash_join(&cx, &big, 0, &small, 0);
        let b = hash_join(&cx, &small, 0, &big, 0);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
    }
}
