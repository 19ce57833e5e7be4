//! Per-column statistics: counts, min/max, distinct-value sketches.
//!
//! These back the engine's CS-based cardinality estimation (the paper's
//! "being unaware of structural correlations … makes it difficult to
//! estimate the join hit ratio between triple patterns").

use crate::cs::Profile;
use crate::types::{place_subject, EmergentSchema, TripleHome};
use sordf_model::{FxHashSet, Oid};
use std::collections::BinaryHeap;
use std::hash::{Hash, Hasher};

/// K-minimum-values distinct-count sketch. Inserting hashed values keeps the
/// k smallest hashes; the estimate extrapolates from the k-th smallest.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    k: usize,
    /// Max-heap of the k smallest hashes seen.
    heap: BinaryHeap<u64>,
    n_inserted: u64,
    exact: FxHashSet<u64>,
}

impl KmvSketch {
    pub fn new(k: usize) -> KmvSketch {
        KmvSketch {
            k,
            heap: BinaryHeap::new(),
            n_inserted: 0,
            exact: Default::default(),
        }
    }

    /// Insert one value.
    pub fn insert(&mut self, v: u64) {
        self.n_inserted += 1;
        // Keep an exact set while small — estimates for low cardinalities
        // must be exact for the planner's 1-1 join detection.
        if self.exact.len() <= self.k {
            self.exact.insert(v);
        }
        let mut h = sordf_model::fxhash::FxHasher::default();
        v.hash(&mut h);
        let hv = h.finish();
        if self.heap.len() < self.k {
            self.heap.push(hv);
        } else if let Some(&top) = self.heap.peek() {
            if hv < top {
                self.heap.pop();
                self.heap.push(hv);
            }
        }
    }

    /// Estimated number of distinct inserted values.
    pub fn estimate(&self) -> u64 {
        if self.exact.len() <= self.k {
            return self.exact.len() as u64;
        }
        let kth = *self.heap.peek().expect("k > 0");
        if kth == 0 {
            return self.heap.len() as u64;
        }
        // E[distinct] ≈ (k-1) * 2^64 / kth
        let est = (self.heap.len() as f64 - 1.0) * (u64::MAX as f64) / kth as f64;
        (est.round() as u64).max(self.heap.len() as u64)
    }
}

/// Fill `stats` on every column and side table of the schema, and its
/// coverage, from one placement walk. `class_of` holds each profiled
/// subject's class index (`u32::MAX`: none).
pub(crate) fn compute_stats(schema: &mut EmergentSchema, profile: &Profile, class_of: &[u32]) {
    const K: usize = 256;
    struct Acc {
        n: u64,
        min: u64,
        max: u64,
        sketch: KmvSketch,
    }
    impl Acc {
        fn new() -> Acc {
            Acc {
                n: 0,
                min: u64::MAX,
                max: 0,
                sketch: KmvSketch::new(K),
            }
        }
        fn add(&mut self, o: Oid) {
            self.n += 1;
            self.min = self.min.min(o.raw());
            self.max = self.max.max(o.raw());
            self.sketch.insert(o.raw());
        }
        fn finish(self) -> crate::types::ColStats {
            crate::types::ColStats {
                n_nonnull: self.n,
                n_distinct: self.sketch.estimate(),
                min: if self.n > 0 { Some(self.min) } else { None },
                max: if self.n > 0 { Some(self.max) } else { None },
            }
        }
    }

    let mut col_acc: Vec<Vec<Acc>> = schema
        .classes
        .iter()
        .map(|c| c.columns.iter().map(|_| Acc::new()).collect())
        .collect();
    let mut multi_acc: Vec<Vec<Acc>> = schema
        .classes
        .iter()
        .map(|c| c.multi_props.iter().map(|_| Acc::new()).collect())
        .collect();

    let homes = schema.homes();
    let mut regular = 0u64;
    for (ord, &ci) in class_of.iter().enumerate() {
        let class_homes = homes.get(ci as usize).map_or(&[][..], |h| &h[..]);
        place_subject(class_homes, profile.range(ord as u32), &mut |t, home| {
            match home {
                TripleHome::Column { class, col } => col_acc[class.0 as usize][col].add(t.o),
                TripleHome::Multi { class, mp } => multi_acc[class.0 as usize][mp].add(t.o),
                TripleHome::Irregular => return,
            }
            regular += 1;
        });
    }
    schema.coverage = if schema.n_triples == 0 {
        1.0
    } else {
        regular as f64 / schema.n_triples as f64
    };

    for (ci, accs) in col_acc.into_iter().enumerate() {
        for (coli, acc) in accs.into_iter().enumerate() {
            schema.classes[ci].columns[coli].stats = acc.finish();
        }
    }
    for (ci, accs) in multi_acc.into_iter().enumerate() {
        for (mi, acc) in accs.into_iter().enumerate() {
            schema.classes[ci].multi_props[mi].stats = acc.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmv_exact_for_small_sets() {
        let mut sk = KmvSketch::new(64);
        for v in 0..50u64 {
            sk.insert(v);
            sk.insert(v); // duplicates
        }
        assert_eq!(sk.estimate(), 50);
    }

    #[test]
    fn kmv_approximates_large_sets() {
        let mut sk = KmvSketch::new(256);
        let n = 100_000u64;
        for v in 0..n {
            sk.insert(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        let est = sk.estimate();
        let err = (est as f64 - n as f64).abs() / n as f64;
        assert!(err < 0.2, "estimate {est} too far from {n} (err {err:.2})");
    }

    #[test]
    fn kmv_handles_empty() {
        let sk = KmvSketch::new(16);
        assert_eq!(sk.estimate(), 0);
    }
}
