//! Chunk-at-a-time execution is a pure access-path change: in the
//! correctness matrix (`harness`) the vectorized kernels answer a scan of
//! one property and a star byte for byte like the value-at-a-time rowwise
//! oracle, on every layout, scheme and write history.

mod harness;

use harness::*;

/// One pattern: a property scan with its restrictions.
#[test]
fn scan_property_matches_rowwise() {
    let n = random_graphs(40..41, 5, |b| b.patterns.len() == 1);
    eprintln!("single patterns: {n} comparisons");
}

/// One star of two to four patterns.
#[test]
fn star_eval_matches_rowwise() {
    let n = random_graphs(50..51, 5, |b| {
        b.subjects().len() == 1 && b.patterns.len() >= 2
    });
    eprintln!("single stars: {n} comparisons");
}
