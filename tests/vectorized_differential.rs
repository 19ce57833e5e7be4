//! Chunk-at-a-time execution answers like the term-level reference: in the
//! correctness matrix (`harness`) a scan of one property and a star answer
//! what `harness::reference` answers over the same triples, on every
//! layout, scheme and write history.

mod harness;

use harness::*;

/// One pattern: a property scan with its restrictions.
#[test]
fn scan_property_matches_the_reference() {
    let n = random_graphs(40..41, 5, |b| b.patterns.len() == 1);
    eprintln!("single patterns: {n} comparisons");
}

/// One star of two to four patterns.
#[test]
fn star_eval_matches_the_reference() {
    let n = random_graphs(50..51, 5, |b| {
        b.subjects().len() == 1 && b.patterns.len() >= 2
    });
    eprintln!("single stars: {n} comparisons");
}
