//! The worker count is a pure scheduling choice: in the correctness matrix
//! (`harness`) the morsel executor at three workers answers byte for byte
//! like one worker, and both like the term-level reference. And threads
//! that share one pool and one store answer alike.

mod harness;

use harness::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn parallel_execution_matches_sequential() {
    let n = random_graphs(3..4, 5, |_| true);
    eprintln!("random graphs: {n} comparisons");
}

/// Four threads share one pool and one store with pending writes and run
/// every cell of the same queries at once; each gets the answers one thread
/// got alone, and the pool's invariants hold afterwards.
#[test]
fn concurrent_queries_share_a_pool() {
    let base = random_graph(&mut StdRng::seed_from_u64(6));
    let input = input("random graph", 6, base, Writes::default(), Vec::new(), 2);
    let rig = rig(&input.base, &LAYOUTS);
    for layout in LAYOUTS {
        let store = Store::Engine {
            rig: &rig,
            layout,
            delta: delta(rig.layer(layout).0, &input.writes, History::Both),
        };
        let cell = base_cell(false, layout, History::Both);
        let run = || -> Vec<Vec<(Cell, Rows)>> {
            input
                .queries
                .iter()
                .map(|q| answers(&store, q, &cell, None))
                .collect()
        };
        let alone = run();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| assert!(run() == alone, "{layout:?}: a thread's answers differ"));
            }
        });
        rig.pool.check_invariants();
    }
}
