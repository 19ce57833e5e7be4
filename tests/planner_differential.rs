//! Cost-based planning is a pure choice among equivalent plans: in the
//! correctness matrix (`harness`) every forced star order and every join
//! strategy the pick's links admit answers like the optimizer's pick, and
//! the pick costs no more than any forced order (up to three stars). Over a
//! family of chained RDF-H stars the pick also stays within 1.5x of the
//! cheapest order's cost.

mod harness;

use harness::*;
use sordf_engine::{
    execute_physical, optimize, optimize_with_order, prepare, ExecConfig, ExecContext,
};

/// Generated queries of two or three stars on a random graph in every
/// cell, the plan axis included (the queries of any shape on other seeds
/// are `properties::query_equivalence_on_random_graphs`).
#[test]
fn optimizer_plan_matches_every_forced_order() {
    let n = random_graphs(10..11, 3, |b| b.subjects().len() >= 2);
    eprintln!("multi-star queries: {n} comparisons");
}

/// The chained-star family over RDF-H: the optimizer's pick costs at most
/// 1.5× the cheapest forced star order on at least 90 % of the family, on
/// both CS layouts (one thread each), and every forced order returns the
/// pick's answer.
#[test]
fn chosen_plans_stay_near_the_best_order_on_the_rdfh_chain_family() {
    let data = sordf_rdfh::generate(&sordf_rdfh::RdfhConfig::new(0.001)).triples;
    let rig = rig(&data, &LAYOUTS);
    let family = [
        "?li r:lineitem_orderkey ?o . ?li r:lineitem_quantity ?q . ?o r:order_orderdate ?od",
        "?li r:lineitem_orderkey ?o . ?li r:lineitem_extendedprice ?p . ?o r:order_custkey ?c . ?c r:customer_mktsegment ?seg",
        "?li r:lineitem_orderkey ?o . ?li r:lineitem_quantity ?q . ?o r:order_custkey ?c . ?c r:customer_nationkey ?n . ?n r:nation_name ?nn",
        "?li r:lineitem_orderkey ?p1 . ?p1 r:order_custkey ?p2 . ?p2 r:customer_nationkey ?n . ?n r:nation_name ?nn",
        r#"?li r:lineitem_orderkey ?o . ?li r:lineitem_quantity ?q . ?li r:lineitem_shipdate ?sd . ?o r:order_orderdate ?od . FILTER(?sd >= "1995-01-01"^^xsd:date)"#,
        "?li r:lineitem_orderkey ?o . ?li r:lineitem_quantity ?q . ?li r:lineitem_extendedprice ?p . ?li r:lineitem_discount ?d . \
         ?o r:order_custkey ?c . ?o r:order_orderdate ?od . ?c r:customer_nationkey ?n",
    ];
    in_parallel(&[Layout::Sparse, Layout::Dense], |&layout| {
        let (dict, storage) = rig.layer(layout);
        let cx = ExecContext::new(&rig.pool, dict, storage, ExecConfig::default());
        let mut within = 0;
        for bgp in family {
            let text = format!(
                "PREFIX r: <{}> SELECT * WHERE {{ {bgp} }}",
                sordf_rdfh::gen::NS
            );
            let (q, lp) = prepare(&sordf_sparql::parse_sparql(&text, dict).unwrap());
            let pick = optimize(&cx, &lp);
            let chosen = execute_physical(&cx, &q, &lp, &pick, None).canonical(dict);
            assert!(!chosen.is_empty(), "{layout:?} {bgp} found nothing");
            let mut best = f64::INFINITY;
            for order in permutations(lp.stars.len()) {
                let forced = optimize_with_order(&cx, &lp, &order);
                best = best.min(forced.total_cost);
                let got = execute_physical(&cx, &q, &lp, &forced, None).canonical(dict);
                assert_eq!(got, chosen, "{layout:?} {bgp}: order {order:?}");
            }
            within += usize::from(pick.total_cost <= best * 1.5);
        }
        assert!(
            within * 10 >= family.len() * 9,
            "{layout:?}: within 1.5x on {within}/{}",
            family.len()
        );
    });
}
