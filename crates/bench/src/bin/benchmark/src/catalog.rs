//! The query catalog: twelve classes, each a query shape with one or more
//! seed-chosen constants.
//!
//! The shapes keep the many-patterns-on-one-subject stars that star
//! detection and RDFscan exist for (`cust_lookup`, `order_items`, the
//! `bench_vectorized` star joins) beside the RDF-H analytics.

use crate::data::{customer_iri, is_held_out, order_iri, Dataset, Rng};
use sordf::QueryRequest;
use sordf_rdfh::gen::NS;
use sordf_rdfh::QueryId;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    Sparql,
    Sql,
}

/// One query class: a fixed shape, `texts.len()` rotating constants.
#[derive(Debug, Clone, PartialEq)]
pub struct Class {
    pub name: &'static str,
    pub lang: Lang,
    pub texts: Vec<String>,
    /// For a SQL class, the same constants as SPARQL: the six-permutation
    /// reference store has no SQL view to answer the SQL text itself.
    pub sparql_twin: Option<Vec<String>>,
}

impl Class {
    /// The request for constant `k`, with every option at its library
    /// default (newest generation, default `ExecConfig`, sequential).
    pub fn request(&self, k: usize) -> QueryRequest {
        let text = self.texts[k % self.texts.len()].as_str();
        match self.lang {
            Lang::Sparql => QueryRequest::sparql(text),
            Lang::Sql => QueryRequest::sql(text),
        }
    }
}

/// How many rotating constants the selective classes get.
#[derive(Debug, Clone, Copy)]
pub struct Constants {
    pub keys: usize,
    pub windows: usize,
}

/// `n` distinct keys below `limit` whose subject is bulk-loaded in every
/// workload (not held out), so a lookup always has an answer.
fn loaded_keys(rng: &mut Rng, limit: u64, n: usize, iri: fn(u64) -> String) -> Vec<u64> {
    let mut keys = Vec::new();
    // Four in five keys qualify; the attempt cap only guards tiny scales.
    for _ in 0..n * 64 {
        let k = rng.below(limit);
        if !is_held_out(&iri(k)) && !keys.contains(&k) {
            keys.push(k);
            if keys.len() == n {
                break;
            }
        }
    }
    assert!(!keys.is_empty(), "no bulk-loaded key below {limit}");
    keys
}

/// 2-property star on one customer IRI.
pub fn cust_lookup(data: &Dataset, rng: &mut Rng, c: Constants) -> Class {
    let texts = loaded_keys(rng, data.n_customer, c.keys, customer_iri)
        .into_iter()
        .map(|k| {
            let s = customer_iri(k);
            format!(
                "PREFIX rdfh: <{NS}>\nSELECT ?name ?segment WHERE {{\n  \
                 <{s}> rdfh:customer_name ?name .\n  \
                 <{s}> rdfh:customer_mktsegment ?segment .\n}}"
            )
        })
        .collect();
    Class {
        name: "cust_lookup",
        lang: Lang::Sparql,
        texts,
        sparql_twin: None,
    }
}

/// The lineitems of one order: a star reached through its foreign key.
pub fn order_items(data: &Dataset, rng: &mut Rng, c: Constants) -> Class {
    let texts = loaded_keys(rng, data.n_orders, c.keys, order_iri)
        .into_iter()
        .map(|k| {
            let o = order_iri(k);
            format!(
                "PREFIX rdfh: <{NS}>\nSELECT ?li ?quantity ?price WHERE {{\n  \
                 ?li rdfh:lineitem_orderkey <{o}> .\n  \
                 ?li rdfh:lineitem_quantity ?quantity .\n  \
                 ?li rdfh:lineitem_extendedprice ?price .\n}}"
            )
        })
        .collect();
    Class {
        name: "order_items",
        lang: Lang::Sparql,
        texts,
        sparql_twin: None,
    }
}

/// `YYYY-MM-01` of month `m` counted from January 1993.
fn month_start(m: u64) -> String {
    format!("{}-{:02}-01", 1993 + m / 12, m % 12 + 1)
}

/// Seed-chosen start months of the 3-month windows, all inside 1993–1997
/// where every month has shipments.
fn windows(rng: &mut Rng, c: Constants) -> Vec<u64> {
    let mut months: Vec<u64> = (0..57).collect();
    rng.shuffle(&mut months);
    months.truncate(c.windows);
    months
}

fn q6_sparql(from: &str, to: &str) -> String {
    format!(
        "PREFIX rdfh: <{NS}>\nSELECT (SUM(?price * ?disc) AS ?rev) WHERE {{\n  \
         ?li rdfh:lineitem_shipdate ?d .\n  \
         ?li rdfh:lineitem_extendedprice ?price .\n  \
         ?li rdfh:lineitem_discount ?disc .\n  \
         FILTER(?d >= \"{from}\"^^xsd:date && ?d < \"{to}\"^^xsd:date)\n}}"
    )
}

/// Q6-style SUM over a 3-month shipdate range: a zone-map scan.
/// `q6_3mo` and `sql_q6_3mo` take the same windows, so they are twins.
pub fn q6_3mo(months: &[u64]) -> Class {
    Class {
        name: "q6_3mo",
        lang: Lang::Sparql,
        texts: months
            .iter()
            .map(|&m| q6_sparql(&month_start(m), &month_start(m + 3)))
            .collect(),
        sparql_twin: None,
    }
}

/// The SQL twin of [`q6_3mo`] over the emergent table `lineitem`.
pub fn sql_q6_3mo(months: &[u64]) -> Class {
    Class {
        name: "sql_q6_3mo",
        lang: Lang::Sql,
        texts: months
            .iter()
            .map(|&m| {
                format!(
                    "SELECT SUM(lineitem_extendedprice * lineitem_discount) AS rev \
                     FROM lineitem \
                     WHERE lineitem_shipdate >= DATE '{}' AND lineitem_shipdate < DATE '{}'",
                    month_start(m),
                    month_start(m + 3)
                )
            })
            .collect(),
        sparql_twin: Some(q6_3mo(months).texts),
    }
}

/// Every customer name: the one large result of the serving mix.
pub fn cust_names() -> Class {
    fixed(
        "cust_names",
        format!("PREFIX rdfh: <{NS}>\nSELECT ?n WHERE {{ ?c rdfh:customer_name ?n }}"),
    )
}

/// The `bench_vectorized` star shape: `width` lineitem properties on `?s`.
fn star(name: &'static str, width: usize) -> Class {
    let props = [
        "lineitem_quantity",
        "lineitem_extendedprice",
        "lineitem_discount",
        "lineitem_tax",
        "lineitem_shipmode",
        "lineitem_returnflag",
    ];
    let body: String = props[..width]
        .iter()
        .map(|p| format!("?s <{NS}{p}> ?o_{p} .\n"))
        .collect();
    fixed(name, format!("SELECT ?s WHERE {{ {body} }}"))
}

pub fn starjoin6() -> Class {
    star("starjoin6", 6)
}

/// Named after the `bench_vectorized` scenario; on the clustered-only
/// deployment it runs against the clustered generation like every class.
pub fn starjoin4_sparse() -> Class {
    star("starjoin4_sparse", 4)
}

pub fn q6_36mo() -> Class {
    fixed("q6_36mo", q6_sparql("1994-01-01", "1997-01-01"))
}

pub fn rdfh(name: &'static str, id: QueryId) -> Class {
    fixed(name, sordf_rdfh::query(id).to_string())
}

fn fixed(name: &'static str, text: String) -> Class {
    Class {
        name,
        lang: Lang::Sparql,
        texts: vec![text],
        sparql_twin: None,
    }
}

/// Salt of the generator that picks the constants, so that they are not the
/// stream the request schedule or the batch order draws from.
const CONSTANTS_SALT: u64 = 0x0c1a_55e5;

/// The classes of each workload, in reporting order.
pub fn serve_selective(data: &Dataset, seed: u64, c: Constants) -> Vec<Class> {
    let mut rng = Rng::new(seed ^ CONSTANTS_SALT);
    let months = windows(&mut rng, c);
    vec![
        cust_lookup(data, &mut rng, c),
        order_items(data, &mut rng, c),
        q6_3mo(&months),
        sql_q6_3mo(&months),
        cust_names(),
    ]
}

pub fn analytic_hot() -> Vec<Class> {
    vec![
        starjoin6(),
        starjoin4_sparse(),
        q6_36mo(),
        rdfh("q1", QueryId::Q1),
        rdfh("q3", QueryId::Q3),
        rdfh("q5", QueryId::Q5),
        rdfh("q10", QueryId::Q10),
    ]
}

pub fn analytic_cold(seed: u64, c: Constants) -> Vec<Class> {
    let mut rng = Rng::new(seed ^ CONSTANTS_SALT);
    vec![
        starjoin6(),
        q6_36mo(),
        rdfh("q3", QueryId::Q3),
        q6_3mo(&windows(&mut rng, c)),
    ]
}

pub fn write_mix(data: &Dataset, seed: u64, c: Constants) -> Vec<Class> {
    let mut rng = Rng::new(seed ^ CONSTANTS_SALT);
    vec![
        starjoin4_sparse(),
        q6_36mo(),
        cust_lookup(data, &mut rng, c),
        order_items(data, &mut rng, c),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;

    const C: Constants = Constants {
        keys: 8,
        windows: 4,
    };

    #[test]
    fn seed_determines_constants() {
        let data = generate(0.0005, 1);
        assert_eq!(serve_selective(&data, 5, C), serve_selective(&data, 5, C));
        let (a, b) = (serve_selective(&data, 5, C), serve_selective(&data, 6, C));
        assert_ne!(a[0].texts, b[0].texts, "cust_lookup constants");
        assert_ne!(a[2].texts, b[2].texts, "q6_3mo windows");
        assert_eq!(a[0].texts.len(), 8);
        assert_eq!(a[2].texts.len(), 4);
    }

    #[test]
    fn sql_twin_shares_windows() {
        let months = [0, 13];
        assert!(q6_3mo(&months).texts[1].contains("\"1994-02-01\""));
        assert!(q6_3mo(&months).texts[1].contains("\"1994-05-01\""));
        assert!(sql_q6_3mo(&months).texts[1].contains("DATE '1994-02-01'"));
        assert!(sql_q6_3mo(&months).texts[0].contains("DATE '1993-04-01'"));
    }

    #[test]
    fn twelve_distinct_classes() {
        let data = generate(0.0005, 1);
        let mut names: Vec<&str> = serve_selective(&data, 1, C)
            .iter()
            .chain(&analytic_hot())
            .chain(&analytic_cold(1, C))
            .chain(&write_mix(&data, 1, C))
            .map(|c| c.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12);
    }
}
