//! Research question (i): "How to efficiently and scalably detect and
//! summarize CS's" — throughput of the full discovery pipeline on clean and
//! dirty data. At irregularity 0.6 one class splits into type variants
//! (the only point that walks a class's subjects for variant signatures);
//! 0.0 and 0.3 split nothing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sordf_datagen::{dirty, DirtyConfig};
use sordf_schema::SchemaConfig;
use sordf_storage::TripleSet;

fn bench_discovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("schema/discover");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for irregularity in [0.0, 0.3, 0.6] {
        let triples = dirty(&DirtyConfig::with_irregularity(irregularity, 5_000));
        let mut ts = TripleSet::new();
        ts.extend_terms(&triples).unwrap();
        let spo = ts.sorted_spo();
        group.throughput(Throughput::Elements(spo.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("irregularity-{irregularity}")),
            &spo,
            |b, spo| b.iter(|| sordf_schema::discover(spo, &ts.dict, &SchemaConfig::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_discovery);
criterion_main!(benches);
