//! Criterion companion to Table II: HIMOR index construction time.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cod_core::recluster::build_hierarchy;
use cod_core::{CodConfig, HimorIndex};
use cod_hierarchy::LcaIndex;
use cod_influence::Parallelism;

fn bench_build(c: &mut Criterion) {
    let cfg = CodConfig::default();
    let mut group = c.benchmark_group("himor_build");
    group.sample_size(10);

    for (name, data) in [
        ("cora", cod_datasets::cora_like(1)),
        ("citeseer", cod_datasets::citeseer_like(2)),
    ] {
        let g = data.graph.csr().clone();
        let dendro = build_hierarchy(&g, cfg.linkage);
        let lca = LcaIndex::new(&dendro);
        for (label, threads) in [(name.to_string(), 1), (format!("{name}_parallel4"), 4)] {
            let par = Parallelism::Threads(threads);
            group.bench_function(label, |b| {
                b.iter(|| {
                    black_box(
                        HimorIndex::build(&g, cfg.model, &dendro, &lca, cfg.theta, 30, par, None)
                            .map(|index| index.memory_bytes()),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
