//! `paper_mix_pubmed`: the paper's §V query workload as an offline caller.
//!
//! Pubmed-like graph, a fixed set of queries from `gen_queries` with 70%
//! CODL and 10% each of CODU, CODR and CODL⁻, served in seeded order by
//! `nproc` closed-loop callers, one `query_batch_seeded` call per query.
//! No serve layer runs.

use std::sync::Arc;
use std::time::Instant;

use cod_core::{Method, Query};
use rand::prelude::*;

use crate::engine::{self, direct_loop, engine_config, engine_layers, nproc, prepare};
use crate::stats::{peak_rss_mb, Report};
use crate::Opts;

/// Generator seed of the pubmed-like graph.
const GRAPH_SEED: u64 = 1;

/// Generator seed and size of the query set. Query costs are heavy-tailed
/// (a cold pool over a large community costs a hundred warm lookups), so
/// a few thousand random queries still differ by a fifth in total work
/// from seed to seed. The set is therefore fixed and the workload seed
/// orders it; a run serves the whole set unless `--seconds` runs out.
const QUERY_SET_SEED: u64 = 0x9E1;
const QUERY_SET: usize = 1_500;

/// The method mix, one block of ten: 70% CODL, 10% each of CODU, CODR and
/// CODL⁻. Every block of ten queries of the set holds it exactly.
const MIX: [Method; 10] = [
    Method::Codl,
    Method::Codl,
    Method::Codl,
    Method::Codl,
    Method::Codl,
    Method::Codl,
    Method::Codl,
    Method::Codu,
    Method::Codr,
    Method::CodlMinus,
];

fn methods(rng: &mut SmallRng, len: usize) -> Vec<Method> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let mut block = MIX;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.random_range(0..i + 1));
        }
        out.extend(block);
    }
    out.truncate(len);
    out
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let g = Arc::new(cod_datasets::pubmed_like(GRAPH_SEED).graph);
    let mut rng = SmallRng::seed_from_u64(QUERY_SET_SEED);
    let pairs = cod_datasets::gen_queries(&g, QUERY_SET, &mut rng);
    let queries: Vec<Query> = pairs
        .iter()
        .zip(methods(&mut rng, pairs.len()))
        .map(|(&(node, attr), method)| Query::new(node, attr, method))
        .collect();
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..i + 1));
    }
    let epoch = Instant::now();
    let mut report = Report::default();

    let (setup, first) = crate::timed(|| prepare(&g, engine_config(false), &[]));
    let untraced = direct_loop(
        &setup.engine,
        &queries,
        &order,
        opts.seconds,
        nproc(),
        false,
        epoch,
    );
    report.e2e("peak_rss_mb", "MiB", peak_rss_mb(), String::new());
    drop(setup);
    crate::record_setup(&mut report, first, || {
        Ok(crate::timed(|| prepare(&g, engine_config(false), &[])).1)
    })?;

    let traced = if opts.trace {
        let setup = prepare(&g, engine_config(true), &[]);
        report.layer("hierarchy.build_s", "s", setup.hierarchy_s, String::new());
        report.layer("himor.build_s", "s", setup.himor_s, String::new());
        let before = setup.engine.metrics();
        let cache_before = setup.engine.cache_stats();
        let out = direct_loop(
            &setup.engine,
            &queries,
            &order,
            opts.seconds,
            nproc(),
            true,
            epoch,
        );
        let call_ms: Vec<f64> = out.served.iter().map(|s| s.ms).collect();
        engine_layers(&mut report, &setup.engine, &before, cache_before, &call_ms);
        Some(out)
    } else {
        None
    };

    let served = untraced
        .served
        .iter()
        .chain(traced.iter().flat_map(|t| &t.served));
    let refs = engine::reference(&g, engine_config(false), served.map(|s| queries[s.idx]));
    let ok_ms = engine::tally(&mut report, &refs, &queries, &untraced);
    engine::latency_metrics(&mut report, &ok_ms, &untraced);
    if let Some(traced) = traced {
        engine::tally(&mut report, &refs, &queries, &traced);
        crate::overhead_ratio(&mut report, &untraced, &traced);
        crate::write_spans(opts, &traced.spans)?;
    }
    Ok(report)
}
