//! What the two read workloads share: engine set-up, the reference check
//! and the engine-layer ledger read from the program's public telemetry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cod_core::{
    CodAnswer, CodConfig, CodEngine, CodResult, Counter, Method, MetricsSnapshot, Phase, Query,
    QueryLimits,
};
use cod_graph::AttributedGraph;
use cod_influence::{Parallelism, SeedSequence};
use rand::prelude::*;

use crate::spans::Spans;
use crate::stats::{process_cpu_s, quantile, ratio, Report};

/// Seed of the one-time HIMOR build; the reference engine uses it too.
pub const HIMOR_SEED: u64 = 0xC0D_1DE5;

/// Master seed of the per-position query seeds. Pooled answers do not
/// depend on it; it only has to be fixed.
pub const QUERY_SEED: u64 = 0x5EED;

/// Client threads and engine threads: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine configuration both read workloads serve with: program
/// defaults plus the shared RR pool and one worker per core.
pub fn engine_config(trace: bool) -> CodConfig {
    CodConfig {
        parallelism: Parallelism::Threads(nproc()),
        pool: true,
        trace,
        ..CodConfig::default()
    }
}

/// Hashable identity of a query.
pub type Key = (u32, Option<u32>, Method);

pub fn key(q: &Query) -> Key {
    (q.node, q.attr, q.method)
}

/// The comparable part of an answer, as the engine returns it or as the
/// HTTP tier renders it (`None` = no characteristic community).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub members: Vec<u64>,
    pub rank: u64,
    pub from_index: bool,
    pub uncertain: bool,
    pub degraded: bool,
}

pub fn answer_of(a: &Option<CodAnswer>) -> Option<Answer> {
    a.as_ref().map(|a| Answer {
        members: a.members.iter().map(|&m| u64::from(m)).collect(),
        rank: a.rank as u64,
        from_index: a.source == cod_core::AnswerSource::Index,
        uncertain: a.uncertain,
        degraded: a.degraded.is_some(),
    })
}

/// A ready engine and the wall-clock seconds its two index builds took.
pub struct Setup {
    pub engine: Arc<CodEngine>,
    pub hierarchy_s: f64,
    pub himor_s: f64,
}

/// Builds a ready engine: base hierarchy, HIMOR index and the warm-up
/// queries, one call each, as a caller would issue them.
pub fn prepare(g: &Arc<AttributedGraph>, cfg: CodConfig, warm: &[Query]) -> Setup {
    let t0 = Instant::now();
    let engine = Arc::new(CodEngine::from_shared(Arc::clone(g), cfg));
    engine.base_hierarchy();
    let hierarchy_s = t0.elapsed().as_secs_f64();
    engine.ensure_himor(&mut SmallRng::seed_from_u64(HIMOR_SEED));
    let himor_s = t0.elapsed().as_secs_f64() - hierarchy_s;
    let seq = SeedSequence::new(QUERY_SEED);
    for (i, q) in warm.iter().enumerate() {
        let _ = engine.query_batch_seeded(
            std::slice::from_ref(q),
            &seq,
            i as u64,
            &QueryLimits::default(),
        );
    }
    Setup {
        engine,
        hierarchy_s,
        himor_s,
    }
}

/// Answers every distinct query in `queries` on a fresh engine with the
/// same configuration (tracing off) and HIMOR seed.
pub fn reference(
    g: &Arc<AttributedGraph>,
    cfg: CodConfig,
    queries: impl IntoIterator<Item = Query>,
) -> HashMap<Key, CodResult<Option<Answer>>> {
    let mut distinct: Vec<Query> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for q in queries {
        if seen.insert(key(&q)) {
            distinct.push(q);
        }
    }
    let cfg = CodConfig {
        trace: false,
        ..cfg
    };
    let engine = prepare(g, cfg, &[]).engine;
    let seq = SeedSequence::new(QUERY_SEED);
    let results = engine.query_batch_seeded(&distinct, &seq, 0, &QueryLimits::default());
    distinct
        .iter()
        .zip(results)
        .map(|(q, r)| (key(q), r.map(|a| answer_of(&a))))
        .collect()
}

/// Compares one served answer with the reference and records a mismatch.
pub fn check(
    report: &mut Report,
    refs: &HashMap<Key, CodResult<Option<Answer>>>,
    q: &Query,
    got: &Option<Answer>,
) {
    match refs.get(&key(q)) {
        Some(Ok(want)) if want == got => {}
        Some(Ok(want)) => {
            report.mismatch(format!("query {q:?}: served {got:?}, reference {want:?}"))
        }
        Some(Err(e)) => report.mismatch(format!("query {q:?}: reference failed: {e}")),
        None => report.mismatch(format!("query {q:?}: no reference answer")),
    }
}

/// The engine layers' ledger over one measured loop: the difference of
/// two metrics snapshots plus the benchmark's own timing of each call.
pub fn engine_layers(
    report: &mut Report,
    engine: &CodEngine,
    before: &MetricsSnapshot,
    cache_before: cod_core::CacheStats,
    call_ms: &[f64],
) {
    let after = engine.metrics();
    let counter = |c: Counter| after.counters.get(c) - before.counters.get(c);
    let phase = |p: Phase| (after.phase_nanos.get(p) - before.phase_nanos.get(p)) as f64 / 1e9;
    let calls = call_ms.len() as f64;
    let call_s: f64 = call_ms.iter().sum::<f64>() / 1e3;
    let phases_s: f64 = cod_core::PHASES.iter().map(|&p| phase(p)).sum();
    let unattributed_s = call_s - phases_s;
    let per_call = format!("over {calls} calls totalling {call_s:.6} s");

    report.layer(
        "engine.call_ms_p50",
        "ms",
        quantile(call_ms, 0.5),
        format!("n={calls}"),
    );
    for (name, share, p) in [
        ("engine.plan_s", "engine.plan_share", Phase::Plan),
        ("recluster.s", "recluster.share", Phase::Recluster),
        (
            "compressed.sample_s",
            "compressed.sample_share",
            Phase::Sample,
        ),
        ("compressed.topk_s", "compressed.topk_share", Phase::TopK),
    ] {
        report.layer(name, "s", phase(p), per_call.clone());
        report.layer(share, "ratio", ratio(phase(p), call_s), per_call.clone());
    }
    // Call time not covered by any engine phase, so that the phases plus
    // this remainder account for the timed call time.
    report.layer(
        "engine.unattributed_s",
        "s",
        unattributed_s,
        format!("calls {call_s:.6} s - phases {phases_s:.6} s"),
    );
    report.layer(
        "engine.unattributed_share",
        "ratio",
        ratio(unattributed_s, call_s),
        per_call.clone(),
    );
    let index = after.answers_index - before.answers_index;
    let compressed = after.answers_compressed - before.answers_compressed;
    let none = after.answers_none - before.answers_none;
    report.layer(
        "engine.index_answer_ratio",
        "ratio",
        ratio(index as f64, (index + compressed + none) as f64),
        format!("{index} index / {} answered", index + compressed + none),
    );
    let cache = engine.cache_stats();
    let (hits, misses) = (
        cache.hits - cache_before.hits,
        cache.misses - cache_before.misses,
    );
    report.layer(
        "cache.hit_ratio",
        "ratio",
        ratio(hits as f64, (hits + misses) as f64),
        format!(
            "{hits} hits / {} lookups, {} of {} entries resident",
            hits + misses,
            cache.len,
            cache.capacity
        ),
    );
    // Counts over the loop, and per call: a faster run makes more calls
    // in its window, so only the per-call figure compares across runs.
    for (name, per_call_name, c) in [
        (
            "himor.index_hits",
            "himor.index_hits_per_call",
            Counter::HimorIndexHits,
        ),
        (
            "influence.rr_graphs",
            "influence.rr_graphs_per_call",
            Counter::RrGraphsSampled,
        ),
        (
            "influence.rr_edges",
            "influence.rr_edges_per_call",
            Counter::RrEdgesTraversed,
        ),
        (
            "compressed.hfs_nodes_visited",
            "compressed.hfs_nodes_per_call",
            Counter::HfsNodesVisited,
        ),
    ] {
        let v = counter(c) as f64;
        report.layer(name, "count", v, per_call.clone());
        report.layer(per_call_name, "ratio", ratio(v, calls), per_call.clone());
    }
    let rr_edges = counter(Counter::RrEdgesTraversed);
    report.layer(
        "compressed.sample_ns_per_rr_edge",
        "ns",
        ratio(phase(Phase::Sample) * 1e9, rr_edges as f64),
        format!("sample phase over {rr_edges} RR edges"),
    );
    let (ph, pm) = (counter(Counter::PoolHits), counter(Counter::PoolMisses));
    report.layer(
        "pool.hit_ratio",
        "ratio",
        ratio(ph as f64, (ph + pm) as f64),
        format!(
            "{ph} hits / {} lookups, {} top-ups",
            ph + pm,
            counter(Counter::PoolTopups)
        ),
    );
    let pool = engine.pool_stats();
    report.layer(
        "pool.resident_bytes",
        "bytes",
        pool.resident_bytes as f64,
        format!("{} pools, budget {} bytes", pool.pools, pool.budget_bytes),
    );
    report.layer(
        "pool.evicted_bytes",
        "bytes",
        counter(Counter::PoolEvictedBytes) as f64,
        per_call,
    );
}

/// One completed operation of a closed loop.
pub struct Served {
    /// Position of the query in the workload's stream.
    pub idx: usize,
    /// Client-observed latency.
    pub ms: f64,
    /// The answer, or why the operation failed.
    pub answer: Result<Option<Answer>, String>,
}

/// What a closed loop did: its operations in completion order, its wall
/// time and (when tracing) its spans.
pub struct LoopOut {
    pub served: Vec<Served>,
    pub wall_s: f64,
    /// CPU seconds the system under test used during the loop.
    pub cpu_s: f64,
    pub spans: Spans,
}

/// Serves `order` (positions into `queries`) through direct engine calls
/// from `clients` closed-loop threads, one query per
/// `query_batch_seeded` call, until the order is exhausted or `seconds`
/// have passed. Each call is a span named `engine.call`.
pub fn direct_loop(
    engine: &CodEngine,
    queries: &[Query],
    order: &[usize],
    seconds: f64,
    clients: usize,
    spans_on: bool,
    epoch: Instant,
) -> LoopOut {
    let next = AtomicUsize::new(0);
    let seq = SeedSequence::new(QUERY_SEED);
    let limits = QueryLimits::default();
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let per_thread: Vec<(Vec<Served>, Spans)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|t| {
                let (next, seq, limits) = (&next, &seq, &limits);
                s.spawn(move || {
                    let mut spans = Spans::new(epoch, t as u64 + 1, spans_on);
                    let mut served = Vec::new();
                    while t0.elapsed().as_secs_f64() < seconds {
                        let Some(&idx) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        let q = &queries[idx];
                        let start = spans.now();
                        let t = Instant::now();
                        let result = engine.query_batch_seeded(
                            std::slice::from_ref(q),
                            seq,
                            idx as u64,
                            limits,
                        );
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        spans.record("engine.call", idx as u64, 0, start, spans.now());
                        let answer = match result.into_iter().next() {
                            Some(Ok(a)) => Ok(answer_of(&std::hint::black_box(a))),
                            Some(Err(e)) => Err(e.to_string()),
                            None => Err("empty batch result".into()),
                        };
                        served.push(Served { idx, ms, answer });
                    }
                    (served, spans)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut out = LoopOut {
        served: Vec::new(),
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
        spans: Spans::new(epoch, 0, spans_on),
    };
    for (served, spans) in per_thread {
        out.served.extend(served);
        out.spans.absorb(spans);
    }
    out
}

/// Tallies a loop's operations into `report` (attempted, failed, answer
/// checks) and returns the latencies of the successful ones.
pub fn tally(
    report: &mut Report,
    refs: &HashMap<Key, CodResult<Option<Answer>>>,
    queries: &[Query],
    out: &LoopOut,
) -> Vec<f64> {
    let mut ok_ms = Vec::with_capacity(out.served.len());
    for s in &out.served {
        report.attempted += 1;
        match &s.answer {
            Ok(a) => {
                check(report, refs, &queries[s.idx], a);
                ok_ms.push(s.ms);
            }
            Err(_) => report.failed += 1,
        }
    }
    ok_ms
}

/// Throughput, latency and CPU cost of a loop's successful operations.
pub fn latency_metrics(report: &mut Report, ok_ms: &[f64], out: &LoopOut) {
    let n = ok_ms.len();
    report.e2e(
        "cpu_ms_per_op",
        "ms",
        ratio(out.cpu_s * 1e3, n as f64),
        format!("{:.3} CPU s over {n} ops", out.cpu_s),
    );
    report.e2e(
        "ops_per_s",
        "1/s",
        n as f64 / out.wall_s,
        format!("{n} ops in {:.3} s", out.wall_s),
    );
    report.e2e("query_p50_ms", "ms", quantile(ok_ms, 0.5), format!("n={n}"));
    report.e2e(
        "query_p95_ms",
        "ms",
        quantile(ok_ms, 0.95),
        format!("n={n}, {} beyond", n / 20),
    );
}
