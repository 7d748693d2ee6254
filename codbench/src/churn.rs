//! `churn_durable_cora`: a streaming graph kept durable while queried.
//!
//! `DurableCod::create` on the cora-like graph with program defaults
//! (repair verification on, group-commit fsync) except a checkpoint every
//! 64 events. Each round applies and flushes one edge event, then issues
//! two `DurableCod::query` calls. At the end the WAL is flushed, the
//! handle dropped and `DurableCod::open` timed; the recovered snapshot
//! must equal the live one byte for byte.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cod_core::{
    CodConfig, DurabilityConfig, DurableCod, FlushOutcome, MappedArtifacts, Mutation,
    RecoveryReport,
};
use cod_graph::{AttrId, AttributedGraph, NodeId};
use cod_influence::Parallelism;
use rand::prelude::*;

use crate::engine::{answer_of, nproc, Answer};
use crate::spans::Spans;
use crate::stats::{median, peak_rss_mb, process_cpu_s, quantile, ratio, Report};
use crate::{Opts, SetupTime};

/// Generator seed of the cora-like graph. The graph is fixed; the
/// workload seed picks the events and queries.
const GRAPH_SEED: u64 = 1;

/// Pinned HIMOR seed of the durable engine.
const HIMOR_SEED: u64 = 0xC0D_1DE5;

/// Checkpoint cadence: every 64 applied events.
const CHECKPOINT_EVERY: u64 = 64;

/// Events generated per run: more than any run can apply.
const EVENTS: usize = 4_000;

/// Queries issued after each event.
const QUERIES_PER_EVENT: usize = 2;

fn config(trace: bool) -> CodConfig {
    CodConfig {
        parallelism: Parallelism::Threads(nproc()),
        trace,
        ..CodConfig::default()
    }
}

fn durability() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every_events: CHECKPOINT_EVERY,
        ..DurabilityConfig::default()
    }
}

/// The workload's inputs: edge events (50% insert an absent edge, 50%
/// remove an edge an earlier event inserted) and the queries issued after
/// each event.
struct Inputs {
    events: Vec<Mutation>,
    queries: Vec<(NodeId, AttrId)>,
}

fn inputs(g: &AttributedGraph, seed: u64) -> Inputs {
    let mut rng = SmallRng::seed_from_u64(seed);
    let norm = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
    let mut present: HashSet<(NodeId, NodeId)> = g.edges().map(|(u, v)| norm(u, v)).collect();
    let mut inserted: Vec<(NodeId, NodeId)> = Vec::new();
    let n = g.num_nodes() as NodeId;
    let mut events = Vec::with_capacity(EVENTS);
    while events.len() < EVENTS {
        if inserted.is_empty() || rng.random_bool(0.5) {
            let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
            if u == v || !present.insert(norm(u, v)) {
                continue;
            }
            inserted.push((u, v));
            events.push(Mutation::InsertEdge { u, v });
        } else {
            let (u, v) = inserted.swap_remove(rng.random_range(0..inserted.len()));
            present.remove(&norm(u, v));
            events.push(Mutation::RemoveEdge { u, v });
        }
    }
    let queries = cod_datasets::gen_queries(g, EVENTS * QUERIES_PER_EVENT, &mut rng);
    Inputs { events, queries }
}

/// A directory under [`crate::WORK_DIR`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        WorkDir(Path::new(crate::WORK_DIR).join(format!("{tag}-{}", std::process::id())))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// The RNG seed of query `i`: fixed per position, so the recovered engine
/// can be asked the same query with the same randomness.
fn query_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Everything one churn loop measured.
#[derive(Default)]
struct Churn {
    events: usize,
    queries: usize,
    failed: u64,
    wall_s: f64,
    cpu_s: f64,
    query_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    flush_ms: Vec<f64>,
    mutation_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: u64,
    wal_bytes: u64,
    fsyncs: u64,
    repaired: u64,
    spliced: u64,
    redrawn: u64,
    redraw_total: u64,
    rebuilds: u64,
    recovery: Option<RecoveryReport>,
    recovery_s: f64,
    /// The last round's queries (node, attribute, RNG seed) and answers,
    /// asked again of the recovered engine.
    last_round: Vec<(NodeId, AttrId, u64, Option<Answer>)>,
}

impl Churn {
    /// Successful events and queries per second.
    fn ops_per_s(&self) -> f64 {
        (self.mutation_ms.len() + self.query_ms.len()) as f64 / self.wall_s
    }
}

/// Runs rounds on `durable` for `opts.seconds`.
fn churn_loop(
    durable: &mut DurableCod,
    dir: &Path,
    inputs: &Inputs,
    opts: &Opts,
    spans: &mut Spans,
) -> Churn {
    let mut c = Churn::default();
    let fsyncs_before = durable.metrics_snapshot().wal_fsyncs;
    // Growth of the live WAL per event. A checkpoint rotates the WAL right
    // after the event's append, so that event's record length is taken
    // from the others (every edge event frames to the same length).
    let mut wal_growth: Vec<u64> = Vec::new();
    let mut rotated = 0u64;
    let mut wal_len = file_len(&dir.join(&durable.manifest().wal));
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    for (round, event) in inputs.events.iter().enumerate() {
        if t0.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
        let covered = durable.manifest().events_covered;
        let start = spans.now();
        let t = Instant::now();
        let applied = durable.apply(event);
        let apply_ms = t.elapsed().as_secs_f64() * 1e3;
        let mid = spans.now();
        let flushed = durable.flush();
        let total_ms = t.elapsed().as_secs_f64() * 1e3;
        let end = spans.now();
        let root = spans.record("churn.event", round as u64, 0, start, end);
        spans.record("durable.apply", round as u64, root, start, mid);
        spans.record("durable.flush", round as u64, root, mid, end);
        c.events += 1;
        let (Ok(_), Ok(flush)) = (applied, flushed) else {
            c.failed += 1;
            continue;
        };
        c.mutation_ms.push(total_ms);
        c.flush_ms.push(total_ms - apply_ms);
        if durable.manifest().events_covered > covered {
            c.checkpoint_ms.push(apply_ms);
            c.checkpoint_bytes += file_len(&dir.join(&durable.manifest().snapshot));
            rotated += 1;
            wal_len = file_len(&dir.join(&durable.manifest().wal));
        } else {
            c.apply_ms.push(apply_ms);
            let len = file_len(&dir.join(&durable.manifest().wal));
            wal_growth.push(len - wal_len);
            wal_len = len;
        }
        match flush.outcome {
            FlushOutcome::Repaired {
                spliced,
                samples_redrawn,
                samples_total,
            } => {
                c.repaired += 1;
                c.spliced += u64::from(spliced);
                c.redrawn += samples_redrawn;
                c.redraw_total += samples_total;
            }
            FlushOutcome::Rebuilt => c.rebuilds += 1,
            FlushOutcome::Noop | FlushOutcome::Refreshed => {}
        }

        c.last_round.clear();
        for j in 0..QUERIES_PER_EVENT {
            let i = round * QUERIES_PER_EVENT + j;
            let (node, attr) = inputs.queries[i];
            let start = spans.now();
            let t = Instant::now();
            let rng_seed = query_seed(opts.seed, i);
            let result = durable.query(node, attr, &mut SmallRng::seed_from_u64(rng_seed));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            spans.record("durable.query", i as u64, 0, start, spans.now());
            c.queries += 1;
            match result {
                Ok(a) => {
                    c.query_ms.push(ms);
                    c.last_round.push((node, attr, rng_seed, answer_of(&a)));
                }
                Err(_) => c.failed += 1,
            }
        }
    }
    c.wall_s = t0.elapsed().as_secs_f64();
    c.cpu_s = process_cpu_s() - cpu0;
    let record_len = median(&wal_growth.iter().map(|&b| b as f64).collect::<Vec<_>>());
    c.wal_bytes = wal_growth.iter().sum::<u64>() + (rotated as f64 * record_len) as u64;
    c.fsyncs = durable.metrics_snapshot().wal_fsyncs - fsyncs_before;
    c
}

/// Flushes the WAL, drops the live engine, times `DurableCod::open` and
/// checks the recovered state against the live one.
fn recover_and_check(
    mut durable: DurableCod,
    dir: &Path,
    cfg: CodConfig,
    c: &mut Churn,
    spans: &mut Spans,
    report: &mut Report,
) -> Result<(), String> {
    durable.flush_wal().map_err(|e| format!("flush_wal: {e}"))?;
    let live = durable
        .snapshot_bytes()
        .map_err(|e| format!("live snapshot: {e}"))?;
    drop(durable);
    let start = spans.now();
    let t = Instant::now();
    let (mut recovered, rep) =
        DurableCod::open(dir, cfg, durability()).map_err(|e| format!("recovery failed: {e}"))?;
    c.recovery_s = t.elapsed().as_secs_f64();
    spans.record("durable.open", 0, 0, start, spans.now());
    c.recovery = Some(rep);
    let restored = recovered
        .snapshot_bytes()
        .map_err(|e| format!("recovered snapshot: {e}"))?;
    // The recovered artifacts must be the live ones: same graph, same
    // tree, same HIMOR ranks. The byte images are compared as well but
    // only reported: a dendrogram repaired in place records its merges in
    // another order than the rebuild recovery performs, so the images of
    // one and the same tree can differ.
    if canonical(&restored)? != canonical(&live)? {
        report.mismatch(format!(
            "recovered artifacts differ from the live ones after {} events",
            c.events
        ));
    }
    let differing = live.iter().zip(&restored).filter(|(a, b)| a != b).count()
        + live.len().abs_diff(restored.len());
    report.note(format!(
        "durability: {differing} of {} bytes differ between the live and the recovered snapshot",
        live.len()
    ));
    for (node, attr, rng_seed, want) in &c.last_round {
        match recovered.query(*node, *attr, &mut SmallRng::seed_from_u64(*rng_seed)) {
            Ok(a) if answer_of(&a) == *want => {}
            Ok(a) => report.mismatch(format!(
                "query ({node}, {attr}) after recovery: {:?}, live {want:?}",
                answer_of(&a)
            )),
            Err(e) => report.mismatch(format!("query ({node}, {attr}) after recovery failed: {e}")),
        }
    }
    Ok(())
}

/// A snapshot image in canonical form: edges, attributes, the tree as the
/// sorted list of its communities, and each node's HIMOR ranks keyed by
/// community. Two images of the same artifacts compare equal whatever
/// order their merges were recorded in.
#[derive(PartialEq, Eq)]
struct Canonical {
    edges: Vec<(NodeId, NodeId)>,
    attrs: Vec<Vec<AttrId>>,
    communities: Vec<Vec<NodeId>>,
    ranks: Vec<Vec<(usize, u32)>>,
}

fn canonical(image: &[u8]) -> Result<Canonical, String> {
    let arts = MappedArtifacts::from_vec(image.to_vec()).map_err(|e| e.to_string())?;
    let g = arts.graph().map_err(|e| e.to_string())?;
    let h = arts.hierarchy().map_err(|e| e.to_string())?;
    let index = arts.himor().map_err(|e| e.to_string())?;
    let d = &h.dendro;
    let mut communities: Vec<Vec<NodeId>> = (0..d.num_vertices() as u32)
        .map(|v| d.members_sorted(v))
        .collect();
    communities.sort_unstable();
    let id: HashMap<&[NodeId], usize> = communities
        .iter()
        .enumerate()
        .map(|(i, c)| (c.as_slice(), i))
        .collect();
    let ranks = (0..g.num_nodes() as NodeId)
        .map(|v| {
            d.root_path(v)
                .iter()
                .zip(index.ranks_of(v))
                .map(|(&x, &r)| (id[d.members_sorted(x).as_slice()], r))
                .collect()
        })
        .collect();
    Ok(Canonical {
        edges: g.edges().collect(),
        attrs: (0..g.num_nodes() as NodeId)
            .map(|v| g.node_attrs(v).to_vec())
            .collect(),
        communities,
        ranks,
    })
}

/// `DurableCod::create` in a fresh directory, timed.
fn create(
    g: &AttributedGraph,
    cfg: CodConfig,
    tag: &str,
) -> Result<(DurableCod, WorkDir, SetupTime), String> {
    let dir = WorkDir::new(tag);
    let (durable, time) =
        crate::timed(|| DurableCod::create(&dir.0, g, cfg, HIMOR_SEED, durability()));
    let durable = durable.map_err(|e| format!("create: {e}"))?;
    Ok((durable, dir, time))
}

pub fn run(opts: &Opts) -> Result<Report, String> {
    let g = cod_datasets::cora_like(GRAPH_SEED).graph;
    let inputs = inputs(&g, opts.seed);
    let epoch = Instant::now();
    let mut report = Report::default();

    let (mut durable, dir, first) = create(&g, config(false), "churn")?;
    let mut no_spans = Spans::new(epoch, 0, false);
    let mut untraced = churn_loop(&mut durable, &dir.0, &inputs, opts, &mut no_spans);
    report.e2e("peak_rss_mb", "MiB", peak_rss_mb(), String::new());
    recover_and_check(
        durable,
        &dir.0,
        config(false),
        &mut untraced,
        &mut no_spans,
        &mut report,
    )?;
    drop(dir);
    let mut k = 0;
    crate::record_setup(&mut report, first, || {
        k += 1;
        create(&g, config(false), &format!("churn-setup-{k}")).map(|(_, _, time)| time)
    })?;
    end_to_end(&mut report, &untraced);

    if opts.trace {
        let (mut durable, dir, _) = create(&g, config(true), "churn-traced")?;
        let mut spans = Spans::new(epoch, 1, true);
        let mut traced = churn_loop(&mut durable, &dir.0, &inputs, opts, &mut spans);
        recover_and_check(
            durable,
            &dir.0,
            config(true),
            &mut traced,
            &mut spans,
            &mut report,
        )?;
        drop(dir);
        report.attempted += (traced.events + traced.queries) as u64;
        report.failed += traced.failed;
        layers(&mut report, &traced);
        report.layer(
            "trace.overhead_ratio",
            "ratio",
            untraced.ops_per_s() / traced.ops_per_s(),
            format!(
                "{:.2} / {:.2} ops/s",
                untraced.ops_per_s(),
                traced.ops_per_s()
            ),
        );
        crate::write_spans(opts, &spans)?;
    }
    Ok(report)
}

fn end_to_end(report: &mut Report, c: &Churn) {
    report.attempted += (c.events + c.queries) as u64;
    report.failed += c.failed;
    let ok = c.mutation_ms.len() + c.query_ms.len();
    report.e2e(
        "cpu_ms_per_op",
        "ms",
        ratio(c.cpu_s * 1e3, ok as f64),
        format!("{:.3} CPU s over {ok} events and queries", c.cpu_s),
    );
    report.e2e(
        "ops_per_s",
        "1/s",
        c.ops_per_s(),
        format!(
            "{} events + {} queries in {:.3} s",
            c.mutation_ms.len(),
            c.query_ms.len(),
            c.wall_s
        ),
    );
    for (name, values, p) in [
        ("query_p50_ms", &c.query_ms, 0.5),
        ("query_p95_ms", &c.query_ms, 0.95),
        ("mutation_p50_ms", &c.mutation_ms, 0.5),
        ("mutation_p95_ms", &c.mutation_ms, 0.95),
    ] {
        report.e2e(
            name,
            "ms",
            quantile(values, p),
            format!("n={}", values.len()),
        );
    }
    report.e2e(
        "recovery_s",
        "s",
        c.recovery_s,
        format!(
            "replayed {} WAL records",
            c.recovery.map_or(0, |r| r.replayed)
        ),
    );
    report.e2e(
        "write_bytes_per_event",
        "bytes",
        ratio((c.wal_bytes + c.checkpoint_bytes) as f64, c.events as f64),
        format!(
            "{} WAL + {} checkpoint bytes over {} events",
            c.wal_bytes, c.checkpoint_bytes, c.events
        ),
    );
}

fn layers(report: &mut Report, c: &Churn) {
    let events = c.events as f64;
    report.layer(
        "engine.call_ms_p50",
        "ms",
        quantile(&c.query_ms, 0.5),
        format!("DurableCod::query, n={}", c.query_ms.len()),
    );
    // `DurableCod::query` reports no phase times, so the whole call is
    // unattributed time of the engine layer.
    let query_s: f64 = c.query_ms.iter().sum::<f64>() / 1e3;
    report.layer(
        "engine.unattributed_s",
        "s",
        query_s,
        format!("all of {} DurableCod::query calls", c.query_ms.len()),
    );
    report.layer(
        "engine.unattributed_share",
        "ratio",
        ratio(query_s, query_s),
        "DurableCod::query reports no phase times".into(),
    );
    report.layer(
        "dynamic.apply_ms_p50",
        "ms",
        quantile(&c.apply_ms, 0.5),
        format!("events without a checkpoint, n={}", c.apply_ms.len()),
    );
    report.layer(
        "dynamic.flush_ms_p50",
        "ms",
        quantile(&c.flush_ms, 0.5),
        format!("n={}", c.flush_ms.len()),
    );
    report.layer(
        "dynamic.flush_ms_p95",
        "ms",
        quantile(&c.flush_ms, 0.95),
        format!("n={}", c.flush_ms.len()),
    );
    let flush_s: f64 = c.flush_ms.iter().sum();
    let mutation_s: f64 = c.mutation_ms.iter().sum();
    report.layer(
        "dynamic.flush_share",
        "ratio",
        ratio(flush_s, mutation_s),
        format!("flush {flush_s:.3} ms of apply+flush {mutation_s:.3} ms"),
    );
    report.layer(
        "repair.splice_kept_ratio",
        "ratio",
        ratio(c.spliced as f64, c.repaired as f64),
        format!("{} spliced / {} repairs", c.spliced, c.repaired),
    );
    report.layer(
        "himor.redraw_ratio",
        "ratio",
        ratio(c.redrawn as f64, c.redraw_total as f64),
        format!("{} redrawn / {} samples", c.redrawn, c.redraw_total),
    );
    report.layer(
        "dynamic.rebuilds",
        "count",
        c.rebuilds as f64,
        format!("over {} events", c.events),
    );
    report.layer(
        "dynamic.rebuild_ratio",
        "ratio",
        ratio(c.rebuilds as f64, events),
        format!("{} rebuilds / {} events", c.rebuilds, c.events),
    );
    report.layer(
        "wal.fsyncs_per_event",
        "ratio",
        ratio(c.fsyncs as f64, events),
        format!("{} fsyncs / {} events", c.fsyncs, c.events),
    );
    report.layer(
        "wal.bytes_per_event",
        "bytes",
        ratio(c.wal_bytes as f64, events),
        format!("{} bytes / {} events", c.wal_bytes, c.events),
    );
    report.layer(
        "checkpoint.ms_p50",
        "ms",
        quantile(&c.checkpoint_ms, 0.5),
        format!("apply calls that checkpointed, n={}", c.checkpoint_ms.len()),
    );
    report.layer(
        "checkpoint.bytes",
        "bytes",
        c.checkpoint_bytes as f64,
        format!("{} checkpoints", c.checkpoint_ms.len()),
    );
    report.layer(
        "checkpoint.bytes_per_checkpoint",
        "bytes",
        ratio(c.checkpoint_bytes as f64, c.checkpoint_ms.len() as f64),
        format!("{} checkpoints", c.checkpoint_ms.len()),
    );
    report.layer(
        "recovery.replayed",
        "count",
        c.recovery.map_or(0, |r| r.replayed) as f64,
        format!("recovery took {:.6} s", c.recovery_s),
    );
}
