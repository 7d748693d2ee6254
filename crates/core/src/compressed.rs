//! Algorithm 1: compressed COD evaluation (§III).
//!
//! Two stages over one shared pool of RR graphs:
//!
//! 1. **Shared sample generation + hierarchical-first search (HFS).** Each
//!    RR graph is traversed once, level by level: a node is recorded in the
//!    bucket of the *deepest* chain community within which it is reachable
//!    from the RR-graph source (Definition 3 / Theorem 2). Per-level FIFO
//!    queues give O(1) insertion, and every RR-graph node is explored once
//!    (Lemma 2).
//! 2. **Incremental top-k evaluation.** Buckets are scanned from the
//!    deepest community upward, accumulating counts (`τ`); by Theorem 3 a
//!    node absent from the current bucket and from the running top-k pool
//!    can never (re-)enter the top-k, so only `(pool ∪ bucket)` needs
//!    re-ranking per level.
//!
//! Total cost `O(Θ·ω + |H(q)|)` (Theorem 4).

use cod_graph::{Csr, FxHashMap, NodeId};
use cod_influence::{par_ranges, CancelToken, Model, Parallelism, RrRef, RrSampler, SeedSequence};
use rand::prelude::*;
use std::ops::Range;

use crate::chain::Chain;
use crate::error::{CodError, CodResult};
use crate::failpoint;
use crate::pool::{PoolView, RrPoolEntry};
use crate::scratch::{HfsScratch, LevelTable, QueryScratch, TopKScratch};
use crate::telemetry::{Counter, Phase, TraceSink};
use std::time::Instant;

/// The result of one compressed COD evaluation.
///
/// `PartialEq` compares every field (including the `f64` sigma estimates
/// bit-for-bit after the IEEE `==`), which is exactly what the seed-replay
/// determinism tests need.
#[derive(Clone, Debug, PartialEq)]
pub struct CodOutcome {
    /// Index (into the chain) of the characteristic community `C*(q)` — the
    /// largest community where `q` ranked top-k — if any.
    pub best_level: Option<usize>,
    /// Per-level estimated 1-based rank of `q`. Exact whenever `≤ k`
    /// (larger values are lower bounds: nodes outside the top-k pool are
    /// not counted).
    pub ranks: Vec<usize>,
    /// Per-level estimated influence `σ̂_{C_h}(q)` (count / Θ · |universe|).
    pub sigma_q: Vec<f64>,
    /// Per-level flag: the top-k verdict could plausibly flip under
    /// sampling noise (an adversarial ±z·√count perturbation changes it).
    /// Drives the adaptive sampler ([`compressed_cod_adaptive`]).
    pub uncertain: Vec<bool>,
    /// Number of RR graphs generated.
    pub theta: usize,
    /// A sample budget cut the evaluation short of the requested `Θ`: the
    /// answer is best-effort and should be flagged `uncertain` downstream.
    pub truncated: bool,
    /// Cooperative cancellation (a deadline, a resource cap, or a forced
    /// failpoint injection) stopped stage 1 at a batch boundary: `theta`
    /// reports the samples actually drawn and the answer is best-effort.
    /// Implies [`CodOutcome::truncated`].
    pub cancelled: bool,
}

impl CodOutcome {
    fn empty() -> Self {
        CodOutcome {
            best_level: None,
            ranks: Vec::new(),
            sigma_q: Vec::new(),
            uncertain: Vec::new(),
            theta: 0,
            truncated: false,
            cancelled: false,
        }
    }
}

/// One compressed-COD request: the paper's query signature — graph,
/// model, chain `H(q)`, query node, rank threshold and per-node sample
/// density — plus an optional total-sample budget.
///
/// `theta` is the paper's `θ`; the total sample count is
/// `Θ = θ · |universe|` where the universe is the chain's largest
/// community. RR-graph sources are uniform over the universe and traversal
/// is restricted to it (a no-op when the chain tops out at the whole
/// graph). With a `budget` smaller than `Θ` the evaluation runs on
/// whatever the budget permits and flags the outcome
/// [`CodOutcome::truncated`].
pub struct CodRequest<'a, C> {
    /// The graph RR samples are drawn on.
    pub g: &'a Csr,
    /// The diffusion model.
    pub model: Model,
    /// The hierarchical-community chain `H(q)`.
    pub chain: &'a C,
    /// The query node (must lie in the chain's deepest community).
    pub q: NodeId,
    /// The rank threshold (`k ≥ 1`).
    pub k: usize,
    /// RR graphs per universe node (`θ`).
    pub theta: usize,
    /// Optional cap on the total RR samples stage 1 may use.
    pub budget: Option<usize>,
}

impl<'a, C> CodRequest<'a, C> {
    /// A request without a sample budget.
    pub fn new(g: &'a Csr, model: Model, chain: &'a C, q: NodeId, k: usize, theta: usize) -> Self {
        CodRequest {
            g,
            model,
            chain,
            q,
            k,
            theta,
            budget: None,
        }
    }
}

/// Where stage 1's RR graphs come from.
#[derive(Clone, Copy)]
pub enum Samples<'a> {
    /// Draw `Θ` fresh RR graphs: sample `i` takes its source and its graph
    /// entirely from `SeedSequence::new(seed).rng_for(i)`, so the outcome
    /// is a pure function of `(request, seed)` — identical at every
    /// thread count of `par` and across runs.
    Fresh {
        /// The master seed of the per-index seed sequence.
        seed: u64,
        /// Fan-out policy for the sampling loop.
        par: Parallelism,
    },
    /// Fold the first `Θ` RR graphs of a shared pool entry (the
    /// cross-query cache of [`crate::pool`]), growing it first if it holds
    /// fewer. The budget charges only the *new* draws — pooled samples are
    /// already paid for ([`resolve_theta_pooled`]). Pool samples are derived
    /// from the cache key, so the outcome is identical whether the pool was
    /// warm, cold or grown in several top-ups, at every thread count.
    Pooled {
        /// The pool whose universe matches the chain's.
        entry: &'a RrPoolEntry,
        /// Fan-out policy for pool growth.
        par: Parallelism,
    },
}

/// Stage-1 draws between governance checkpoints. Polls are this coarse so
/// the ungoverned fast path pays nothing measurable (the ≤5% overhead gate
/// in `bench_report`), yet a fired token stops within one batch.
const CHECK_EVERY: usize = 64;

/// Runs compressed COD evaluation (Algorithm 1) for `req` over `samples`,
/// with an optional reusable [`QueryScratch`] workspace and cooperative
/// governance.
///
/// Neither the workspace nor the resolved thread count can change a single
/// bit of the result: per-index samples merge by commutative count
/// addition. Under `cancel`, every `CHECK_EVERY` draws stage 1 hits the
/// `SampleBatch` (or `PoolFold`) failpoint, charges the RR edges traversed
/// since the last poll and an estimate of live stage-1 memory against the
/// token's caps, and — once the token fires — stops at the batch boundary.
/// The partial buckets still run stage 2, so the caller gets a best-effort
/// outcome with [`CodOutcome::cancelled`] (and `truncated`) set and `theta`
/// reporting the draws that completed; a token that fires before the first
/// draw yields an empty outcome with the flags set. Checkpoints never touch
/// an RNG, so with `cancel: None` — or a token that never fires — the
/// outcome is bit-identical to the ungoverned path.
///
/// Fails with [`CodError::InvalidQuery`] when `k == 0` or `q` is not in the
/// chain's deepest community, and with [`CodError::BudgetExhausted`] when
/// the budget permits no new samples at all.
pub fn compressed_cod<C: Chain>(
    req: &CodRequest<'_, C>,
    samples: Samples<'_>,
    scratch: Option<&mut QueryScratch>,
    cancel: Option<&CancelToken>,
) -> CodResult<CodOutcome> {
    let CodRequest {
        g,
        model,
        chain,
        q,
        k,
        theta: theta_per_node,
        budget,
    } = *req;
    if !validate_chain_query(chain, q, k)? {
        return Ok(CodOutcome::empty());
    }
    let universe = chain.universe();
    let mut own = QueryScratch::new();
    let ws = scratch.unwrap_or(&mut own);

    // --- Stage 1: shared sample generation (or pool fold) + HFS ---------
    // Phase timers are read outside the per-sample loop, and counters are
    // plain integer adds that never touch an RNG — telemetry observes the
    // evaluation without perturbing the drawn samples. Governance polls
    // are integer/atomic reads at batch boundaries, neutral the same way.
    let (theta, truncated, completed, t_sample) = match samples {
        Samples::Fresh { seed, par } => {
            let (theta, truncated) = resolve_theta(theta_per_node, universe.len(), budget)?;
            ws.prepare(chain, &universe);
            let t_sample = ws.sink.timing().then(Instant::now);
            let seeds = SeedSequence::new(seed);
            let completed = sample_fresh(g, model, &universe, seeds, par, theta, ws, cancel);
            (theta, truncated, completed, t_sample)
        }
        Samples::Pooled { entry, par } => {
            debug_assert_eq!(
                entry.universe(),
                &universe[..],
                "pool key does not match the chain's universe"
            );
            let (theta, truncated) =
                resolve_theta_pooled(theta_per_node, universe.len(), budget, entry.len())?;
            let (view, grown) = entry.ensure(g, model, theta, par, cancel);
            ws.sink.add(Counter::RrGraphsSampled, grown.graphs);
            ws.sink.add(Counter::RrEdgesTraversed, grown.edges);
            if grown.topped_up {
                ws.sink.incr(Counter::PoolTopups);
            }
            ws.prepare(chain, &universe);
            let t_sample = ws.sink.timing().then(Instant::now);
            let completed = fold_pool(&view, theta, ws, cancel);
            (theta, truncated, completed, t_sample)
        }
    };
    ws.levels.drain_into(&ws.hfs.counts, &mut ws.buckets);
    if let Some(t0) = t_sample {
        ws.sink
            .add_nanos(Phase::Sample, t0.elapsed().as_nanos() as u64);
    }
    let cancelled = completed < theta;
    if cancelled && completed == 0 {
        // Nothing was drawn: stage 2 over empty buckets would fabricate a
        // rank-1 verdict from zero evidence. Report "no answer" instead.
        let mut out = CodOutcome::empty();
        out.truncated = true;
        out.cancelled = true;
        return Ok(out);
    }

    // --- Stage 2: incremental top-k evaluation --------------------------
    let t_topk = ws.sink.timing().then(Instant::now);
    let mut out = incremental_top_k_with(
        &ws.buckets,
        q,
        k,
        completed,
        universe.len(),
        &mut ws.topk,
        &mut ws.sink,
    );
    if let Some(t0) = t_topk {
        ws.sink
            .add_nanos(Phase::TopK, t0.elapsed().as_nanos() as u64);
    }
    out.truncated = truncated || cancelled;
    out.cancelled = cancelled;
    Ok(out)
}

/// Stage 1 on fresh samples: draws `theta` RR graphs into the workspace's
/// counter table and returns how many completed before `cancel` fired.
///
/// A single thread reuses the workspace's sampler scratch. More threads
/// each sample a contiguous index range into their own counter table.
/// Which range a sample lands in only decides *where* its counts
/// accumulate; count addition commutes, so the merged table is independent
/// of the chunking. Each shard also carries its own counter sink, merged
/// the same way. Workers poll the shared token at the same batch cadence; a
/// fired token stops every shard at its next boundary, and the per-shard
/// completion counts sum to the draws actually made.
#[allow(clippy::too_many_arguments)] // stage-1 inputs plus workspace and token
fn sample_fresh(
    g: &Csr,
    model: Model,
    universe: &[NodeId],
    seeds: SeedSequence,
    par: Parallelism,
    theta: usize,
    ws: &mut QueryScratch,
    cancel: Option<&CancelToken>,
) -> usize {
    let restricted = universe.len() < g.num_nodes();
    if par.thread_count() <= 1 {
        let mut sampler = RrSampler::with_scratch(g, model, std::mem::take(&mut ws.sampler));
        let done = sample_range(
            &mut sampler,
            0..theta,
            seeds,
            universe,
            restricted,
            &ws.levels,
            &mut ws.hfs,
            &mut ws.sink,
            cancel,
        );
        ws.sampler = sampler.into_scratch();
        return done;
    }
    let levels = &ws.levels;
    let shards = par_ranges(theta, par.thread_count(), |range| {
        let mut sampler = RrSampler::new(g, model);
        let mut hfs = HfsScratch::default();
        hfs.prepare(levels.depth(), levels.cells());
        let mut sink = TraceSink::new(false);
        let done = sample_range(
            &mut sampler,
            range,
            seeds,
            universe,
            restricted,
            levels,
            &mut hfs,
            &mut sink,
            cancel,
        );
        (hfs.counts, sink, done)
    });
    let mut completed = 0;
    for (counts, sink, done) in shards {
        for (total, c) in ws.hfs.counts.iter_mut().zip(counts) {
            *total += c;
        }
        ws.sink.merge(&sink);
        completed += done;
    }
    completed
}

/// Draws the samples of one index `range`, polling `cancel` every
/// `CHECK_EVERY` draws, and charges the sampling effort to `sink`.
/// Returns the draws that completed.
#[allow(clippy::too_many_arguments)] // private loop shared by the one-thread and sharded paths
fn sample_range(
    sampler: &mut RrSampler<'_>,
    range: Range<usize>,
    seeds: SeedSequence,
    universe: &[NodeId],
    restricted: bool,
    levels: &LevelTable,
    hfs: &mut HfsScratch,
    sink: &mut TraceSink,
    cancel: Option<&CancelToken>,
) -> usize {
    let before = sampler.stats();
    let mut charged = before;
    let mut done = 0;
    for (off, i) in range.enumerate() {
        if off % CHECK_EVERY == 0 {
            failpoint::hit(failpoint::Site::SampleBatch, cancel);
            if let Some(tok) = cancel {
                let now = sampler.stats();
                tok.charge_rr_edges(now.delta_since(charged).edges);
                charged = now;
                tok.charge_memory(stage1_memory_estimate(levels, hfs));
                if tok.should_stop() {
                    break;
                }
            }
        }
        let mut rng = seeds.rng_for(i as u64);
        draw_and_record(
            sampler, universe, restricted, levels, &mut rng, hfs, sink, cancel,
        );
        done += 1;
    }
    let drawn = sampler.stats().delta_since(before);
    sink.add(Counter::RrGraphsSampled, drawn.graphs);
    sink.add(Counter::RrEdgesTraversed, drawn.edges);
    done
}

/// Stage 1 over an already-sampled pool view: folds `min(theta,
/// view.len())` graphs through HFS and returns how many completed. Fewer
/// than `theta` (a growth cancelled mid-way, or a fold stopped at a batch
/// boundary) flags the outcome cancelled and best-effort, mirroring the
/// sampling path.
fn fold_pool(
    view: &PoolView,
    theta: usize,
    ws: &mut QueryScratch,
    cancel: Option<&CancelToken>,
) -> usize {
    let mut completed = 0;
    for (i, rr) in view.iter().take(theta).enumerate() {
        if i % CHECK_EVERY == 0 {
            failpoint::hit(failpoint::Site::PoolFold, cancel);
            if let Some(tok) = cancel {
                tok.charge_memory(stage1_memory_estimate(&ws.levels, &ws.hfs));
                if tok.should_stop() {
                    break;
                }
            }
        }
        let ls = ws.levels.level_of(rr.source());
        if ls >= ws.levels.depth() {
            // Source outside every chain community: the induced RR graph
            // is empty (Example 3) — nothing to record, but the sample
            // still counts toward Θ, exactly like the sampling path.
            ws.sink.incr(Counter::HfsNodesPruned);
        } else {
            hfs_record(rr, ls, &ws.levels, &mut ws.hfs, &mut ws.sink, cancel);
        }
        completed += 1;
    }
    completed
}

/// Approximate live bytes of stage-1 state for [`CancelToken`] memory
/// accounting: the dense level and counter tables, the HFS scratch
/// capacities, and the bucket entries the fold will materialize for
/// stage 2 — one per distinct counter touched so far, the part that grows
/// with samples. Map overhead is folded into a flat per-entry constant —
/// the cap is a guard rail, not an allocator audit.
fn stage1_memory_estimate(levels: &LevelTable, hfs: &HfsScratch) -> usize {
    const BUCKET_ENTRY_BYTES: usize =
        2 * std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>(); // key + count + control byte slack
    hfs.touched * BUCKET_ENTRY_BYTES + hfs.memory_bytes() + levels.memory_bytes()
}

/// The shared per-sample body of stage 1: draw a source, generate its RR
/// graph into the sampler's scratch arena (restricted to the universe
/// when the chain doesn't span the graph), and fold it into the counter
/// table via HFS.
#[inline]
#[allow(clippy::too_many_arguments)] // private loop body of `sample_range`
fn draw_and_record<R: Rng>(
    sampler: &mut RrSampler<'_>,
    universe: &[NodeId],
    restricted: bool,
    levels: &LevelTable,
    rng: &mut R,
    hfs: &mut HfsScratch,
    sink: &mut TraceSink,
    cancel: Option<&CancelToken>,
) {
    let s = universe[rng.random_range(0..universe.len())];
    let ls = levels.level_of(s);
    if ls >= levels.depth() {
        // Source outside every chain community: its induced RR graphs
        // are all empty (Example 3) — nothing to record.
        sink.incr(Counter::HfsNodesPruned);
        return;
    }
    let rr = if restricted {
        sampler.sample_view(s, rng, |v| universe.binary_search(&v).is_ok())
    } else {
        sampler.sample_view(s, rng, |_| true)
    };
    hfs_record(rr, ls, levels, hfs, sink, cancel);
}

/// Shared argument validation for the evaluation entry points. `Ok(false)`
/// means the chain is empty and the caller should return
/// [`CodOutcome::empty`].
fn validate_chain_query(chain: &impl Chain, q: NodeId, k: usize) -> CodResult<bool> {
    if k == 0 {
        return Err(CodError::InvalidQuery("top-k requires k >= 1".into()));
    }
    if chain.len() == 0 {
        return Ok(false);
    }
    if chain.level_of(q) != Some(0) {
        return Err(CodError::InvalidQuery(format!(
            "query node {q} is not in the chain's deepest community"
        )));
    }
    Ok(true)
}

/// Resolves the effective sample count on the shared-pool path, where the
/// budget caps *new* draws only — samples already resident in the pool are
/// paid for. `pooled` is the pool size before this query grows it.
///
/// With a zero budget the error's `required` figure is the chain-wide
/// `θ·|universe|` net of the pooled samples: exactly the draws this query
/// would still have to make.
pub fn resolve_theta_pooled(
    theta_per_node: usize,
    universe_len: usize,
    budget: Option<usize>,
    pooled: usize,
) -> CodResult<(usize, bool)> {
    let full_theta = theta_per_node.max(1) * universe_len;
    let needed_new = full_theta.saturating_sub(pooled);
    let theta = match budget {
        Some(0) if needed_new > 0 => {
            return Err(CodError::BudgetExhausted {
                budget: 0,
                required: needed_new,
            });
        }
        Some(b) => full_theta.min(pooled.saturating_add(b)),
        None => full_theta,
    };
    Ok((theta, theta < full_theta))
}

/// Resolves the effective sample count under an optional budget.
fn resolve_theta(
    theta_per_node: usize,
    universe_len: usize,
    budget: Option<usize>,
) -> CodResult<(usize, bool)> {
    let full_theta = theta_per_node.max(1) * universe_len;
    let theta = match budget {
        Some(0) => {
            // `required` is the chain-wide draw count `θ·|universe|` the
            // full evaluation would make — not the per-node θ.
            return Err(CodError::BudgetExhausted {
                budget: 0,
                required: full_theta,
            });
        }
        Some(b) => full_theta.min(b),
        None => full_theta,
    };
    Ok((theta, theta < full_theta))
}

/// Hierarchical-first search over one RR graph (stage 1 inner loop of
/// Algorithm 1): every RR node is counted in the row of the deepest chain
/// community within which it is reachable from the source. `ls` is the
/// source's chain level; node levels come from the per-query dense
/// `levels` table, so HFS issues no `Chain::level_of` query.
///
/// Every RR node is reachable from the source (the sampler only adds
/// nodes it reached), so when all of them lie inside `C_ls` each one is
/// recorded at level `ls` and the traversal is skipped. A cancelled token
/// abandons the graph, or the remaining levels of its traversal (the
/// caller flags the outcome best-effort).
fn hfs_record(
    rr: RrRef<'_>,
    ls: usize,
    levels: &LevelTable,
    hfs: &mut HfsScratch,
    sink: &mut TraceSink,
    cancel: Option<&CancelToken>,
) {
    let visited = if rr.nodes()[1..].iter().all(|&v| levels.level_of(v) <= ls) {
        failpoint::hit(failpoint::Site::HfsLevel, cancel);
        if cancel.is_some_and(CancelToken::is_cancelled) {
            0
        } else {
            let row = levels.row(ls);
            for &v in rr.nodes() {
                hfs.bump(row + levels.column(v));
            }
            rr.len() as u64
        }
    } else {
        hfs_traverse(rr, ls, levels, hfs, cancel)
    };
    sink.add(Counter::HfsNodesVisited, visited);
    sink.add(Counter::HfsNodesPruned, rr.len() as u64 - visited);
}

/// The level-by-level traversal behind [`hfs_record`]: per-level stacks
/// give O(1) insertion, every RR node is explored once (Lemma 2), and the
/// level loop ends once no stack holds work. Returns the nodes recorded.
/// Leaves `hfs.queues` drained for reuse, also on cancellation.
fn hfs_traverse(
    rr: RrRef<'_>,
    ls: usize,
    levels: &LevelTable,
    hfs: &mut HfsScratch,
    cancel: Option<&CancelToken>,
) -> u64 {
    let m = levels.depth();
    let mut visited = 0u64;
    let mut pending = 1usize;
    hfs.explored.clear();
    hfs.explored.resize(rr.len(), false);
    hfs.queues[ls].push(0);
    for h in ls..m {
        if pending == 0 {
            break;
        }
        if hfs.queues[h].is_empty() {
            continue;
        }
        failpoint::hit(failpoint::Site::HfsLevel, cancel);
        if cancel.is_some_and(CancelToken::is_cancelled) {
            for queue in &mut hfs.queues[h..m] {
                queue.clear();
            }
            break;
        }
        let row = levels.row(h);
        while let Some(v) = hfs.queues[h].pop() {
            pending -= 1;
            if hfs.explored[v as usize] {
                continue;
            }
            hfs.explored[v as usize] = true;
            visited += 1;
            hfs.bump(row + levels.column(rr.node(v)));
            for &u in rr.out_neighbors(v) {
                if hfs.explored[u as usize] {
                    continue;
                }
                // `lu >= m` marks nodes outside every chain community
                // (possible when the chain excludes its sampling
                // universe's root): no within-chain path passes them.
                let lu = levels.level_of(rr.node(u));
                if lu >= m {
                    continue;
                }
                hfs.queues[lu.max(h)].push(u);
                pending += 1;
            }
        }
    }
    visited
}

/// Stage 2 of Algorithm 1, exposed for direct use and testing: scans
/// buckets from the deepest community upward maintaining the tie-inclusive
/// top-k pool justified by Theorem 3.
///
/// `buckets[h]` maps nodes to the number of RR graphs in which HFS first
/// reached them at level `h`; `theta` and `universe_len` only scale the
/// reported `sigma_q` values.
pub fn incremental_top_k(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
) -> CodOutcome {
    incremental_top_k_with(
        buckets,
        q,
        k,
        theta,
        universe_len,
        &mut TopKScratch::default(),
        &mut TraceSink::default(),
    )
}

/// [`incremental_top_k`] with a reusable scratch workspace (the τ map and
/// the pool/candidate/τ-sort vectors). The scan is iteration-order
/// independent — counts fold through commutative addition and candidates
/// are sorted before use — so recycled map capacity cannot change the
/// outcome.
pub(crate) fn incremental_top_k_with(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
    t: &mut TopKScratch,
    sink: &mut TraceSink,
) -> CodOutcome {
    assert!(k >= 1, "top-k requires k >= 1");
    t.prepare();
    let TopKScratch {
        tau,
        pool,
        candidates,
        taus,
    } = t;
    let m = buckets.len();
    // Pool: every node whose τ ties-or-beats the k-th highest seen so far.
    // Theorem 3 guarantees nodes outside (pool ∪ bucket) cannot enter the
    // top-k at the next level.
    let mut best_level = None;
    let mut ranks = Vec::with_capacity(m);
    let mut sigma_q = Vec::with_capacity(m);
    let mut uncertain = Vec::with_capacity(m);

    #[allow(clippy::needless_range_loop)] // h indexes three parallel per-level structures
    for h in 0..m {
        for (&v, &c) in &buckets[h] {
            *tau.entry(v).or_insert(0) += c;
        }
        candidates.clear();
        candidates.extend(pool.iter().copied());
        candidates.extend(buckets[h].keys().copied());
        candidates.sort_unstable();
        candidates.dedup();
        // The |pool ∪ bucket| candidate evaluations Theorem 3 bounds.
        sink.add(Counter::TopKHeapOps, candidates.len() as u64);

        // k-th highest τ among candidates (0 if fewer than k candidates).
        taus.clear();
        taus.extend(candidates.iter().map(|&v| tau[&v]));
        taus.sort_unstable_by(|a, b| b.cmp(a));
        let t_k = if taus.len() >= k { taus[k - 1] } else { 0 };
        pool.clear();
        pool.extend(
            candidates
                .iter()
                .copied()
                .filter(|&v| tau[&v] >= t_k.max(1)),
        );

        let tq = tau.get(&q).copied().unwrap_or(0);
        let higher = candidates.iter().filter(|&&v| tau[&v] > tq).count();
        let rank = higher + 1;
        // Uncertainty: would an adversarial ±z·√(τ(v)+τ(q)) count
        // perturbation flip the top-k verdict? (z ≈ 2, two-sided ~95%.)
        let margin = |tv: u32| 2.0 * ((tv + tq + 1) as f64).sqrt();
        let higher_lo = candidates
            .iter()
            .filter(|&&v| v != q && tau[&v] as f64 > tq as f64 + margin(tau[&v]))
            .count();
        let higher_hi = candidates
            .iter()
            .filter(|&&v| v != q && tau[&v] as f64 > tq as f64 - margin(tau[&v]))
            .count();
        uncertain.push((higher_lo < k) != (higher_hi < k));
        ranks.push(rank);
        sigma_q.push(tq as f64 / theta as f64 * universe_len as f64);
        if rank <= k {
            best_level = Some(h);
        }
    }

    CodOutcome {
        best_level,
        ranks,
        sigma_q,
        uncertain,
        theta,
        truncated: false,
        cancelled: false,
    }
}

/// How an adaptive evaluation escalated and where it stopped.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveReport {
    /// Doubling rounds executed (≥ 1).
    pub rounds: usize,
    /// Total samples folded in the final round.
    pub theta: usize,
    /// The requested half-width bound, on the normalized influence scale
    /// `p̂ = τ_q/Θ ∈ [0, 1]`.
    pub epsilon: f64,
    /// The achieved confidence half-width at the final round, read at the
    /// answer's level ([`influence_half_width`]).
    pub half_width: f64,
    /// The loop stopped because the bound was met (every level's top-k
    /// verdict stable *and* `half_width ≤ epsilon`), not because it ran
    /// into `θ_max` or a cancellation.
    pub converged: bool,
}

/// Confidence half-width of a normalized influence estimate `p̂ = τ_q/Θ`
/// from `theta` Bernoulli trials, at confidence `1 − delta`: the tighter
/// of the empirical-Bernstein bound
/// `√(2·p̂(1−p̂)·ln(3/δ)/Θ) + 3·ln(3/δ)/Θ` (sharp when `p̂` is small, the
/// common case for influence fractions) and the distribution-free
/// Hoeffding bound `√(ln(2/δ)/(2Θ))`. With probability at least `1 − δ`,
/// `|p̂ − p| ≤` this value.
pub fn influence_half_width(p_hat: f64, theta: usize, delta: f64) -> f64 {
    if theta == 0 {
        return f64::INFINITY;
    }
    let n = theta as f64;
    let p = p_hat.clamp(0.0, 1.0);
    let l3 = (3.0 / delta).ln();
    let bernstein = (2.0 * p * (1.0 - p) * l3 / n).sqrt() + 3.0 * l3 / n;
    let hoeffding = ((2.0 / delta).ln() / (2.0 * n)).sqrt();
    bernstein.min(hoeffding)
}

/// The half-width governing the adaptive stop, read at the level the
/// answer comes from (the characteristic community if one was found, else
/// the deepest level). Empty outcomes are exact by definition.
fn outcome_half_width(out: &CodOutcome, universe_len: usize, delta: f64) -> f64 {
    if out.sigma_q.is_empty() || out.theta == 0 || universe_len == 0 {
        return 0.0;
    }
    let h = out.best_level.unwrap_or(0);
    // sigma_q = p̂·|universe|, so dividing recovers the [0,1] estimate.
    influence_half_width(out.sigma_q[h] / universe_len as f64, out.theta, delta)
}

/// Adaptive-θ compressed COD evaluation, in the spirit of the
/// sample-sizing loops of the RR-set IM literature the paper builds on
/// (\[21–24\]): evaluate at `θ_0 = req.theta`, `2θ_0`, … and stop as soon as
/// **(a)** no level's top-k verdict is flippable by sampling noise
/// ([`CodOutcome::uncertain`]) **and (b)** the confidence half-width on the
/// query's influence estimate is within `epsilon` at confidence `1 − delta`
/// ([`influence_half_width`]), or once doubling would pass `theta_max` or
/// an evaluation was cancelled. Pass `epsilon = f64::INFINITY` to stop on
/// verdict stability alone.
///
/// Queries with a clear influence gap stop at `θ_0`; borderline queries —
/// exactly the ones the paper's Fig. 8 shows suffering false exclusions —
/// automatically get more samples. Over [`Samples::Fresh`] round `r` draws
/// from the independent child sequence `SeedSequence::new(seed).child(r)`,
/// so the escalation path is a pure function of `(request, seed)`. Over
/// [`Samples::Pooled`] rounds are *prefixes of the same pool*: round `r`
/// re-folds what round `r−1` folded plus the top-up, so escalation never
/// resamples and later queries inherit the grown pool.
///
/// Returns the final outcome plus an [`AdaptiveReport`] describing the
/// escalation. The statistical-equivalence harness in
/// `tests/pool_adaptive.rs` checks the reported bound against a 4×
/// fixed-θ reference across a query grid.
#[allow(clippy::too_many_arguments)] // the request plus (θ_max, ε, δ), workspace and token
pub fn compressed_cod_adaptive<C: Chain>(
    req: &CodRequest<'_, C>,
    samples: Samples<'_>,
    theta_max: usize,
    epsilon: f64,
    delta: f64,
    scratch: Option<&mut QueryScratch>,
    cancel: Option<&CancelToken>,
) -> CodResult<(CodOutcome, AdaptiveReport)> {
    let mut own = QueryScratch::new();
    let ws = scratch.unwrap_or(&mut own);
    let universe_len = req.chain.universe().len();
    let mut round = CodRequest {
        theta: req.theta.max(1),
        ..*req
    };
    let theta_max = theta_max.max(round.theta);
    let mut rounds = 0usize;
    loop {
        let round_samples = match samples {
            Samples::Fresh { seed, par } => Samples::Fresh {
                seed: SeedSequence::new(seed).child(rounds as u64).master(),
                par,
            },
            pooled @ Samples::Pooled { .. } => pooled,
        };
        rounds += 1;
        let out = compressed_cod(&round, round_samples, Some(ws), cancel)?;
        let half_width = outcome_half_width(&out, universe_len, delta);
        let settled = !out.uncertain.iter().any(|&u| u) && half_width <= epsilon;
        if settled || round.theta * 2 > theta_max || out.cancelled {
            let report = AdaptiveReport {
                rounds,
                theta: out.theta,
                epsilon,
                half_width,
                converged: settled,
            };
            return Ok((out, report));
        }
        round.theta *= 2;
    }
}

/// The paper's literal heap-based incremental top-k (Algorithm 1, lines
/// 16–27), kept alongside [`incremental_top_k`] for fidelity testing.
///
/// Maintains a size-k min-heap `H` of accumulated counts; a node enters
/// only when its updated count strictly beats the heap minimum (line 22).
/// Under ties this can drop a node that the strictly-greater rank
/// definition would keep, so [`incremental_top_k`]'s tie-inclusive pool is
/// the default; on tie-free inputs both produce identical verdicts (see
/// the equivalence tests).
pub fn incremental_top_k_heap(
    buckets: &[FxHashMap<NodeId, u32>],
    q: NodeId,
    k: usize,
    theta: usize,
    universe_len: usize,
) -> CodOutcome {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    assert!(k >= 1);
    let m = buckets.len();
    let mut tau: FxHashMap<NodeId, u32> = FxHashMap::default();
    // Min-heap over (count, Reverse(node)) so ties pop the larger id first
    // (deterministic). Entries may be stale; validity is checked on pop.
    let mut heap: BinaryHeap<Reverse<(u32, Reverse<NodeId>)>> = BinaryHeap::new();
    let mut in_heap: FxHashSet<NodeId> = FxHashSet::default();
    let mut best_level = None;
    let mut ranks = Vec::with_capacity(m);
    let mut sigma_q = Vec::with_capacity(m);

    let mut entries: Vec<(NodeId, u32)> = Vec::new();
    for (h, bucket) in buckets.iter().enumerate() {
        // Heap admission under ties depends on processing order, and map
        // iteration order is insertion-history-dependent — iterate the
        // bucket in sorted node order so tie-breaks are reproducible.
        entries.clear();
        entries.extend(bucket.iter().map(|(&v, &c)| (v, c)));
        entries.sort_unstable_by_key(|&(v, _)| v);
        for &(v, c) in &entries {
            let t = tau.entry(v).or_insert(0);
            *t += c; // line 20: B_h(v) += τ(v); line 21: τ(v) = B_h(v)
            let tv = *t;
            // Line 22: enter H if beating the current minimum (or H has
            // room); membership updates are handled lazily via stale
            // entries.
            // Clear stale prefix first so peek() reflects a real member.
            while let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() {
                if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                    heap.pop();
                } else {
                    break;
                }
            }
            let beats = in_heap.len() < k || heap.peek().is_some_and(|Reverse((c0, _))| *c0 < tv);
            if beats || in_heap.contains(&v) {
                heap.push(Reverse((tv, Reverse(v))));
                in_heap.insert(v);
                // Shrink membership past k, skipping stale entries.
                while in_heap.len() > k {
                    let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() else {
                        unreachable!("heap holds an entry per in_heap member");
                    };
                    if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                        heap.pop(); // stale duplicate
                        continue;
                    }
                    heap.pop();
                    in_heap.remove(&v0);
                }
            }
        }
        // Drop stale heap prefix so the membership test is meaningful.
        while let Some(&Reverse((c0, Reverse(v0)))) = heap.peek() {
            if tau.get(&v0).copied().unwrap_or(0) != c0 || !in_heap.contains(&v0) {
                heap.pop();
            } else {
                break;
            }
        }
        let tq = tau.get(&q).copied().unwrap_or(0);
        let rank_est = if in_heap.contains(&q) {
            // Exact small-k rank among heap members.
            let higher = in_heap
                .iter()
                .filter(|&&v| tau.get(&v).copied().unwrap_or(0) > tq)
                .count();
            higher + 1
        } else {
            k + 1 // not in the top-k structure
        };
        ranks.push(rank_est);
        sigma_q.push(tq as f64 / theta as f64 * universe_len as f64);
        if in_heap.contains(&q) {
            best_level = Some(h); // lines 26–27
        }
    }
    let m_levels = ranks.len();
    CodOutcome {
        best_level,
        ranks,
        sigma_q,
        uncertain: vec![false; m_levels],
        theta,
        truncated: false,
        cancelled: false,
    }
}

use cod_graph::FxHashSet;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::DendroChain;
    use cod_graph::GraphBuilder;
    use cod_hierarchy::{cluster_unweighted, Dendrogram, LcaIndex, Linkage};

    /// Fixed-θ evaluation on fresh single-threaded samples.
    #[allow(clippy::too_many_arguments)] // the request fields plus the seed
    fn run(
        g: &Csr,
        chain: &impl Chain,
        q: NodeId,
        k: usize,
        theta: usize,
        budget: Option<usize>,
        seed: u64,
    ) -> CodResult<CodOutcome> {
        let req = CodRequest {
            g,
            model: Model::WeightedCascade,
            chain,
            q,
            k,
            theta,
            budget,
        };
        let par = Parallelism::Threads(1);
        compressed_cod(&req, Samples::Fresh { seed, par }, None, None)
    }

    /// Adaptive evaluation on fresh samples, stopping on verdict stability.
    fn run_adaptive(
        g: &Csr,
        chain: &impl Chain,
        theta: usize,
        theta_max: usize,
        seed: u64,
    ) -> CodOutcome {
        let req = CodRequest {
            g,
            model: Model::WeightedCascade,
            chain,
            q: 0,
            k: 1,
            theta,
            budget: None,
        };
        let par = Parallelism::Threads(1);
        let fresh = Samples::Fresh { seed, par };
        compressed_cod_adaptive(&req, fresh, theta_max, f64::INFINITY, 0.05, None, None)
            .unwrap()
            .0
    }

    /// Two stars joined by a bridge: node 0 is the hub of a 5-star
    /// {0..5}, node 6 the hub of a 3-star {6..9}; bridge 5-6.
    fn two_stars() -> Csr {
        let mut b = GraphBuilder::new(10);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        for v in 7..10 {
            b.add_edge(6, v);
        }
        b.add_edge(5, 6);
        b.build()
    }

    #[test]
    fn hub_is_top_1_in_the_whole_graph() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run(&g, &chain, 0, 1, 200, None, 1).unwrap();
        // Node 0 dominates its star and the whole graph: the characteristic
        // community should be the top of the chain (or near it).
        let best = out.best_level.expect("hub must be top-1 somewhere");
        assert_eq!(best, chain.len() - 1, "hub should win even at the root");
    }

    #[test]
    fn leaf_is_not_top_1_at_the_root() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 9).unwrap();
        let out = run(&g, &chain, 9, 1, 400, None, 2).unwrap();
        assert!(
            *out.ranks.last().unwrap() > 1,
            "a periphery leaf cannot be top-1 globally"
        );
    }

    #[test]
    fn rank_one_at_every_level_for_dominant_node() {
        // A path graph where node 0... actually use the star: its hub is
        // rank 1 at every level of its chain.
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(6, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run(&g, &chain, 0, 1, 300, None, 3).unwrap();
        for (h, &r) in out.ranks.iter().enumerate() {
            assert_eq!(r, 1, "hub must rank 1 at level {h}");
        }
        assert_eq!(out.best_level, Some(chain.len() - 1));
    }

    #[test]
    fn sigma_estimates_grow_with_community_size() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run(&g, &chain, 0, 1, 500, None, 4).unwrap();
        // σ is monotone along the chain for a fixed node (more reachable
        // sources in larger communities).
        for w in out.sigma_q.windows(2) {
            assert!(
                w[1] >= w[0] - 1e-9,
                "sigma must not shrink: {:?}",
                out.sigma_q
            );
        }
        // At the top, σ̂ should be near the Monte-Carlo influence of 0.
        let mut mc_rng = SmallRng::seed_from_u64(5);
        let truth = cod_influence::montecarlo::influence(
            &g,
            Model::WeightedCascade,
            0,
            4000,
            &mut mc_rng,
            |_| true,
        );
        let est = *out.sigma_q.last().unwrap();
        assert!(
            (est - truth).abs() < 0.5,
            "sigma estimate {est} vs monte carlo {truth}"
        );
    }

    #[test]
    fn adaptive_stops_early_on_clear_gaps() {
        // Star hub: its rank-1 verdicts have huge margins, so adaptive
        // evaluation must settle at the starting θ.
        let mut b = GraphBuilder::new(6);
        for v in 1..6 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(6, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run_adaptive(&g, &chain, 200, 3200, 41);
        assert_eq!(out.theta, 200 * 6, "no escalation needed");
        assert_eq!(out.best_level, Some(chain.len() - 1));
    }

    #[test]
    fn adaptive_escalates_on_borderline_ranks() {
        // Symmetric pair {0,1} plus a tail: 0 and 1 tie exactly, so the
        // top-1 verdict is uncertain at tiny θ and the sampler escalates.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        let g = b.build();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(4, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run_adaptive(&g, &chain, 2, 256, 42);
        assert!(
            out.theta > 2 * 4,
            "ties must trigger escalation (theta {})",
            out.theta
        );
    }

    #[test]
    fn uncertainty_flags_align_with_margins() {
        // Clear-cut counts: no uncertainty. Borderline counts: flagged.
        let mut clear = FxHashMap::default();
        clear.insert(0u32, 1000u32);
        clear.insert(1, 10);
        let out = incremental_top_k(&[clear], 0, 1, 1010, 2);
        assert!(!out.uncertain[0]);
        let mut tight = FxHashMap::default();
        tight.insert(0u32, 100u32);
        tight.insert(1, 101);
        let out = incremental_top_k(&[tight], 0, 1, 201, 2);
        assert!(out.uncertain[0], "one-count gap must be uncertain");
    }

    #[test]
    fn heap_variant_matches_pool_variant_without_ties() {
        // On tie-free counts the paper's heap loop and the tie-inclusive
        // pool must agree on every per-level verdict.
        let mut rng = SmallRng::seed_from_u64(7);
        for trial in 0..40 {
            let levels = 1 + trial % 6;
            let k = 1 + trial % 4;
            let universe = 25u32;
            let mut buckets: Vec<FxHashMap<NodeId, u32>> = Vec::new();
            for _ in 0..levels {
                let mut m = FxHashMap::default();
                for v in 0..universe {
                    if rng.random_bool(0.5) {
                        // Large random counts make ties measure-zero.
                        m.insert(v, rng.random_range(1..1_000_000u32));
                    }
                }
                buckets.push(m);
            }
            let q = rng.random_range(0..universe);
            let a = incremental_top_k(&buckets, q, k, 100, universe as usize);
            let b = incremental_top_k_heap(&buckets, q, k, 100, universe as usize);
            assert_eq!(a.best_level, b.best_level, "trial {trial}");
            for h in 0..levels {
                assert_eq!(
                    a.ranks[h] <= k,
                    b.ranks[h] <= k,
                    "trial {trial} level {h}: {} vs {}",
                    a.ranks[h],
                    b.ranks[h]
                );
                assert_eq!(a.sigma_q[h], b.sigma_q[h]);
            }
        }
    }

    #[test]
    fn heap_variant_on_paper_example_4() {
        // Example 4's bucket contents (Fig. 3(b)): B_0, B_3, B_4 for query
        // v_0 and k = 2.
        let mut b0 = FxHashMap::default();
        for (v, c) in [(0u32, 2u32), (1, 2), (2, 1), (3, 1)] {
            b0.insert(v, c);
        }
        let mut b3 = FxHashMap::default();
        for (v, c) in [(6u32, 3u32), (7, 3), (3, 1)] {
            b3.insert(v, c);
        }
        let mut b4 = FxHashMap::default();
        for (v, c) in [(4u32, 2u32), (5, 2), (2, 1), (0, 1), (3, 1), (6, 1)] {
            b4.insert(v, c);
        }
        let buckets = vec![b0, b3, b4];
        let out = incremental_top_k(&buckets, 0, 2, 40, 10);
        // v_0 is top-2 in B_0 (count 2) and again after B_4 (count 3,
        // tying v_6's 4? — v_6 has 3 + 1 = 4 ... Example 4 reports the
        // final top-2 as {(v_6, .), (v_0, .)}; v_0 must be top-2 at levels
        // 0 and 2 but not 1.
        assert!(out.ranks[0] <= 2, "{:?}", out.ranks);
        assert!(out.ranks[1] > 2, "{:?}", out.ranks);
        assert!(out.ranks[2] <= 2, "{:?}", out.ranks);
        assert_eq!(out.best_level, Some(2));
    }

    #[test]
    fn zero_k_is_rejected_not_panicking() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let err = run(&g, &chain, 0, 0, 10, None, 8).unwrap_err();
        assert!(matches!(err, CodError::InvalidQuery(_)), "{err}");
    }

    #[test]
    fn budget_truncates_and_flags() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        // θ=100 per node would mean 1000 samples; a budget of 40 truncates.
        let out = run(&g, &chain, 0, 1, 100, Some(40), 9).unwrap();
        assert!(out.truncated);
        assert_eq!(out.theta, 40);
        // A generous budget leaves the evaluation untouched.
        let out = run(&g, &chain, 0, 1, 100, Some(1_000_000), 9).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.theta, 1000);
    }

    #[test]
    fn zero_budget_is_exhausted() {
        let g = two_stars();
        let merges = cluster_unweighted(&g, Linkage::Average);
        let d = Dendrogram::from_merges(10, &merges);
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let err = run(&g, &chain, 0, 1, 100, Some(0), 10).unwrap_err();
        assert!(
            matches!(err, CodError::BudgetExhausted { budget: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn empty_chain_yields_no_community() {
        let g = GraphBuilder::new(1).build();
        let d = Dendrogram::singleton();
        let lca = LcaIndex::new(&d);
        let chain = DendroChain::new(&d, &lca, 0).unwrap();
        let out = run(&g, &chain, 0, 1, 10, None, 6).unwrap();
        assert!(out.best_level.is_none());
        assert!(out.ranks.is_empty());
    }
}
