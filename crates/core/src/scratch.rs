//! Reusable per-query workspaces.
//!
//! One compressed COD evaluation allocates sampler stamp arrays, HFS
//! queues, per-level count buckets and top-k candidate vectors — all of
//! which have the same shape on the next query. [`QueryScratch`] owns the
//! lot so a serving layer can run thousands of queries with amortized-zero
//! allocation, the same trick [`cod_influence::RrSampler`] already plays
//! with its stamp arrays, generalized to the whole pipeline.
//!
//! **Determinism invariant:** scratch reuse must never change an answer.
//! Every structure here is either fully reset per query (queues, level and
//! counter tables, candidate vectors, count maps via `clear()`) or
//! epoch-stamped
//! ([`cod_influence::SamplerScratch`]). Hash-map *iteration order* can
//! differ between a recycled map and a fresh one (retained capacity), so
//! the evaluation stages only ever fold map contents through commutative
//! addition or sort materialized keys — both order-independent. The
//! seed-replay suite asserts the resulting bit-identity.

use std::mem::size_of;

use cod_graph::{FxHashMap, NodeId};
use cod_influence::SamplerScratch;

use crate::chain::Chain;
use crate::telemetry::{QueryTrace, TraceSink};

/// The per-query dense tables HFS reads instead of `Chain::level_of`, and
/// the layout of the counter table it writes.
///
/// Built by one `level_of` sweep over the chain's universe. Counter row
/// `h` has one column per member of `C_h`: a node HFS records at level `h`
/// is always inside `C_h`. Columns list chain nodes by level, then id, so
/// the members of every `C_h` are a prefix of the column order and all
/// rows together hold `Σ_h |C_h|` counters.
#[derive(Default, Debug)]
pub(crate) struct LevelTable {
    /// `node → deepest chain level` over ids `0..=max universe id`;
    /// `u32::MAX` outside every chain community.
    level: Vec<u32>,
    /// `node → counter column` (meaningful for chain nodes only).
    column: Vec<u32>,
    /// `column → node`.
    order: Vec<NodeId>,
    /// Counter row `h` spans `rows[h]..rows[h + 1]`.
    rows: Vec<usize>,
}

impl LevelTable {
    /// Rebuilds the tables for `chain` over its sorted `universe`.
    pub(crate) fn build(&mut self, chain: &impl Chain, universe: &[NodeId]) {
        let m = chain.len();
        let bound = universe.last().map_or(0, |&v| v as usize + 1);
        self.level.clear();
        self.level.resize(bound, u32::MAX);
        // `ends[l]`: chain nodes of level < l, turned into column cursors.
        let mut ends = vec![0usize; m + 1];
        for &v in universe {
            if let Some(l) = chain.level_of(v) {
                self.level[v as usize] = l as u32;
                ends[l + 1] += 1;
            }
        }
        for l in 0..m {
            ends[l + 1] += ends[l];
        }
        self.rows.clear();
        self.rows.push(0);
        for h in 0..m {
            self.rows.push(self.rows[h] + ends[h + 1]);
        }
        self.column.clear();
        self.column.resize(bound, 0);
        self.order.clear();
        self.order.resize(ends[m], 0);
        for &v in universe {
            let l = self.level[v as usize];
            if l != u32::MAX {
                let c = &mut ends[l as usize];
                self.column[v as usize] = *c as u32;
                self.order[*c] = v;
                *c += 1;
            }
        }
    }

    /// Number of chain levels `m`.
    #[inline]
    pub(crate) fn depth(&self) -> usize {
        self.rows.len().saturating_sub(1)
    }

    /// Deepest chain level containing `v`; `>= depth()` when none does.
    #[inline]
    pub(crate) fn level_of(&self, v: NodeId) -> usize {
        self.level.get(v as usize).copied().unwrap_or(u32::MAX) as usize
    }

    /// Start of counter row `h`.
    #[inline]
    pub(crate) fn row(&self, h: usize) -> usize {
        self.rows[h]
    }

    /// Counter column of chain node `v`.
    #[inline]
    pub(crate) fn column(&self, v: NodeId) -> usize {
        self.column[v as usize] as usize
    }

    /// Total counters across all rows.
    pub(crate) fn cells(&self) -> usize {
        self.rows.last().copied().unwrap_or(0)
    }

    /// Turns a counter table into stage-2 buckets: `buckets[h]` maps each
    /// node with a non-zero row-`h` counter to that count.
    pub(crate) fn drain_into(&self, counts: &[u32], buckets: &mut [FxHashMap<NodeId, u32>]) {
        for (h, bucket) in buckets.iter_mut().enumerate() {
            let row = &counts[self.rows[h]..self.rows[h + 1]];
            for (&c, &v) in row.iter().zip(&self.order) {
                if c != 0 {
                    bucket.insert(v, c);
                }
            }
        }
    }

    /// Bytes held by the tables (capacity).
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.level.capacity() + self.column.capacity() + self.order.capacity()) * size_of::<u32>()
            + self.rows.capacity() * size_of::<usize>()
    }
}

/// Per-RR scratch for the HFS stage plus the counter table it fills,
/// reused across samples.
#[derive(Default, Debug)]
pub(crate) struct HfsScratch {
    pub(crate) queues: Vec<Vec<u32>>,
    pub(crate) explored: Vec<bool>,
    /// The dense `m × |C_h|` counter table (layout in [`LevelTable`]):
    /// how many RR graphs HFS first reached each node at each level.
    pub(crate) counts: Vec<u32>,
    /// Non-zero counters — the bucket entries stage 2 will receive.
    pub(crate) touched: usize,
}

impl HfsScratch {
    /// Readies the scratch for a chain of `m` levels and `cells` counters,
    /// all zero.
    pub(crate) fn prepare(&mut self, m: usize, cells: usize) {
        for queue in &mut self.queues {
            queue.clear();
        }
        self.queues.truncate(m);
        self.queues.resize_with(m, Vec::new);
        self.counts.clear();
        self.counts.resize(cells, 0);
        self.touched = 0;
    }

    /// Counts one more RR graph in counter `cell`.
    #[inline]
    pub(crate) fn bump(&mut self, cell: usize) {
        let count = &mut self.counts[cell];
        self.touched += usize::from(*count == 0);
        *count += 1;
    }

    /// Bytes held by the queues, explored flags and counters (capacity).
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.queues.iter().map(Vec::capacity).sum::<usize>() + self.counts.capacity())
            * size_of::<u32>()
            + self.explored.capacity()
    }
}

/// Scratch for the incremental top-k scan (stage 2 of Algorithm 1).
#[derive(Default, Debug)]
pub(crate) struct TopKScratch {
    pub(crate) tau: FxHashMap<NodeId, u32>,
    pub(crate) pool: Vec<NodeId>,
    pub(crate) candidates: Vec<NodeId>,
    pub(crate) taus: Vec<u32>,
}

impl TopKScratch {
    pub(crate) fn prepare(&mut self) {
        self.tau.clear();
        self.pool.clear();
        self.candidates.clear();
        self.taus.clear();
    }
}

/// A reusable workspace for one in-flight COD query.
///
/// Holds every transient buffer the compressed evaluation path needs:
/// RR-sampler stamps, HFS queues, per-level buckets and top-k vectors.
/// Create one per worker (it is `Send` but deliberately not shared), hand
/// it to `compressed_cod` via `Some(&mut ws)`, and reuse it for the
/// next query. Passing a recycled workspace never changes an answer; it
/// only removes allocations.
#[derive(Default, Debug)]
pub struct QueryScratch {
    pub(crate) sampler: SamplerScratch,
    pub(crate) levels: LevelTable,
    pub(crate) hfs: HfsScratch,
    pub(crate) buckets: Vec<FxHashMap<NodeId, u32>>,
    pub(crate) topk: TopKScratch,
    /// Telemetry accumulator for the evaluation running in this workspace.
    /// Evaluation *adds to* it; owners that want per-query numbers reset it
    /// beforehand (see [`TraceSink::reset`]) and take the trace afterwards.
    pub(crate) sink: TraceSink,
}

impl QueryScratch {
    /// A fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears accumulated telemetry and arms (`timing: true`) or disarms
    /// the phase timers for the next evaluation run in this workspace.
    pub fn reset_telemetry(&mut self, timing: bool) {
        self.sink.reset(timing);
    }

    /// Returns the telemetry accumulated since the last reset and clears
    /// the sink (retaining its timing mode).
    pub fn take_trace(&mut self) -> QueryTrace {
        self.sink.take()
    }

    /// Readies the workspace for one evaluation over `chain` (whose
    /// sorted universe is `universe`): rebuilds the level tables, zeroes
    /// the counter table and clears the buckets, retaining capacity from
    /// earlier queries.
    pub(crate) fn prepare(&mut self, chain: &impl Chain, universe: &[NodeId]) {
        let m = chain.len();
        for b in &mut self.buckets {
            b.clear();
        }
        self.buckets.truncate(m);
        self.buckets.resize_with(m, FxHashMap::default);
        self.levels.build(chain, universe);
        self.hfs.prepare(m, self.levels.cells());
        self.topk.prepare();
    }

    /// Approximate bytes retained by the workspace (sampler stamps plus
    /// vector capacities; map capacity is not observable and excluded).
    pub fn memory_bytes(&self) -> usize {
        let topk = (self.topk.pool.capacity() + self.topk.candidates.capacity())
            * size_of::<NodeId>()
            + self.topk.taus.capacity() * size_of::<u32>();
        self.sampler.memory_bytes() + self.levels.memory_bytes() + self.hfs.memory_bytes() + topk
    }
}
