//! Multi-source (batched) BFS: up to [`MAX_LANES`](bgl_comm::MAX_LANES) sources advance
//! through one lane-masked superstep wave.
//!
//! The serving layer (`bgl-server`) packs pending queries into *lanes*
//! — bit `l` of a [`bgl_comm::LaneMask`] marks membership of lane `l`'s
//! search — and runs them through the same level phases as
//! [`crate::bfs2d`]: each wave is the shared top-down step of
//! `crate::level` (targeted expand and discover, direct all-to-all fold
//! and absorb, probe charge and level meter) run on [`MultiRankState`],
//! whose messages are [`LaneSet`]s (two wire payloads per message,
//! vertex list first) instead of vertex lists. Only the termination
//! round is the waves' own: it sums `(vertex, lane)` pairs. One round of
//! communication therefore advances *all* lanes by one level,
//! collapsing the per-message α overhead B-fold, and overlapping
//! frontiers (universal on the low-diameter scale-free graphs the paper
//! targets: every search floods the same high-degree core within a hop
//! or two) share both wire bytes and per-edge hash probes — a vertex
//! reached by 16 lanes in the same wave is shipped once and its edge
//! list is scanned once.
//!
//! **Per-lane equivalence.** Lane `l` labels vertex `u` at wave `d+1`
//! iff `u` has a neighbor at lane-`l` distance `d` and is unlabeled in
//! lane `l` — exactly the single-source induction, so every lane's
//! level array is *identical* to its standalone [`crate::bfs2d::try_run`]
//! (asserted per-batch by [`validate_lanes`] against the Graph500-style
//! validator, and property-tested across engines × wire policies in
//! `tests/proptest_multi.rs`).
//!
//! **Determinism.** The wave loop follows the same discipline as the
//! single-source engine: per-rank closures are pure, results collect
//! positionally under [`ComputeEngine`], lane sets merge by sorted
//! two-pointer unions, and all clock accounting happens in the serial
//! collective layer — serial and rayon runs are bit-identical.

use crate::config::{check_inputs, Input};
use crate::engine::ComputeEngine;
use crate::level::{self, Meter, TopDown};
use crate::reference::UNREACHED;
use crate::stats::LevelStats;
use crate::validate::{self, ValidationError, ValidationReport};
use bgl_comm::collectives::alltoall::SendList;
use bgl_comm::{CommError, LaneMask, LaneSet, ProcessorGrid, SimWorld};
use bgl_graph::{DistGraph, GraphSpec, RankGraph, TwoDPartition, Vertex};

/// Configuration for a batched multi-source run.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiConfig {
    /// Host-side execution engine for per-rank compute (bit-identical
    /// across variants).
    pub engine: ComputeEngine,
}

/// Result of a batched multi-source run.
#[derive(Debug, Clone)]
pub struct MultiBfsResult {
    /// Per-lane global level arrays, indexed `[lane][vertex]`.
    pub lane_levels: Vec<Vec<u32>>,
    /// The sources, lane `l` searched from `sources[l]`.
    pub sources: Vec<Vertex>,
    /// One record per wave (= the BFS level its absorb assigns), from
    /// the shared level meter. `frontier` counts the `(vertex, lane)`
    /// pairs entering the wave; volumes, wire bytes and clocks are the
    /// wave's, and `td_probes` its charged hash probes.
    pub waves: Vec<LevelStats>,
    /// Total simulated seconds for the batch.
    pub sim_time: f64,
    /// Simulated seconds spent in communication.
    pub comm_time: f64,
    /// Total hash probes charged across all ranks.
    pub total_probes: u64,
}

impl MultiBfsResult {
    /// Number of lanes in the batch.
    pub fn lanes(&self) -> usize {
        self.sources.len()
    }
}

/// Per-rank state for a batched run: the lane-masked widening of
/// [`crate::state::RankState`].
#[derive(Debug, Clone)]
pub(crate) struct MultiRankState<'g> {
    rg: &'g RankGraph,
    grid: ProcessorGrid,
    partition: TwoDPartition,
    /// Level labels for owned vertices, indexed `[lane][owned offset]`.
    levels: Vec<Vec<u32>>,
    /// Lanes that have labeled each owned vertex (by owned offset).
    visited: Vec<LaneMask>,
    /// Current frontier: owned vertices with the mask of lanes for
    /// which they sit at the current level.
    frontier: LaneSet,
    /// The §2.4.3 sent-neighbors cache widened to one lane mask per
    /// row-local vertex: a neighbor is re-sent only for lanes that have
    /// not shipped it yet.
    sent: Vec<LaneMask>,
    /// Hash probes since the last [`TopDown::take_probes`].
    probes: u64,
}

impl<'g> MultiRankState<'g> {
    /// Fresh state for a rank of `graph`, serving `lanes` lanes.
    fn new(rg: &'g RankGraph, partition: TwoDPartition, lanes: usize) -> Self {
        Self {
            rg,
            grid: partition.grid(),
            partition,
            levels: vec![vec![UNREACHED; rg.owned_len()]; lanes],
            visited: vec![0; rg.owned_len()],
            frontier: LaneSet::new(),
            sent: vec![0; rg.edges.num_row_ids()],
            probes: 0,
        }
    }

    /// Seed every lane whose source this rank owns. Two lanes may share
    /// a source; their bits simply travel together from wave 0.
    fn init_sources(&mut self, sources: &[Vertex]) {
        let mut pairs: Vec<(Vertex, LaneMask)> = Vec::new();
        for (lane, &s) in sources.iter().enumerate() {
            if let Some(off) = self.rg.owned_local(s) {
                self.levels[lane][off] = 0;
                self.visited[off] |= 1 << lane;
                pairs.push((s, 1 << lane));
            }
        }
        self.frontier = LaneSet::from_pairs(pairs);
    }
}

/// The lane-masked kernels: every message is a [`LaneSet`], and an
/// edge list is scanned **once per received frontier vertex regardless
/// of how many lanes ride it** — the batching win. Probe accounting
/// mirrors the single-source kernels.
impl TopDown for MultiRankState<'_> {
    type Payload = LaneSet;

    fn rank(&self) -> usize {
        self.rg.rank
    }

    fn expand_sends(&mut self) -> SendList<LaneSet> {
        let (_, j) = self.grid.position_of(self.rg.rank);
        let mut per_row: Vec<LaneSet> = vec![LaneSet::new(); self.grid.rows()];
        for (v, mask) in self.frontier.iter() {
            let off = (v - self.rg.owned.start) as usize;
            for &i2 in &self.rg.expand_targets[off] {
                per_row[i2 as usize].push(v, mask);
            }
        }
        per_row
            .into_iter()
            .enumerate()
            .filter(|(_, set)| !set.is_empty())
            .map(|(i2, set)| (self.grid.rank_of(i2, j), set))
            .collect()
    }

    /// A neighbor is emitted only for the lanes that have not sent it
    /// yet (`mask & !sent`).
    fn discover(&mut self, fbar: &[LaneSet]) -> Vec<LaneSet> {
        let cols = self.grid.cols();
        let mut blocks: Vec<Vec<(Vertex, LaneMask)>> = vec![Vec::new(); cols];
        for set in fbar {
            for (v, mask) in set.iter() {
                self.probes += 1;
                let Some(ci) = self.rg.edges.col_local(v) else {
                    continue;
                };
                for &u in self.rg.edges.neighbors_by_local(ci) {
                    self.probes += 1;
                    let rl = self
                        .rg
                        .edges
                        .row_local(u)
                        .expect("edge-list vertex must be row-indexed"); // bgl-lint: allow(r1, reason = "CSR construction row-indexes every edge endpoint; a miss is a partitioning bug")
                    let emit = mask & !self.sent[rl as usize];
                    if emit == 0 {
                        continue;
                    }
                    self.sent[rl as usize] |= emit;
                    blocks[self.partition.block_col_of(u)].push((u, emit));
                }
            }
        }
        blocks.into_iter().map(LaneSet::from_pairs).collect()
    }

    /// Labels the not-yet-visited lanes of each delivered pair and
    /// returns the fresh `(vertex, lane)` memberships.
    fn absorb(&mut self, nbar: &[LaneSet], next_level: u32) -> u64 {
        let mut fresh: Vec<(Vertex, LaneMask)> = Vec::new();
        let mut labeled = 0u64;
        for set in nbar {
            for (v, mask) in set.iter() {
                self.probes += 1;
                let off = self
                    .rg
                    .owned_local(v)
                    .expect("fold delivered a vertex to a non-owner"); // bgl-lint: allow(r1, reason = "fold routes by block_col_of, so delivery to a non-owner is a partitioning bug")
                let new = mask & !self.visited[off];
                if new == 0 {
                    continue;
                }
                self.visited[off] |= new;
                let mut bits = new;
                while bits != 0 {
                    let lane = bits.trailing_zeros() as usize;
                    self.levels[lane][off] = next_level;
                    bits &= bits - 1;
                }
                labeled += new.count_ones() as u64;
                fresh.push((v, new));
            }
        }
        self.frontier = LaneSet::from_pairs(fresh);
        labeled
    }

    fn take_probes(&mut self) -> u64 {
        std::mem::take(&mut self.probes)
    }
}

/// Gather per-rank lane-major level arrays into per-lane global arrays.
pub(crate) fn gather_lane_levels(
    states: &[MultiRankState<'_>],
    lanes: usize,
    n: u64,
) -> Vec<Vec<u32>> {
    let mut out = vec![vec![UNREACHED; n as usize]; lanes];
    for st in states {
        let start = st.rg.owned.start as usize;
        for (lane, lane_out) in out.iter_mut().enumerate() {
            let src = &st.levels[lane];
            lane_out[start..start + src.len()].copy_from_slice(src);
        }
    }
    out
}

/// Run a batched multi-source BFS. Communication faults surface as
/// typed errors.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &MultiConfig,
    sources: &[Vertex],
) -> Result<MultiBfsResult, CommError> {
    let grid = world.grid();
    check_inputs(
        graph,
        &[
            Input::Grid(grid),
            Input::Width(sources.len()),
            Input::Vertices(sources),
        ],
    )?;
    let (lanes, engine) = (sources.len(), config.engine);
    world.set_parallel_exchange(engine.parallel(grid.len()));
    let mut states: Vec<MultiRankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| MultiRankState::new(rg, graph.partition, lanes))
        .collect();
    for st in states.iter_mut() {
        st.init_sources(sources);
    }

    let (time_at_start, comm_at_start) = (world.time(), world.comm_time());
    let zeros = vec![0u64; grid.len()];
    let mut waves = Vec::new();
    for wave in 0.. {
        let mut meter = Meter::start(world, wave);
        // Global (vertex, lane) frontier mass. The tree round is three
        // words wide, two of them spare: the width the pinned lane-wave
        // clock bits were recorded at.
        let pairs: Vec<u64> = states.iter().map(|s| s.frontier.lane_pairs()).collect();
        let (frontier, _, _) = meter.terminate3(world, &pairs, &zeros, &zeros)?;
        if frontier == 0 {
            break;
        }
        let blocks = meter.expand_discover(world, &mut states, engine)?;
        meter.fold_direct(world, &mut states, engine, blocks, wave + 1)?;
        let probes = level::charge_probes(world, &mut states);
        waves.push(meter.finish(world, frontier, false, probes));
    }

    Ok(MultiBfsResult {
        lane_levels: gather_lane_levels(&states, lanes, graph.spec.n),
        sources: sources.to_vec(),
        total_probes: waves.iter().map(|w| w.td_probes).sum(),
        waves,
        sim_time: world.time() - time_at_start,
        comm_time: world.comm_time() - comm_at_start,
    })
}

/// Certify every lane of a batched result with the Graph500-style
/// validator ([`validate::validate_against_spec`]). Returns the
/// per-lane reports, or the first lane's failure.
pub fn validate_lanes(
    spec: &GraphSpec,
    result: &MultiBfsResult,
) -> Result<Vec<ValidationReport>, ValidationError> {
    result
        .sources
        .iter()
        .zip(&result.lane_levels)
        .map(|(&s, levels)| validate::validate_against_spec(spec, levels, s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bfs2d, BfsConfig};

    fn single_levels(graph: &DistGraph, source: Vertex) -> Vec<u32> {
        let mut world = SimWorld::bluegene(graph.grid());
        bfs2d::try_run(graph, &mut world, &BfsConfig::paper_optimized(), source)
            .unwrap()
            .levels
    }

    #[test]
    fn lanes_match_single_source_runs() {
        let spec = GraphSpec::rmat(2_000, 8.0, 7);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);
        let sources = [0u64, 17, 17, 999, 1500];
        let mut world = SimWorld::bluegene(grid);
        let r = try_run(&graph, &mut world, &MultiConfig::default(), &sources).unwrap();
        assert_eq!(r.lanes(), sources.len());
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                r.lane_levels[lane],
                single_levels(&graph, s),
                "lane {lane} (source {s}) diverged from its standalone run"
            );
        }
        validate_lanes(&spec, &r).expect("validator");
        // Each wave's record carries its share of the batch's volume.
        let wire: u64 = r.waves.iter().map(|w| w.wire_bytes).sum();
        assert_eq!(wire, world.stats.total_wire_bytes());
        assert!(r.waves.iter().skip(1).all(|w| w.fold_received > 0));
    }

    #[test]
    fn serial_and_rayon_bit_identical() {
        let spec = GraphSpec::rmat(1_500, 8.0, 11);
        let grid = ProcessorGrid::new(4, 4);
        let graph = DistGraph::build(spec, grid);
        let sources: Vec<u64> = (0..16).map(|i| (i * 91) % 1_500).collect();
        let run_with = |engine| {
            let mut world = SimWorld::bluegene(grid).with_wire_policy(bgl_comm::WirePolicy::auto());
            let cfg = MultiConfig { engine };
            let r = try_run(&graph, &mut world, &cfg, &sources).unwrap();
            (r.lane_levels, world.time().to_bits(), r.total_probes)
        };
        assert_eq!(
            run_with(ComputeEngine::Serial),
            run_with(ComputeEngine::Rayon)
        );
    }

    #[test]
    fn single_lane_batch_equals_single_source() {
        let spec = GraphSpec::rmat(1_000, 8.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let r = try_run(&graph, &mut world, &MultiConfig::default(), &[42]).unwrap();
        assert_eq!(r.lane_levels[0], single_levels(&graph, 42));
    }
}
