//! The 2D BFS on the real multi-threaded SPMD runtime.
//!
//! One OS thread per rank drives the *same* per-rank state machine as
//! the superstep simulator (targeted expand, direct all-to-all fold),
//! with genuine concurrent message passing. Exists to validate the
//! simulator against a real parallel execution and to power examples
//! that want actual parallelism; no cost model applies.
//!
//! [`run_threaded`] is the one entry point; a [`ThreadedConfig`]
//! selects the sent-neighbors cache, a [`FaultPlan`], a wire codec,
//! tracing and the direction policy. Under a fault plan, lossy
//! exchanges retransmit (counted per rank in [`FaultStats`]), and a
//! scheduled rank death aborts every rank at the same superstep with a
//! typed [`CommError`]. Because both runtimes derive faults from the
//! same pure hash of `(seed, class, round, from, to)`, a run here
//! injects the *same* fault schedule as the simulator — the
//! cross-runtime determinism the fault tests assert.

use crate::config::{DirectionMode, DirectionPolicy};
use crate::reference::UNREACHED;
use crate::state::RankState;
use crate::stats::LevelDirection;
use bgl_comm::threaded::ThreadedWorld;
use bgl_comm::{
    CommError, FaultPlan, FaultStats, OpClass, Phase, Vert, VertSet, VsetPolicy, WireCount,
    WirePolicy,
};
use bgl_graph::{DistGraph, Vertex};
use bgl_trace::{TraceBuffer, TraceDetail};

/// What one rank of a faulty threaded run produced.
#[derive(Debug, Clone)]
pub struct RankOutcome {
    /// First global vertex owned by this rank.
    pub owned_start: Vertex,
    /// Level labels for the owned range.
    pub levels: Vec<u32>,
    /// Faults this rank observed on its outgoing messages.
    pub faults: FaultStats,
    /// Wire-buffer allocations saved by the rank's scratch pool.
    pub scratch_reuses: u64,
    /// Sender-side expand byte accounting (logical vs post-codec wire
    /// bytes; identical with the codec off).
    pub expand_wire: WireCount,
    /// Sender-side fold byte accounting.
    pub fold_wire: WireCount,
    /// The direction each executed level ran. Derived from globally
    /// allreduced counts, so every rank's vector is identical — and
    /// must equal the simulator's per-level record for the same
    /// configuration.
    pub directions: Vec<LevelDirection>,
    /// This rank's trace recorder (only for traced runs).
    pub trace: Option<TraceBuffer>,
}

/// Options of a threaded run. The default is a fault-free, top-down,
/// raw-wire, untraced run with the sent-neighbors cache on.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Use the sent-neighbors cache (§2.4).
    pub sent_neighbors: bool,
    /// Faults to inject. A lossy exchange retransmits; a rank death
    /// aborts every rank with [`CommError::RankDead`].
    pub faults: FaultPlan,
    /// Wire codec for expand/fold payloads: the same frames the
    /// simulator charges to its cost model. Retransmissions carry the
    /// same encoded frames.
    pub wire: WirePolicy,
    /// Per-rank trace recording, returned in [`RankOutcome::trace`]:
    /// wall-clock spans for the same collective phases the simulator
    /// traces, so the two runtimes compare span set against span set.
    pub trace: Option<TraceDetail>,
    /// Per-level direction choice, from the same allreduce and integer
    /// thresholds as the simulator. Bottom-up levels replace the
    /// targeted expand with a neighbour-only frontier ring over the
    /// processor column, with the simulator's empty-pieces-are-not-sent
    /// convention so fault schedules stay aligned across runtimes.
    pub direction: DirectionPolicy,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        Self {
            sent_neighbors: true,
            faults: FaultPlan::none(),
            wire: WirePolicy::raw(),
            trace: None,
            direction: DirectionPolicy::top_down(),
        }
    }
}

/// Assemble the global level array from every rank's outcome, or
/// return the first rank's error.
pub fn assemble_levels(
    n: u64,
    outcomes: &[Result<RankOutcome, CommError>],
) -> Result<Vec<u32>, CommError> {
    let mut levels = vec![UNREACHED; n as usize];
    for out in outcomes {
        let out = out.as_ref().map_err(|e| *e)?;
        let s = out.owned_start as usize;
        levels[s..s + out.levels.len()].copy_from_slice(&out.levels);
    }
    Ok(levels)
}

/// Run a BFS from `source` using one thread per rank. Each rank reports
/// its own outcome: the labels it computed plus its counters, or the
/// typed error that aborted it.
pub fn run_threaded(
    graph: &DistGraph,
    source: Vertex,
    config: &ThreadedConfig,
) -> Vec<Result<RankOutcome, CommError>> {
    let grid = graph.grid();
    assert!(source < graph.spec.n);

    let direction = config.direction;
    ThreadedWorld::run_with(grid, config.faults.clone(), |ctx| {
        let rank = ctx.rank();
        ctx.set_wire_policy(config.wire);
        if let Some(detail) = config.trace {
            ctx.enable_trace(detail);
        }
        let mut st = RankState::new(&graph.ranks[rank], graph.partition, config.sent_neighbors);
        st.init_source(source);
        let mut directions: Vec<LevelDirection> = Vec::new();

        let mut level: u32 = 0;
        loop {
            let t_level = ctx.trace_now();
            // Termination allreduce; widened to 3 words when direction
            // optimization is on (same single control round).
            let (global_frontier, bottom_up) = if direction.mode == DirectionMode::TopDown {
                (ctx.allreduce_sum(st.frontier_len())?, false)
            } else {
                let (gf, mf, mu) =
                    ctx.allreduce_sum3(st.frontier_len(), st.frontier_degree(), st.unexplored())?;
                let bu = direction.wants_bottom_up(gf, mf, mu, graph.spec.n, grid.rows() as u64);
                (gf, bu)
            };
            ctx.trace_span(Phase::Termination, level, t_level);
            if global_frontier == 0 {
                break;
            }
            let blocks = if bottom_up {
                // Frontier gather: (R-1)-step neighbour ring within the
                // processor column, unioning pieces into a hybrid set.
                // Empty pieces are not sent — absence of a message is
                // the empty piece, exactly as in the simulator.
                let t_gather = ctx.trace_now();
                let (i, j) = grid.position_of(rank);
                let succ = grid.rank_of((i + 1) % grid.rows(), j);
                let policy = VsetPolicy::hybrid();
                let mut gathered = VertSet::from_sorted(st.frontier.clone());
                let mut piece: Vec<Vert> = st.frontier.clone();
                for _ in 0..grid.rows().saturating_sub(1) {
                    let sends = if piece.is_empty() {
                        Vec::new()
                    } else {
                        vec![(succ, piece.clone())]
                    };
                    let mut inbox = ctx.exchange(OpClass::Expand, sends)?;
                    debug_assert!(inbox.len() <= 1, "ring delivers at most one piece");
                    if let Some((_, pl)) = inbox.pop() {
                        let dups = gathered.union_in(&pl, &policy);
                        debug_assert_eq!(dups, 0, "owned frontiers are disjoint");
                        piece = pl;
                    } else {
                        piece.clear();
                    }
                }
                ctx.trace_span(Phase::Gather, level, t_gather);
                let t_discover = ctx.trace_now();
                let blocks = st.discover_bottom_up(&gathered);
                ctx.trace_span(Phase::Discover, level, t_discover);
                blocks
            } else {
                // Expand (targeted) — one world round.
                let t_expand = ctx.trace_now();
                let sends: Vec<(usize, Vec<Vert>)> = st.expand_sends_targeted();
                let fbar = ctx.exchange(OpClass::Expand, sends)?;
                ctx.trace_span(Phase::Expand, level, t_expand);
                let t_discover = ctx.trace_now();
                let fbar_refs: Vec<&[Vert]> = fbar.iter().map(|(_, pl)| pl.as_slice()).collect();
                let blocks = st.discover(&fbar_refs);
                drop(fbar_refs);
                ctx.trace_span(Phase::Discover, level, t_discover);
                for (_, pl) in fbar {
                    ctx.scratch_put(pl);
                }
                blocks
            };
            directions.push(if bottom_up {
                LevelDirection::BottomUp
            } else {
                LevelDirection::TopDown
            });
            // Fold (direct all-to-all) — one world round.
            let t_fold = ctx.trace_now();
            let i = grid.row_of(rank);
            let sends: Vec<(usize, Vec<Vert>)> = blocks
                .into_iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .map(|(m, b)| (grid.rank_of(i, m), b))
                .collect();
            let nbar = ctx.exchange(OpClass::Fold, sends)?;
            ctx.trace_span(Phase::Fold, level, t_fold);
            let t_absorb = ctx.trace_now();
            let nbar_refs: Vec<&[Vert]> = nbar.iter().map(|(_, pl)| pl.as_slice()).collect();
            st.absorb(&nbar_refs, level + 1);
            drop(nbar_refs);
            for (_, pl) in nbar {
                ctx.scratch_put(pl);
            }
            ctx.trace_span(Phase::Absorb, level, t_absorb);
            ctx.trace_span(Phase::Level, level, t_level);
            level += 1;
        }
        Ok(RankOutcome {
            owned_start: st.rank_graph().owned.start,
            levels: st.levels,
            scratch_reuses: ctx.scratch_reuses(),
            expand_wire: ctx.wire_count(OpClass::Expand),
            fold_wire: ctx.wire_count(OpClass::Fold),
            directions,
            faults: ctx.faults,
            trace: ctx.take_trace(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BfsConfig;
    use crate::reference;
    use bgl_comm::{ProcessorGrid, SimWorld};
    use bgl_graph::GraphSpec;

    fn levels_of(graph: &DistGraph, source: Vertex, config: &ThreadedConfig) -> Vec<u32> {
        assemble_levels(graph.spec.n, &run_threaded(graph, source, config)).unwrap()
    }

    #[test]
    fn threaded_matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 61);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for (r, c) in [(1, 1), (2, 2), (2, 3), (4, 2)] {
            let graph = DistGraph::build(spec, ProcessorGrid::new(r, c));
            let got = levels_of(&graph, 0, &ThreadedConfig::default());
            assert_eq!(got, expect, "grid {r}x{c}");
        }
    }

    #[test]
    fn threaded_matches_simulator() {
        // Engine cross-validation: identical level labels from the real
        // message-passing runtime and the superstep simulator.
        let spec = GraphSpec::poisson(500, 5.0, 71);
        let grid = ProcessorGrid::new(3, 3);
        let graph = DistGraph::build(spec, grid);
        let threaded = levels_of(&graph, 7, &ThreadedConfig::default());
        let mut world = SimWorld::bluegene(grid);
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 7).unwrap();
        assert_eq!(threaded, sim.levels);
    }

    #[test]
    fn threaded_ranks_reuse_scratch_buffers() {
        // A multi-level run must recycle received wire buffers through
        // the per-rank pool instead of allocating fresh ones each round.
        let spec = GraphSpec::poisson(400, 6.0, 51);
        let graph = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let outs = run_threaded(&graph, 0, &ThreadedConfig::default());
        let total: u64 = outs
            .into_iter()
            .map(|o| o.expect("fault-free").scratch_reuses)
            .sum();
        assert!(total > 0, "expected pooled buffer reuse across levels");
    }

    #[test]
    fn threaded_without_sent_cache() {
        let spec = GraphSpec::poisson(200, 5.0, 81);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 3);
        let graph = DistGraph::build(spec, ProcessorGrid::new(2, 2));
        let config = ThreadedConfig {
            sent_neighbors: false,
            ..ThreadedConfig::default()
        };
        assert_eq!(levels_of(&graph, 3, &config), expect);
    }

    #[test]
    fn lossy_threaded_matches_oracle_and_sim_fault_schedule() {
        // Identical (seed, FaultPlan) must produce the same fault
        // schedule — and therefore the same retransmission counters —
        // in the threaded runtime and the simulator, and the lossy run
        // must still produce oracle-exact levels in both.
        let spec = GraphSpec::poisson(300, 6.0, 91);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let plan = FaultPlan::seeded(17)
            .with_drop_prob(0.2)
            .with_truncate_prob(0.05)
            .with_duplicate_prob(0.05);

        let config = ThreadedConfig {
            faults: plan.clone(),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &config);
        let levels = assemble_levels(graph.spec.n, &outs).expect("message faults are transparent");
        let mut total = FaultStats::default();
        for out in outs.iter().flatten() {
            total.merge(&out.faults);
        }
        assert_eq!(levels, expect);
        assert!(total.retransmissions > 0);

        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0).unwrap();
        assert_eq!(sim.levels, expect);
        assert_eq!(total, sim.stats.comm.faults);
    }

    #[test]
    fn wire_threaded_matches_simulator_byte_for_byte() {
        // Same graph, same source, same adaptive codec policy: the
        // threaded runtime's summed sender-side logical/wire bytes must
        // equal the simulator's per-class totals exactly (the codec
        // choice is a pure function of each payload), and the labels
        // must still match the oracle.
        let spec = GraphSpec::poisson(400, 6.0, 33);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        let grid = ProcessorGrid::new(2, 3);
        let graph = DistGraph::build(spec, grid);

        let config = ThreadedConfig {
            wire: WirePolicy::auto(),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &config);
        let levels = assemble_levels(graph.spec.n, &outs).expect("fault-free");
        let mut expand = WireCount::default();
        let mut fold = WireCount::default();
        for out in outs.iter().flatten() {
            expand.logical_bytes += out.expand_wire.logical_bytes;
            expand.wire_bytes += out.expand_wire.wire_bytes;
            fold.logical_bytes += out.fold_wire.logical_bytes;
            fold.wire_bytes += out.fold_wire.wire_bytes;
        }
        assert_eq!(levels, expect);

        let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
        let sim =
            crate::bfs2d::try_run(&graph, &mut world, &BfsConfig::baseline_alltoall(), 0).unwrap();
        assert_eq!(sim.levels, expect);
        let se = sim.stats.comm.class(OpClass::Expand);
        let sf = sim.stats.comm.class(OpClass::Fold);
        assert_eq!(expand.logical_bytes, se.logical_bytes);
        assert_eq!(expand.wire_bytes, se.wire_bytes);
        assert_eq!(fold.logical_bytes, sf.logical_bytes);
        assert_eq!(fold.wire_bytes, sf.wire_bytes);
        assert!(
            expand.wire_bytes + fold.wire_bytes < expand.logical_bytes + fold.logical_bytes,
            "the codec should pay on BFS traffic"
        );
    }

    #[test]
    fn threaded_direction_matches_simulator_choice_for_choice() {
        // The per-level direction is a pure function of globally
        // allreduced integers, so the threaded runtime and the
        // simulator must make the identical choice at every level —
        // and land on identical labels.
        let spec = GraphSpec::poisson(500, 8.0, 71);
        let grid = ProcessorGrid::new(3, 2);
        let graph = DistGraph::build(spec, grid);
        let config = BfsConfig {
            direction: DirectionPolicy::adaptive(),
            ..BfsConfig::baseline_alltoall()
        };
        let mut world = SimWorld::bluegene(grid);
        let sim = crate::bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        let sim_dirs: Vec<LevelDirection> = sim.stats.levels.iter().map(|l| l.direction).collect();
        assert!(
            sim_dirs.contains(&LevelDirection::BottomUp),
            "expected at least one bottom-up level"
        );

        let threaded = ThreadedConfig {
            direction: config.direction,
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &threaded);
        for out in outs.iter().flatten() {
            assert_eq!(out.directions, sim_dirs, "per-level direction vector");
        }
        let levels = assemble_levels(graph.spec.n, &outs).expect("fault-free");
        assert_eq!(levels, sim.levels);
    }

    #[test]
    fn threaded_rank_death_aborts_all_ranks() {
        let spec = GraphSpec::poisson(200, 5.0, 21);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let config = ThreadedConfig {
            faults: FaultPlan::seeded(9).kill_rank_at(2, 3),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &config);
        assert_eq!(outs.len(), 4);
        for out in outs {
            assert_eq!(out.unwrap_err(), CommError::RankDead { rank: 2 });
        }
    }
}
