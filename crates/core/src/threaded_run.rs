//! The 2D BFS on the real multi-threaded SPMD runtime.
//!
//! One OS thread per rank runs the *same* level step as the superstep
//! simulator (`level::step`), with one rank per call and genuine
//! concurrent message passing: [`RankCtx`] is the step's second
//! exchange, next to the simulator's. The two runtimes differ only in
//! how an exchange is carried out; no cost model applies here. Exists
//! to validate the simulator against a real parallel execution and to
//! power examples that want actual parallelism.
//!
//! [`run_threaded`] takes the same [`BfsConfig`] as
//! [`crate::bfs2d::try_run`] (sent-neighbors cache, direction mode,
//! target). The runtime has exchanges for targeted expand
//! and direct all-to-all fold only; any other strategy returns
//! [`CommError::InvalidConfig`] from every rank. A [`ThreadedConfig`]
//! holds the runtime's own options: a [`FaultPlan`], a wire codec and
//! tracing. Under a fault plan, lossy exchanges retransmit (counted per
//! rank in [`FaultStats`]), and a scheduled rank death aborts every
//! rank at the same superstep with a typed [`CommError`]. Because both
//! runtimes derive faults from the same pure hash of `(seed, class,
//! round, from, to)`, a run here injects the *same* fault schedule as
//! the simulator — the cross-runtime determinism the fault tests
//! assert.

use crate::config::{check_inputs, BfsConfig, Input};
use crate::level::{self, Exchange, Lists};
use crate::reference::UNREACHED;
use crate::state::RankState;
use crate::stats::LevelDirection;
use bgl_comm::collectives::alltoall::{unframe, SendList};
use bgl_comm::threaded::{RankCtx, ThreadedWorld};
use bgl_comm::{
    CommError, FaultPlan, FaultStats, OpClass, Payload, Phase, ProcessorGrid, VertSet, VsetPolicy,
    WireCount, WirePolicy,
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

/// The threaded runtime's own options. The default is a fault-free,
/// raw-wire, untraced run.
#[derive(Debug, Clone, Default)]
pub struct ThreadedConfig {
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

/// Run a BFS from `source` under `config` using one thread per rank.
/// Each rank reports its own outcome: the labels it computed plus its
/// counters, or the typed error that aborted it.
pub fn run_threaded(
    graph: &DistGraph,
    source: Vertex,
    config: &BfsConfig,
    runtime: &ThreadedConfig,
) -> Vec<Result<RankOutcome, CommError>> {
    let grid = graph.grid();
    if let Err(e) = check_inputs(
        graph,
        &[Input::Vertices(&[source]), Input::DirectExchange(config)],
    ) {
        return vec![Err(e); grid.len()];
    }
    ThreadedWorld::run_with(grid, runtime.faults.clone(), |ctx| {
        ctx.set_wire_policy(runtime.wire);
        if let Some(detail) = runtime.trace {
            ctx.enable_trace(detail);
        }
        let mut st = [RankState::new(
            &graph.ranks[ctx.rank()],
            graph.partition,
            config.sent_neighbors,
        )];
        st[0].init_source(source);
        let records = level::run(ctx, &mut st, config, graph.spec.n)?;
        let [st] = st;
        Ok(RankOutcome {
            owned_start: st.rank_graph().owned.start,
            levels: st.levels,
            scratch_reuses: ctx.scratch_reuses(),
            expand_wire: ctx.wire_count(OpClass::Expand),
            fold_wire: ctx.wire_count(OpClass::Fold),
            directions: records.iter().map(|r| r.direction).collect(),
            faults: ctx.faults,
            trace: ctx.take_trace(),
        })
    })
}

/// One rank per call: every per-rank slice holds this rank's entry.
/// No cost model, so probes go uncharged and level records keep only
/// their frontier, direction and probe fields.
impl Exchange for RankCtx {
    fn grid(&self) -> ProcessorGrid {
        RankCtx::grid(self)
    }
    fn now(&self) -> f64 {
        self.trace_now()
    }
    fn span(&mut self, phase: Phase, level: u32, t0: f64) {
        self.trace_span(phase, level, t0);
    }
    fn sum(&mut self, vals: &[u64]) -> Result<u64, CommError> {
        self.allreduce_sum(vals[0])
    }
    fn sum3(&mut self, a: &[u64], b: &[u64], c: &[u64]) -> Result<(u64, u64, u64), CommError> {
        self.allreduce_sum3(a[0], b[0], c[0])
    }
    fn alltoallv<P: Payload>(
        &mut self,
        class: OpClass,
        sends: Vec<SendList<P>>,
    ) -> Result<Vec<Vec<P>>, CommError> {
        let parts = sends.into_iter().flatten();
        let parts = parts.flat_map(|(to, msg)| msg.into_parts().map(move |pl| (to, pl)));
        let inbox: Vec<(usize, P)> = unframe(self.exchange(class, parts.collect())?);
        Ok(vec![inbox.into_iter().map(|(_, msg)| msg).collect()])
    }
    /// An (R-1)-step neighbour ring within the processor column. Empty
    /// pieces are not sent: absence of a message is the empty piece,
    /// as in the simulator's collective.
    fn frontier_gather(&mut self, frontiers: Lists) -> Result<Vec<VertSet>, CommError> {
        let mut piece = frontiers.concat();
        let grid = RankCtx::grid(self);
        let (i, j) = grid.position_of(self.rank());
        let succ = grid.rank_of((i + 1) % grid.rows(), j);
        let mut gathered = VertSet::from_sorted(piece.clone());
        for _ in 1..grid.rows() {
            let sends = if piece.is_empty() {
                vec![]
            } else {
                vec![(succ, piece)]
            };
            piece = self
                .exchange(OpClass::Expand, sends)?
                .pop()
                .map(|(_, pl)| pl)
                .unwrap_or_default();
            let dups = gathered.union_in(&piece, &VsetPolicy::hybrid());
            debug_assert_eq!(dups, 0, "owned frontiers are disjoint");
        }
        Ok(vec![gathered])
    }
    fn release<P: Payload>(&mut self, messages: Vec<P>) {
        let parts = messages.into_iter().flat_map(P::into_parts);
        parts.for_each(|pl| self.scratch_put(pl));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DirectionMode;
    use crate::reference;
    use bgl_comm::{ProcessorGrid, SimWorld};
    use bgl_graph::GraphSpec;

    fn levels_of(graph: &DistGraph, source: Vertex, config: &BfsConfig) -> Vec<u32> {
        let outs = run_threaded(graph, source, config, &ThreadedConfig::default());
        assemble_levels(graph.spec.n, &outs).unwrap()
    }

    #[test]
    fn threaded_matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 61);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for (r, c) in [(1, 1), (2, 2), (2, 3), (4, 2)] {
            let graph = DistGraph::build(spec, ProcessorGrid::new(r, c));
            let got = levels_of(&graph, 0, &BfsConfig::baseline_alltoall());
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
        let threaded = levels_of(&graph, 7, &BfsConfig::baseline_alltoall());
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
        let outs = run_threaded(
            &graph,
            0,
            &BfsConfig::baseline_alltoall(),
            &ThreadedConfig::default(),
        );
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
        let config = BfsConfig {
            sent_neighbors: false,
            ..BfsConfig::baseline_alltoall()
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

        let config = BfsConfig::baseline_alltoall();
        let runtime = ThreadedConfig {
            faults: plan.clone(),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &config, &runtime);
        let levels = assemble_levels(graph.spec.n, &outs).expect("message faults are transparent");
        let mut total = FaultStats::default();
        for out in outs.iter().flatten() {
            total.merge(&out.faults);
        }
        assert_eq!(levels, expect);
        assert!(total.retransmissions > 0);

        let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
        let sim = crate::bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
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

        let config = BfsConfig::baseline_alltoall();
        let runtime = ThreadedConfig {
            wire: WirePolicy::auto(),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &config, &runtime);
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
        let sim = crate::bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
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
            direction: DirectionMode::Adaptive,
            ..BfsConfig::baseline_alltoall()
        };
        let mut world = SimWorld::bluegene(grid);
        let sim = crate::bfs2d::try_run(&graph, &mut world, &config, 0).unwrap();
        let sim_dirs: Vec<LevelDirection> = sim.stats.levels.iter().map(|l| l.direction).collect();
        assert!(
            sim_dirs.contains(&LevelDirection::BottomUp),
            "expected at least one bottom-up level"
        );

        let outs = run_threaded(&graph, 0, &config, &ThreadedConfig::default());
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
        let runtime = ThreadedConfig {
            faults: FaultPlan::seeded(9).kill_rank_at(2, 3),
            ..ThreadedConfig::default()
        };
        let outs = run_threaded(&graph, 0, &BfsConfig::baseline_alltoall(), &runtime);
        assert_eq!(outs.len(), 4);
        for out in outs {
            assert_eq!(out.unwrap_err(), CommError::RankDead { rank: 2 });
        }
    }
}
