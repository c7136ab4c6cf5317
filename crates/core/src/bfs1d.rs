//! Distributed breadth-first expansion with 1D partitioning — the
//! paper's Algorithm 1, implemented directly.
//!
//! Under 1D (vertex) partitioning each processor owns a contiguous
//! vertex range *and the complete edge lists* of those vertices, so
//! there is no expand phase: neighbors are discovered locally and sent
//! straight to their owners (the fold; "the communication step in the 1D
//! partitioning is the same as the fold operation in the 2D
//! partitioning", §2.2).
//!
//! The loop is its own, since each rank discovers from its own
//! frontier, but termination, fold, absorb and the level record are the
//! phases every search shares (`crate::level`). The paper's remark that
//! 1D is 2D with `R = 1` is thus checked by two loops over one fold: the
//! tests compare labels, fold volume and hash probes with
//! [`crate::bfs2d`] on a `1 × P` grid.

use crate::bfs2d::BfsResult;
use crate::config::{check_inputs, BfsConfig, DirectionPolicy, Input};
use crate::level::{self, Meter, TopDown};
use crate::state::{gather_levels, RankState};
use crate::stats::RunStats;
use bgl_comm::{CommError, Phase, SimWorld};
use bgl_graph::{DistGraph, Vertex};

/// Run Algorithm 1 from `source`. The graph must be distributed on a
/// `1 × P` grid (the conventional 1D partitioning). Bad inputs and
/// communication faults surface as typed errors.
pub fn try_run(
    graph: &DistGraph,
    world: &mut SimWorld,
    config: &BfsConfig,
    source: Vertex,
) -> Result<BfsResult, CommError> {
    check_inputs(
        graph,
        &[
            Input::Grid(world.grid()),
            Input::OneD,
            Input::Vertices(&[source]),
        ],
    )?;
    let mut states: Vec<RankState<'_>> = graph
        .ranks
        .iter()
        .map(|rg| RankState::new(rg, graph.partition, config.sent_neighbors))
        .collect();
    states[graph.partition.owner_of(source)].init_source(source);

    let mut level_records = Vec::new();
    let mut target_level = None;
    let mut level: u32 = 0;
    while target_level.is_none() && (config.max_levels == 0 || level < config.max_levels) {
        let mut meter = Meter::start(world, level);
        let (frontier, _) =
            meter.terminate(world, &states, &DirectionPolicy::top_down(), graph.spec.n)?;
        if frontier == 0 {
            break;
        }

        // Local discovery straight from the frontier: N ← neighbors of F
        // (Algorithm 1 step 7). Edge lists are complete at the owner.
        let t_discover = world.time();
        let blocks = config.engine.map_mut(&mut states, |s| {
            let f = [std::mem::take(&mut s.frontier)];
            let out = s.discover(&f);
            let [f] = f;
            s.frontier = f;
            out
        });
        world.trace_span(Phase::Discover, level, t_discover);

        // Steps 8–16: send N_q to owner q, label new vertices.
        meter.fold_absorb(world, &mut states, config, blocks, level + 1)?;
        let probes = level::charge_probes(world, &mut states);
        if level::target_reached(world, &states, config.target)? {
            target_level = Some(level + 1);
        }
        level_records.push(meter.finish(world, frontier, false, probes));
        level += 1;
    }
    if config.target == Some(source) {
        target_level = Some(0);
    }

    let reached = states.iter().map(RankState::reached).sum();
    Ok(BfsResult {
        stats: RunStats::from_world(world, level_records, reached),
        target_level,
        levels: gather_levels(&states, graph.spec.n),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FoldStrategy;
    use crate::reference;
    use bgl_comm::{OpClass, ProcessorGrid};
    use bgl_graph::GraphSpec;

    #[test]
    fn matches_oracle() {
        let spec = GraphSpec::poisson(300, 6.0, 8);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 0);
        for p in [1, 2, 5, 8] {
            let grid = ProcessorGrid::one_d(p);
            let graph = DistGraph::build(spec, grid);
            let mut world = SimWorld::bluegene(grid);
            let got = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
            assert_eq!(got.levels, expect, "p={p}");
        }
    }

    #[test]
    fn equivalent_to_2d_with_r_equals_1() {
        // Paper §2.2: "The conventional 1D partitioning is equivalent to
        // the 2D partitioning with R = 1". Same labels, same fold wire
        // volume and the same hash probes, recorded per level.
        let spec = GraphSpec::poisson(400, 7.0, 15);
        let grid = ProcessorGrid::one_d(6);
        let graph = DistGraph::build(spec, grid);
        let config = BfsConfig::default();

        let mut w1 = SimWorld::bluegene(grid);
        let one_d = try_run(&graph, &mut w1, &config, 3).unwrap();
        let mut w2 = SimWorld::bluegene(grid);
        let two_d = crate::bfs2d::try_run(&graph, &mut w2, &config, 3).unwrap();

        assert_eq!(one_d.levels, two_d.levels);
        assert_eq!(
            one_d.stats.comm.class(OpClass::Fold).received_verts,
            two_d.stats.comm.class(OpClass::Fold).received_verts,
        );
        // 2D with R = 1 has no expand wire traffic either.
        assert_eq!(two_d.stats.comm.class(OpClass::Expand).received_verts, 0);
        assert_eq!(one_d.stats.comm.class(OpClass::Expand).received_verts, 0);
        assert!(one_d.stats.total_probes() > 0);
        assert_eq!(one_d.stats.total_probes(), two_d.stats.total_probes());
    }

    #[test]
    fn all_fold_strategies_agree() {
        let spec = GraphSpec::poisson(350, 8.0, 21);
        let grid = ProcessorGrid::one_d(7);
        let graph = DistGraph::build(spec, grid);
        let adj = bgl_graph::dist::adjacency(&spec);
        let expect = reference::bfs_levels(&adj, 5);
        for fold in [
            FoldStrategy::DirectAllToAll,
            FoldStrategy::ReduceScatterUnion,
            FoldStrategy::TwoPhaseRing,
        ] {
            let mut world = SimWorld::bluegene(grid);
            let config = BfsConfig {
                fold,
                ..BfsConfig::default()
            };
            let got = try_run(&graph, &mut world, &config, 5).unwrap();
            assert_eq!(got.levels, expect, "{fold:?}");
        }
    }

    #[test]
    fn rejects_2d_grid() {
        let spec = GraphSpec::poisson(100, 4.0, 1);
        let grid = ProcessorGrid::new(2, 2);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let err = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap_err();
        assert!(matches!(err, CommError::InvalidConfig { reason } if reason.contains("1 x P")));
    }

    #[test]
    fn single_rank_no_communication() {
        let spec = GraphSpec::poisson(150, 5.0, 4);
        let grid = ProcessorGrid::one_d(1);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        let got = try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
        assert_eq!(got.stats.comm.total_received(), 0);
        assert!(got.stats.reached > 1);
    }
}
