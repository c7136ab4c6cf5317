//! Determinism and reproducibility: every run is a pure function of
//! (spec, grid, config, source) — the property the whole experiment
//! harness rests on.

use bgl_bfs::comm::VsetPolicy;
use bgl_bfs::core::bfs2d;
use bgl_bfs::{BfsConfig, DistGraph, GraphSpec, ProcessorGrid, SimWorld};

#[test]
fn identical_runs_produce_identical_stats() {
    let spec = GraphSpec::poisson(1_000, 8.0, 1234);
    let grid = ProcessorGrid::new(3, 3);
    let run = || {
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 5).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.stats.levels, b.stats.levels);
    assert_eq!(a.stats.comm, b.stats.comm);
    assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());
}

#[test]
fn graph_identical_across_grid_shapes() {
    // The generated graph depends only on the spec: total entries match
    // across every partitioning (cell sampling is grid-independent).
    let spec = GraphSpec::poisson(5_000, 6.0, 99);
    let counts: Vec<u64> = [(1, 1), (2, 2), (4, 8), (32, 1), (1, 32)]
        .iter()
        .map(|&(r, c)| DistGraph::build(spec, ProcessorGrid::new(r, c)).total_entries())
        .collect();
    for w in counts.windows(2) {
        assert_eq!(w[0], w[1], "entry counts differ across grids: {counts:?}");
    }
}

#[test]
fn different_seeds_change_results_same_seed_does_not() {
    let grid = ProcessorGrid::new(2, 2);
    let levels_for = |seed: u64| {
        let spec = GraphSpec::poisson(800, 5.0, seed);
        let graph = DistGraph::build(spec, grid);
        let mut world = SimWorld::bluegene(grid);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0)
            .unwrap()
            .levels
    };
    assert_eq!(levels_for(7), levels_for(7));
    assert_ne!(levels_for(7), levels_for(8));
}

#[test]
fn hybrid_frontier_representation_is_bit_identical_to_list_only() {
    // The bitmap/list hybrid is a pure representation change: on a dense
    // oracle-checked graph the hybrid run must produce the same labels
    // AND the same clock bits as a list-only run, while actually taking
    // the bitmap path.
    let spec = GraphSpec::poisson(1_500, 16.0, 71);
    let adj = bgl_bfs::graph::dist::adjacency(&spec);
    let expect = bgl_bfs::core::reference::bfs_levels(&adj, 0);
    let grid = ProcessorGrid::new(2, 4);
    let graph = DistGraph::build(spec, grid);
    let run = |policy: VsetPolicy| {
        let mut world = SimWorld::bluegene(grid).with_vset_policy(policy);
        bfs2d::try_run(&graph, &mut world, &BfsConfig::paper_optimized(), 0).unwrap()
    };
    let hybrid = run(VsetPolicy::hybrid());
    let listy = run(VsetPolicy::list_only());
    assert_eq!(hybrid.levels, expect, "hybrid run matches the oracle");
    assert_eq!(listy.levels, expect, "list-only run matches the oracle");
    assert!(
        hybrid.stats.comm.setops.bitmap_unions > 0,
        "dense graph must exercise the bitmap representation"
    );
    assert_eq!(listy.stats.comm.setops.bitmap_unions, 0);
    assert_eq!(
        hybrid.stats.sim_time.to_bits(),
        listy.stats.sim_time.to_bits(),
        "representation change must not move the simulated clock"
    );
    assert_eq!(
        hybrid.stats.comm_time.to_bits(),
        listy.stats.comm_time.to_bits()
    );
    assert_eq!(
        hybrid.stats.compute_time.to_bits(),
        listy.stats.compute_time.to_bits()
    );
    // Logical message accounting identical too (unions differ only in
    // representation counters).
    assert_eq!(
        hybrid.stats.comm.total_received(),
        listy.stats.comm.total_received()
    );
    assert_eq!(
        hybrid.stats.comm.total_dups_eliminated(),
        listy.stats.comm.total_dups_eliminated()
    );
}

#[test]
fn world_reset_restores_clean_slate() {
    let spec = GraphSpec::poisson(600, 6.0, 11);
    let grid = ProcessorGrid::new(2, 3);
    let graph = DistGraph::build(spec, grid);
    let mut world = SimWorld::bluegene(grid);
    let a = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
    world.reset();
    let b = bfs2d::try_run(&graph, &mut world, &BfsConfig::default(), 0).unwrap();
    assert_eq!(a.levels, b.levels);
    assert_eq!(a.stats.sim_time.to_bits(), b.stats.sim_time.to_bits());
    assert_eq!(a.stats.comm, b.stats.comm);
}

/// `(sim_time, comm_time, compute_time)` bits and per-level
/// `(frontier, fold_received, wire_bytes)` of one run.
type Golden = ([u64; 3], &'static [(u64, u64, u64)]);

fn assert_golden(case: &str, stats: &bgl_bfs::core::RunStats, (clocks, levels): Golden) {
    let got: Vec<(u64, u64, u64)> = stats
        .levels
        .iter()
        .map(|l| (l.frontier, l.fold_received, l.wire_bytes))
        .collect();
    let bits = [stats.sim_time, stats.comm_time, stats.compute_time].map(f64::to_bits);
    assert_eq!(
        (bits, got.as_slice()),
        (clocks, levels),
        "{case}: clock bits or volumes moved"
    );
}

/// Golden values captured before the level phases were shared between
/// the searches and runtimes: a refactor of the level loop must leave
/// every simulated clock bit and every per-level volume where it was.
#[test]
fn golden_clocks_and_level_volumes_are_pinned() {
    use bgl_bfs::comm::{FaultPlan, WirePolicy};
    use bgl_bfs::core::{bidir, multi, path, MultiConfig, ResilientConfig};

    let grid = ProcessorGrid::new(3, 3);
    let graph = DistGraph::build(GraphSpec::poisson(1_200, 8.0, 7), grid);
    for (case, config, golden) in [
        (
            "paper_optimized",
            BfsConfig::paper_optimized(),
            PAPER_OPTIMIZED,
        ),
        (
            "baseline_alltoall",
            BfsConfig::baseline_alltoall(),
            BASELINE_ALLTOALL,
        ),
    ] {
        let got = bfs2d::try_run(&graph, &mut SimWorld::bluegene(grid), &config, 5).unwrap();
        assert_golden(case, &got.stats, golden);
    }

    let grid = ProcessorGrid::new(2, 3);
    let dense = DistGraph::build(GraphSpec::poisson(1_500, 14.0, 71), grid);
    let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
    let dirop = bfs2d::try_run(&dense, &mut world, &BfsConfig::direction_optimized(), 0).unwrap();
    assert!(
        dirop.stats.direction_split().1 > 0,
        "case must go bottom-up"
    );
    assert_golden("direction_optimized", &dirop.stats, DIRECTION_OPTIMIZED);

    let small = GraphSpec::poisson(600, 6.0, 31);
    let graph = DistGraph::build(small, grid);
    let plan = FaultPlan::seeded(5).kill_rank_at(4, 3);
    let mut world = SimWorld::bluegene(grid).with_fault_plan(plan);
    let (config, rc) = (BfsConfig::default(), ResilientConfig::default());
    let resilient = bfs2d::run_resilient(&graph, &mut world, &config, 0, &rc).unwrap();
    assert_eq!(resilient.recoveries, 1);
    assert_golden("run_resilient", &resilient.result.stats, RESILIENT);

    let bi = bidir::try_run(&graph, &mut SimWorld::bluegene(grid), &config, 0, 599).unwrap();
    assert_golden("bidir", &bi.stats, BIDIR);

    let line = ProcessorGrid::one_d(6);
    let graph = DistGraph::build(small, line);
    // Algorithm 1 is Algorithm 2 on a 1 x P grid (paper §2.2).
    let one_row = bfs2d::try_run(&graph, &mut SimWorld::bluegene(line), &config, 3).unwrap();
    assert_golden("bfs2d_one_row", &one_row.stats, BFS1D);

    // Lane waves and the batched path walk, captured while lane waves
    // still ran their own level loop: clock bits, probes, per-wave
    // (vertex, lane) pairs and wire volume.
    let rmat = DistGraph::build(GraphSpec::rmat(2_000, 8.0, 7), grid);
    let mut world = SimWorld::bluegene(grid).with_wire_policy(WirePolicy::auto());
    let sources = [0, 17, 17, 999, 1_500];
    let batch = multi::try_run(&rmat, &mut world, &MultiConfig::default(), &sources).unwrap();
    let pairs: Vec<u64> = batch.waves.iter().map(|w| w.frontier).collect();
    let got = (
        [batch.sim_time, batch.comm_time].map(f64::to_bits),
        batch.total_probes,
        pairs.as_slice(),
        world.stats.total_wire_bytes(),
    );
    assert_eq!(got, MULTI, "multi: clock bits, probes or volumes moved");

    let levels = &batch.lane_levels[0];
    let targets = [370, 183, 313, 17, 1_234, 3, 0, 1_999];
    let mut world = SimWorld::bluegene(grid);
    let walk = path::try_multi(&rmat, &mut world, levels, 0, &targets).unwrap();
    let got = (walk.sim_time.to_bits(), walk.rounds, walk.hops);
    assert_eq!(got, PATH_MULTI, "path: clock bits or rounds moved");
}

#[rustfmt::skip]
const MULTI: ([u64; 2], u64, &[u64], u64) =
    ([0x3f4c844e52b0c5ac, 0x3f31445d70c34909], 27447, &[5, 525, 2545, 868, 25], 33725);
#[rustfmt::skip]
const PATH_MULTI: (u64, u64, u32) = (0x3f24e1823561547e, 12, 4);

#[rustfmt::skip]
const PAPER_OPTIMIZED: Golden = ([0x3f3b92d4dbd4f9c5, 0x3f34e8e3fe7f152f, 0x3f1aa7c37557925b], &[
    (1, 4, 48), (6, 56, 544), (46, 339, 3440), (296, 1281, 14792),
    (732, 1191, 20424), (118, 55, 2120), (1, 0, 8),
]);
#[rustfmt::skip]
const BASELINE_ALLTOALL: Golden = ([0x3f3ab0cf0f2ebacd, 0x3f340767a238176e, 0x3f1aa59db3da8d81], &[
    (1, 3, 40), (6, 35, 376), (46, 219, 2480), (296, 1008, 12608),
    (732, 911, 18184), (118, 36, 1968), (1, 0, 8),
]);
#[rustfmt::skip]
const DIRECTION_OPTIMIZED: Golden = ([0x3f37abbf8e65db26, 0x3f25c49fcb5bc5ee, 0x3f2992df516ff065], &[
    (1, 20, 54), (21, 289, 362), (283, 2069, 754), (1112, 1414, 675), (83, 12, 144),
]);
#[rustfmt::skip]
const RESILIENT: Golden = ([0x3f3bb3fe2b19ccbc, 0x3f37dcae2298c9c7, 0x3f0eba80440817a7], &[
    (1, 11, 96), (12, 78, 712), (66, 331, 3168), (247, 672, 7336), (247, 303, 4312), (26, 12, 264),
]);
#[rustfmt::skip]
const BIDIR: Golden = ([0x3f2a5943eb8240e6, 0x3f2a12439e4cd064, 0x3ec1c0134d5c20b5], &[
    (1, 11, 96), (1, 3, 32), (4, 26, 240),
]);
#[rustfmt::skip]
const BFS1D: Golden = ([0x3f34032c132489de, 0x3f2fc0524c59378c, 0x3f108c0bb3dfb85a], &[
    (1, 11, 88), (10, 98, 784), (59, 497, 3976), (245, 1412, 11296),
    (262, 921, 7368), (21, 37, 296), (1, 2, 16),
]);
