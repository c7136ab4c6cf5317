//! The search workloads: one client runs full searches from seeded
//! search keys back to back (a closed loop), and validates each.
//!
//! The measured loop cycles through the keys until `--seconds` have
//! passed, after at least one complete first pass. Simulated metrics
//! come from the first pass, so they do not depend on host speed; host
//! metrics summarize every search in the loop.

use crate::clock::Stamp;
use crate::inputs::{component_edges, derive, sample_sources, Stream};
use crate::report::{mean, median, peak_rss_mb, quantile, Report};
use crate::spans::Spans;
use crate::{phase_seconds, pin_worker_threads, zero_layer, RunOpts, Scale, Workload, SETUP_REPS};
use bfs_core::{bfs2d, validate_levels, BfsConfig, ComputeEngine, RunStats};
use bgl_comm::{OpClass, ProcessorGrid, SimWorld, TraceDetail, WirePolicy};
use bgl_graph::{DistGraph, GraphSpec, Vertex};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Keys a traced run searches again, untraced and under the serial
/// engine.
const RERUN_KEYS: usize = 16;

/// A search workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct SearchParams {
    /// Which workload.
    pub workload: Workload,
    /// Vertices.
    pub n: u64,
    /// Mean degree.
    pub degree: f64,
    /// Processor grid.
    pub grid: ProcessorGrid,
    /// Engine configuration.
    pub config: BfsConfig,
    /// Wire codec policy.
    pub wire: WirePolicy,
    /// Distinct search keys: the first pass.
    pub keys: usize,
}

impl SearchParams {
    /// The parameters of `workload` (a search workload) at `scale`.
    pub fn new(workload: Workload, scale: Scale) -> Self {
        let full = scale == Scale::Full;
        match workload {
            Workload::SearchPoisson => Self {
                workload,
                n: if full { 1 << 18 } else { 1 << 12 },
                degree: 16.0,
                grid: if full {
                    ProcessorGrid::new(16, 16)
                } else {
                    ProcessorGrid::new(8, 8)
                },
                config: BfsConfig::paper_optimized(),
                wire: WirePolicy::raw(),
                keys: if full { 8 } else { 3 },
            },
            Workload::SearchRmatDirop => Self {
                workload,
                n: if full { 1 << 18 } else { 1 << 12 },
                degree: 16.0,
                grid: ProcessorGrid::new(8, 8),
                config: BfsConfig::direction_optimized(),
                wire: WirePolicy::auto(),
                keys: if full { 160 } else { 3 },
            },
            Workload::ServeRmatBursty => panic!("serve-rmat-bursty is not a search workload"),
        }
    }

    /// The graph spec for generator seed `seed`.
    fn spec(&self, seed: u64) -> GraphSpec {
        match self.workload {
            Workload::SearchPoisson => GraphSpec::poisson(self.n, self.degree, seed),
            _ => GraphSpec::rmat(self.n, self.degree, seed),
        }
    }

    /// The inputs workload seed `seed` generates: the graph spec and
    /// the search keys (which need the graph's adjacency).
    pub fn inputs(&self, seed: u64) -> (GraphSpec, Vec<Vertex>) {
        let spec = self.spec(derive(seed, Stream::Graph));
        let adj = bgl_graph::dist::adjacency(&spec);
        (
            spec,
            sample_sources(&adj, self.keys, derive(seed, Stream::Sources)),
        )
    }
}

/// The loaded graph, runtime and validator adjacency, with the host CPU
/// seconds each took.
struct Loaded {
    graph: DistGraph,
    world: SimWorld,
    adj: Vec<Vec<Vertex>>,
    build_s: f64,
    adjacency_s: f64,
    total_s: f64,
}

fn load(p: &SearchParams, spec: GraphSpec, spans: &mut Spans, rep: u64) -> Loaded {
    let run = ("setup", rep);
    let t0 = Stamp::now();
    let root = spans.open("setup", run, None, t0.wall);
    let graph = DistGraph::build(spec, p.grid);
    let t1 = Stamp::now();
    spans.record("DistGraph::build", run, root, t0.wall, t1.wall);
    let world = SimWorld::bluegene(p.grid).with_wire_policy(p.wire);
    let t2 = Stamp::now();
    spans.record("SimWorld::bluegene", run, root, t1.wall, t2.wall);
    let adj = bgl_graph::dist::adjacency(&spec);
    let t3 = Stamp::now();
    spans.record("dist::adjacency", run, root, t2.wall, t3.wall);
    spans.close(root, t3.wall);
    Loaded {
        graph,
        world,
        adj,
        build_s: t1.cpu_since(&t0),
        adjacency_s: t3.cpu_since(&t2),
        total_s: t3.cpu_since(&t0),
    }
}

/// One validated search and what it cost on both clocks.
struct Searched {
    /// Hash of the level array (the arrays themselves are not kept).
    levels_hash: u64,
    /// Edges of the reached component.
    edges: u64,
    stats: RunStats,
    /// Simulated seconds by component, read off the world.
    hash_s: f64,
    memcpy_s: f64,
    comm_by_class: [f64; 3],
    phases: [f64; 6],
    max_link_bytes: u64,
    tree_edges: u64,
    /// Host CPU seconds.
    bfs_s: f64,
    validate_s: f64,
    /// Host wall seconds of the engine call.
    bfs_wall_s: f64,
}

impl Searched {
    /// Same levels and bit-identical simulated clocks.
    fn same_as(&self, o: &Searched) -> bool {
        let s = (&self.stats, &o.stats);
        self.levels_hash == o.levels_hash
            && s.0.sim_time.to_bits() == s.1.sim_time.to_bits()
            && s.0.comm_time.to_bits() == s.1.comm_time.to_bits()
            && s.0.compute_time.to_bits() == s.1.compute_time.to_bits()
    }
}

/// Search from `key` on a reset world and validate the levels.
fn search(
    l: &mut Loaded,
    config: &BfsConfig,
    key: Vertex,
    spans: &mut Spans,
    run: (&'static str, u64),
) -> Result<Searched, String> {
    // bfs2d reports the world's absolute clocks and counters, so every
    // search starts from a reset world.
    l.world.reset();
    let t0 = Stamp::now();
    let root = spans.open("search", run, None, t0.wall);
    let result = bfs2d::try_run(&l.graph, &mut l.world, config, key);
    let t1 = Stamp::now();
    spans.record("bfs2d::try_run", run, root, t0.wall, t1.wall);
    let result = result.map_err(|e| format!("search from {key}: {e}"))?;
    let report = validate_levels(&l.adj, &result.levels, key);
    let t2 = Stamp::now();
    spans.record("validate_levels", run, root, t1.wall, t2.wall);
    spans.close(root, t2.wall);
    let report = report.map_err(|e| format!("search from {key} failed validation: {e}"))?;
    let mut h = DefaultHasher::new();
    result.levels.hash(&mut h);
    Ok(Searched {
        levels_hash: h.finish(),
        edges: component_edges(&l.adj, &result.levels),
        hash_s: l.world.hash_time(),
        memcpy_s: l.world.memcpy_time(),
        comm_by_class: OpClass::ALL.map(|c| l.world.comm_time_for(c)),
        phases: phase_seconds(&l.world),
        max_link_bytes: l.world.traffic().map_or(0, |t| t.max_link_bytes()),
        tree_edges: report.tree_edges,
        stats: result.stats,
        bfs_s: t1.cpu_since(&t0),
        validate_s: t2.cpu_since(&t1),
        bfs_wall_s: t1.wall_since(&t0),
    })
}

/// Run a search workload.
pub fn run(p: &SearchParams, opts: &RunOpts) -> Report {
    let host_threads = pin_worker_threads();
    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    let spec = p.spec(derive(opts.seed, Stream::Graph));

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut adjacency_s = Vec::new();
    let mut loaded = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(loaded.take()); // one resident copy at a time
        let l = load(p, spec, &mut spans, rep);
        setup_s.push(l.total_s);
        build_s.push(l.build_s);
        adjacency_s.push(l.adjacency_s);
        loaded = Some(l);
    }
    let mut l = loaded.expect("SETUP_REPS > 0");
    let keys = sample_sources(&l.adj, p.keys, derive(opts.seed, Stream::Sources));
    if opts.trace {
        l.world.enable_trace(TraceDetail::Span);
        l.world.enable_traffic_accounting();
    }

    // The measured loop.
    let mut first: Vec<Option<Searched>> = Vec::new();
    let mut samples: Vec<(f64, f64, u64)> = Vec::new(); // (bfs_s, validate_s, edges)
    let loop_start = Stamp::now();
    let mut i = 0usize;
    while i < keys.len() || loop_start.wall.elapsed().as_secs_f64() < opts.seconds {
        let k = i % keys.len();
        report.attempted += 1;
        let done = search(&mut l, &p.config, keys[k], &mut spans, ("search", i as u64));
        match done {
            Ok(s) => {
                samples.push((s.bfs_s, s.validate_s, s.edges));
                if i < keys.len() {
                    first.push(Some(s));
                }
            }
            Err(e) => {
                report.fail(e);
                if i < keys.len() {
                    first.push(None);
                }
            }
        }
        i += 1;
    }
    let loop_s = Stamp::now().cpu_since(&loop_start);
    let first: Vec<Searched> = first.into_iter().flatten().collect();
    if first.len() < keys.len() {
        return report; // a first-pass search failed: nothing to summarize
    }

    let bfs_s: Vec<f64> = samples.iter().map(|s| s.0).collect();
    let latency_s: Vec<f64> = samples.iter().map(|s| s.0 + s.1).collect();
    let sim_s: Vec<f64> = first.iter().map(|s| s.stats.sim_time).collect();
    let n = samples.len();

    if !opts.trace {
        report.host("setup_s", median(&setup_s), setup_s.len());
        report.host("host_latency_ms_p50", median(&latency_s) * 1e3, n);
        report.host("host_qps", n as f64 / loop_s, n);
        let edges: u64 = samples.iter().map(|s| s.2).sum();
        report.host("host_teps", edges as f64 / bfs_s.iter().sum::<f64>(), n);
        report.exact("sim_latency_ms_p50", quantile(&sim_s, 0.5) * 1e3);
        report.exact("sim_latency_ms_p99", quantile(&sim_s, 0.99) * 1e3);
        report.exact("sim_qps", sim_s.len() as f64 / sim_s.iter().sum::<f64>());
        report.host("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), 1);
        report.host("search_s_p50", median(&latency_s), n);
        report.exact("sim_search_ms", mean(&sim_s) * 1e3);
        report.exact(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
        );
        return report;
    }

    // Traced run: repeat the start of the first pass untraced, then under
    // the serial engine; both must reproduce the traced pass bit for bit.
    let rerun_keys = &keys[..keys.len().min(RERUN_KEYS)];
    let mut quiet = Spans::new(false);
    // Each rerun gives its engine calls' (CPU, wall) seconds.
    let mut rerun = |engine: Option<ComputeEngine>, report: &mut Report| -> Vec<(f64, f64)> {
        let config = engine.map_or(p.config, |e| p.config.with_engine(e));
        let mut world = SimWorld::bluegene(p.grid).with_wire_policy(p.wire);
        std::mem::swap(&mut l.world, &mut world);
        let mut bfs = Vec::new();
        for (k, &key) in rerun_keys.iter().enumerate() {
            report.attempted += 1;
            match search(&mut l, &config, key, &mut quiet, ("rerun", k as u64)) {
                Ok(s) if s.same_as(&first[k]) => bfs.push((s.bfs_s, s.bfs_wall_s)),
                Ok(_) => report.fail(format!("rerun from {key} diverged from the first pass")),
                Err(e) => report.fail(e),
            }
        }
        std::mem::swap(&mut l.world, &mut world);
        bfs
    };
    let untraced = rerun(None, &mut report);
    let serial = rerun(Some(ComputeEngine::Serial), &mut report);
    let cpu = |r: &[(f64, f64)]| r.iter().map(|s| s.0).collect::<Vec<_>>();
    let wall = |r: &[(f64, f64)]| r.iter().map(|s| s.1).collect::<Vec<_>>();
    // Tracing instruments the engine call: compare its time on the keys
    // both passes searched.
    let traced_first: f64 = samples[..rerun_keys.len()].iter().map(|s| s.0).sum();

    let avg = |f: &dyn Fn(&Searched) -> f64| mean(&first.iter().map(f).collect::<Vec<_>>());
    let ms = 1e3;
    report.host("graph.build_s", median(&build_s), build_s.len());
    report.host("graph.adjacency_s", median(&adjacency_s), adjacency_s.len());
    report.exact("graph.edges", l.graph.total_entries() as f64);
    report.exact("graph.max_rank_bytes", l.graph.max_rank_bytes() as f64);
    report.host("bfs2d.host_s_p50", median(&bfs_s), n);
    report.exact("bfs2d.levels", avg(&|s| s.stats.num_levels() as f64));
    report.exact(
        "bfs2d.bu_levels",
        avg(&|s| s.stats.direction_split().1 as f64),
    );
    report.exact("bfs2d.probes", avg(&|s| s.stats.total_probes() as f64));
    report.exact("bfs2d.sim_compute_ms", avg(&|s| s.stats.compute_time) * ms);
    report.exact("bfs2d.sim_hash_ms", avg(&|s| s.hash_s) * ms);
    report.exact("bfs2d.sim_memcpy_ms", avg(&|s| s.memcpy_s) * ms);
    report.exact("comm.sim_comm_ms", avg(&|s| s.stats.comm_time) * ms);
    report.exact("comm.sim_expand_ms", avg(&|s| s.comm_by_class[0]) * ms);
    report.exact("comm.sim_fold_ms", avg(&|s| s.comm_by_class[1]) * ms);
    report.exact("comm.sim_control_ms", avg(&|s| s.comm_by_class[2]) * ms);
    let class = |s: &Searched, c: OpClass| *s.stats.comm.class(c);
    report.exact(
        "comm.messages",
        avg(&|s| {
            OpClass::ALL
                .iter()
                .map(|&c| class(s, c).messages)
                .sum::<u64>() as f64
        }),
    );
    report.exact(
        "comm.expand_verts",
        avg(&|s| class(s, OpClass::Expand).received_verts as f64),
    );
    report.exact(
        "comm.fold_verts",
        avg(&|s| class(s, OpClass::Fold).received_verts as f64),
    );
    let logical = avg(&|s| s.stats.comm.total_logical_bytes() as f64);
    let wire = avg(&|s| s.stats.comm.total_wire_bytes() as f64);
    report.exact("comm.logical_bytes", logical);
    report.exact("comm.wire_bytes", wire);
    report.exact("comm.compression", logical / wire);
    report.exact(
        "comm.redundancy_pct",
        avg(&|s| s.stats.redundancy_ratio_percent()),
    );
    report.exact(
        "comm.bitmap_union_frac",
        avg(&|s| s.stats.bitmap_union_fraction()),
    );
    report.exact("comm.sim_codec_ms", avg(&|s| s.stats.codec_time) * ms);
    report.exact("torus.max_link_bytes", avg(&|s| s.max_link_bytes as f64));
    let validate_s: Vec<f64> = samples.iter().map(|s| s.1).collect();
    report.host("validate.host_s_p50", median(&validate_s), n);
    report.exact("validate.tree_edges", avg(&|s| s.tree_edges as f64));
    report.exact("engine.host_threads", host_threads as f64);
    report.host(
        "engine.serial_search_s_p50",
        median(&cpu(&serial)),
        serial.len(),
    );
    report.host(
        "engine.rayon_speedup",
        median(&wall(&serial)) / median(&wall(&untraced)),
        untraced.len(),
    );
    zero_layer(&mut report, "server.");
    for (i, (_, name)) in crate::PHASES.iter().enumerate() {
        report.exact(name, avg(&|s| s.phases[i]) * ms);
    }
    report.host(
        "trace.host_overhead_frac",
        traced_first / cpu(&untraced).iter().sum::<f64>() - 1.0,
        rerun_keys.len(),
    );
    let out = crate::span_path(p.workload, opts.seed);
    if let Err(e) = spans.write(&out, p.workload.name(), opts.seed) {
        report.fail(format!("writing {}: {e}", out.display()));
    }
    report
}
