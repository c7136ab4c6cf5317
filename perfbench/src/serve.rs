//! The serve workload: seeded Zipf queries reach `BglServer` on a
//! bursty tick schedule.
//!
//! The loop is open in ticks: each tick's arrivals are submitted
//! whatever the backlog, then one `pump()` runs, and ticks follow each
//! other on the host without pacing (host pacing would make batch
//! composition, and so every simulated number, depend on host speed).
//! After the last arrival the server is pumped until its queue drains.
//! One pass serves the whole query sequence on a fresh server; passes
//! repeat until `--seconds` have passed. Simulated metrics come from the
//! first pass; every later pass must reproduce it bit for bit.

use crate::clock::Stamp;
use crate::inputs::{component_edges, derive, Stream};
use crate::report::{median, peak_rss_mb, quantile, Report};
use crate::spans::{SpanId, Spans};
use crate::{phase_seconds, pin_worker_threads, zero_layer, RunOpts, Scale, Workload, SETUP_REPS};
use bfs_core::{path::validate_path, reference, ComputeEngine, UNREACHED};
use bgl_comm::{CommStats, OpClass, ProcessorGrid, SimWorld, TraceDetail};
use bgl_graph::{DistGraph, GraphSpec, Vertex};
use bgl_server::{
    ArrivalProcess, BglServer, Outcome, QueryKind, QueryMix, Response, ServedBy, ServerConfig,
    ServerStats, WorkloadSpec,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The serve workload's fixed parameters.
#[derive(Debug, Clone)]
pub struct ServeParams {
    /// Vertices of the R-MAT graph.
    pub n: u64,
    /// Mean degree.
    pub degree: f64,
    /// Processor grid.
    pub grid: ProcessorGrid,
    /// Server configuration.
    pub config: ServerConfig,
    /// Queries per pass.
    pub queries: usize,
    /// Zipf source pool.
    pub pool: usize,
    /// Zipf exponent.
    pub theta: f64,
    /// Bursty arrivals: long-run mean per tick.
    pub mean: f64,
    /// Bursty arrivals: burst factor.
    pub burst: f64,
}

impl ServeParams {
    /// The parameters at `scale`.
    pub fn new(scale: Scale) -> Self {
        let full = scale == Scale::Full;
        Self {
            n: if full { 1 << 16 } else { 1 << 12 },
            degree: 16.0,
            grid: ProcessorGrid::new(8, 8),
            config: ServerConfig {
                deadline_ticks: Some(64),
                ..ServerConfig::default()
            },
            queries: if full { 4096 } else { 256 },
            pool: if full { 1024 } else { 128 },
            theta: 1.0,
            mean: 16.0,
            burst: 2.0,
        }
    }

    /// The inputs workload seed `seed` generates: the graph spec, the
    /// query sequence and the arrivals per tick.
    pub fn inputs(&self, seed: u64) -> (GraphSpec, Vec<QueryKind>, Vec<usize>) {
        let spec = GraphSpec::rmat(self.n, self.degree, derive(seed, Stream::Graph));
        let queries = WorkloadSpec {
            queries: self.queries,
            hot_sources: self.pool,
            theta: self.theta,
            mix: QueryMix::default(),
            seed: derive(seed, Stream::Queries),
        }
        .generate(self.n);
        let schedule = ArrivalProcess::Bursty {
            mean: self.mean,
            burst: self.burst,
        }
        .schedule(queries.len(), derive(seed, Stream::Arrivals));
        (spec, queries, schedule)
    }
}

/// Answered queries, each with the index of the pump that answered it.
type Answers = Vec<(Response, usize)>;

/// What one pass measured. Host times are CPU seconds, except
/// `pump_wall_s`.
#[derive(Default)]
struct Pass {
    /// One hash per answer, in answer order (see [`digest`]).
    digest: Vec<u64>,
    submit_s: Vec<f64>,
    pump_s: Vec<f64>,
    pump_wall_s: Vec<f64>,
    /// Per pump: whether it ran an engine batch.
    batch_pump: Vec<bool>,
    host_latency_s: Vec<f64>,
    sim_latency_s: Vec<f64>,
    loop_s: f64,
    stats: ServerStats,
    evictions: u64,
    comm: Option<CommStats>,
    world_comm_s: f64,
    comm_by_class: [f64; 3],
    codec_s: f64,
    phases: [f64; 6],
    max_link_bytes: u64,
    sim_end: f64,
}

/// Serve every query once on a fresh server.
#[allow(clippy::too_many_arguments)]
fn serve_pass(
    graph: &DistGraph,
    config: ServerConfig,
    queries: &[QueryKind],
    schedule: &[usize],
    trace: bool,
    spans: &mut Spans,
    report: &mut Report,
) -> (Pass, Answers) {
    let mut srv = BglServer::new(graph.clone(), SimWorld::bluegene(graph.grid()), config);
    if trace {
        srv.world_mut().enable_trace(TraceDetail::Span);
        srv.world_mut().enable_traffic_accounting();
    }
    let mut pass = Pass::default();
    let mut answers = Answers::new();
    let mut submitted_at: Vec<(Stamp, f64, Option<SpanId>)> = Vec::with_capacity(queries.len());
    let mut arrivals = queries.iter();
    let start = Stamp::now();
    for tick in 0.. {
        if let Some(&count) = schedule.get(tick) {
            for q in arrivals.by_ref().take(count) {
                report.attempted += 1;
                let t0 = Stamp::now();
                let admitted = srv.submit(*q);
                let t1 = Stamp::now();
                match admitted {
                    Ok(id) => {
                        let query = spans.open("query", ("query", id), None, t0.wall);
                        spans.record("BglServer::submit", ("query", id), query, t0.wall, t1.wall);
                        submitted_at.push((t0, srv.world().time(), query));
                        pass.submit_s.push(t1.cpu_since(&t0));
                    }
                    Err(e) => report.fail(format!("query {q:?} rejected: {e:?}")),
                }
            }
        } else if srv.pending() == 0 {
            break;
        }
        let batches = srv.stats().batches;
        let t0 = Stamp::now();
        let answered = srv.pump();
        let t1 = Stamp::now();
        spans.record("BglServer::pump", ("tick", tick as u64), None, t0.wall, t1.wall);
        let pump = pass.pump_s.len();
        pass.pump_s.push(t1.cpu_since(&t0));
        pass.pump_wall_s.push(t1.wall_since(&t0));
        pass.batch_pump.push(srv.stats().batches > batches);
        let sim_now = srv.world().time();
        for r in answered {
            let (at, sim_at, query) = submitted_at[r.id as usize];
            spans.close(query, t1.wall);
            pass.host_latency_s.push(t1.cpu_since(&at));
            pass.sim_latency_s.push(sim_now - sim_at);
            answers.push((r, pump));
        }
        if trace {
            let phases = phase_seconds(srv.world());
            for (total, p) in pass.phases.iter_mut().zip(phases) {
                *total += p;
            }
            srv.world_mut().trace_mut().clear_events();
        }
    }
    pass.loop_s = Stamp::now().cpu_since(&start);

    let world = srv.world();
    pass.stats = srv.stats().clone();
    pass.evictions = srv.cache().evictions;
    pass.world_comm_s = world.comm_time();
    pass.comm_by_class = OpClass::ALL.map(|c| world.comm_time_for(c));
    pass.codec_s = world.codec_time();
    pass.max_link_bytes = world.traffic().map_or(0, |t| t.max_link_bytes());
    pass.sim_end = world.time();
    pass.comm = Some(world.stats.clone());
    pass.digest = digest(&answers);
    (pass, answers)
}

/// Hash each answer's query id and outcome, so passes can be compared
/// without keeping their level arrays.
fn digest(answers: &Answers) -> Vec<u64> {
    answers
        .iter()
        .map(|(r, _)| {
            let mut h = DefaultHasher::new();
            r.id.hash(&mut h);
            match &r.outcome {
                Outcome::Levels(l) => (0u8, l.as_slice()).hash(&mut h),
                Outcome::Distance(d) => (1u8, d).hash(&mut h),
                Outcome::Path(p) => (2u8, p).hash(&mut h),
                Outcome::Expired => 3u8.hash(&mut h),
            }
            h.finish()
        })
        .collect()
}

fn level_of(levels: &[u32], v: Vertex) -> Option<u32> {
    Some(levels[v as usize]).filter(|&l| l != UNREACHED)
}

/// Check every answer of `pass` against the reference BFS, one source
/// at a time. Returns the reached-component edges of every source.
fn check(
    answers: &Answers,
    adj: &[Vec<Vertex>],
    admitted: usize,
    report: &mut Report,
) -> BTreeMap<Vertex, u64> {
    if answers.len() != admitted {
        report.fail(format!(
            "{admitted} queries admitted but {} answered",
            answers.len()
        ));
    }
    let mut by_source: BTreeMap<Vertex, Vec<&Response>> = BTreeMap::new();
    for (r, _) in answers {
        by_source.entry(r.kind.source()).or_default().push(r);
    }
    let mut edges = BTreeMap::new();
    for (source, rs) in by_source {
        let truth = reference::bfs_levels(adj, source);
        edges.insert(source, component_edges(adj, &truth));
        for r in rs {
            let right = match (&r.kind, &r.outcome) {
                (QueryKind::FullTraversal { .. }, Outcome::Levels(l)) => **l == truth,
                (QueryKind::Distance { target, .. }, Outcome::Distance(d)) => {
                    *d == level_of(&truth, *target)
                }
                (QueryKind::Path { target, .. }, Outcome::Path(path)) => {
                    match (path, level_of(&truth, *target)) {
                        (None, None) => true,
                        (Some(p), Some(d)) => {
                            p.last() == Some(target)
                                && p.len() == d as usize + 1
                                && validate_path(adj, &truth, p)
                        }
                        _ => false,
                    }
                }
                _ => false,
            };
            if !right {
                report.fail(format!(
                    "query {} ({:?}) answered {:?}",
                    r.id, r.kind, r.outcome
                ));
            }
        }
    }
    edges
}

/// Each engine batch as `(edges of its lanes' reached components, host
/// CPU seconds of the pump that ran it)`.
fn batch_work(answers: &Answers, pump_s: &[f64], edges: &BTreeMap<Vertex, u64>) -> Vec<(u64, f64)> {
    let mut lanes: BTreeMap<usize, BTreeMap<u8, Vertex>> = BTreeMap::new();
    for (r, pump) in answers {
        if let ServedBy::Batch { lane, .. } = r.served_by {
            lanes
                .entry(*pump)
                .or_default()
                .insert(lane, r.kind.source());
        }
    }
    lanes
        .into_iter()
        .map(|(pump, sources)| (sources.values().map(|s| edges[s]).sum(), pump_s[pump]))
        .collect()
}

/// Bit-identical simulated behaviour: same answers, same clocks.
fn same_pass(a: &Pass, b: &Pass) -> bool {
    let bits = |p: &Pass| {
        p.sim_latency_s
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<_>>()
    };
    a.sim_end.to_bits() == b.sim_end.to_bits() && bits(a) == bits(b) && a.digest == b.digest
}

/// Median of `pump_s` (one entry per pump of `pass`) over the pumps
/// that ran an engine batch.
fn batch_pump_p50(pass: &Pass, pump_s: &[f64]) -> (f64, usize) {
    let s: Vec<f64> = pump_s
        .iter()
        .zip(&pass.batch_pump)
        .filter(|(_, &b)| b)
        .map(|(&s, _)| s)
        .collect();
    (median(&s), s.len())
}

/// Run the serve workload.
pub fn run(p: &ServeParams, opts: &RunOpts) -> Report {
    let host_threads = pin_worker_threads();
    let mut report = Report::default();
    let mut spans = Spans::new(opts.trace);
    let (spec, queries, schedule) = p.inputs(opts.seed);

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut graph = None;
    for rep in 0..SETUP_REPS as u64 {
        drop(graph.take()); // one resident copy at a time
        let run = ("setup", rep);
        let t0 = Stamp::now();
        let root = spans.open("setup", run, None, t0.wall);
        let g = DistGraph::build(spec, p.grid);
        let t1 = Stamp::now();
        spans.record("DistGraph::build", run, root, t0.wall, t1.wall);
        let world = SimWorld::bluegene(p.grid);
        let t2 = Stamp::now();
        spans.record("SimWorld::bluegene", run, root, t1.wall, t2.wall);
        let srv = BglServer::new(g, world, p.config);
        let t3 = Stamp::now();
        spans.record("BglServer::new", run, root, t2.wall, t3.wall);
        spans.close(root, t3.wall);
        setup_s.push(t3.cpu_since(&t0));
        build_s.push(t1.cpu_since(&t0));
        graph = Some(srv.graph().clone());
    }
    let graph = graph.expect("SETUP_REPS > 0");
    let t0 = Stamp::now();
    let adj = bgl_graph::dist::adjacency(&spec);
    let t1 = Stamp::now();
    spans.record("dist::adjacency", ("check", 0), None, t0.wall, t1.wall);
    let adjacency_s = t1.cpu_since(&t0);

    // The measured passes; each is checked, and compared with the first,
    // outside the timed loop.
    let mut first: Option<Pass> = None;
    let mut host_latency_s = Vec::new();
    let mut submit_s = Vec::new();
    let mut pump_s = Vec::new();
    let mut batches = Vec::new();
    let (mut answered, mut loop_s) = (0usize, 0.0);
    let loop_start = std::time::Instant::now();
    while first.is_none() || loop_start.elapsed().as_secs_f64() < opts.seconds {
        let (pass, answers) = serve_pass(
            &graph,
            p.config,
            &queries,
            &schedule,
            opts.trace,
            &mut spans,
            &mut report,
        );
        let edges = check(&answers, &adj, pass.submit_s.len(), &mut report);
        batches.extend(batch_work(&answers, &pass.pump_s, &edges));
        answered += answers.len();
        drop(answers);
        host_latency_s.extend_from_slice(&pass.host_latency_s);
        submit_s.extend_from_slice(&pass.submit_s);
        pump_s.extend_from_slice(&pass.pump_s);
        loop_s += pass.loop_s;
        match &first {
            None => first = Some(pass),
            Some(f) if !same_pass(f, &pass) => {
                report.fail("a later pass diverged from the first".into())
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one pass ran");
    let s = &first.stats;

    if !opts.trace {
        report.host("setup_s", median(&setup_s), setup_s.len());
        report.host(
            "host_latency_ms_p50",
            median(&host_latency_s) * 1e3,
            host_latency_s.len(),
        );
        report.host("host_qps", answered as f64 / loop_s, answered);
        let edges: u64 = batches.iter().map(|b| b.0).sum();
        let seconds: f64 = batches.iter().map(|b| b.1).sum();
        report.host("host_teps", edges as f64 / seconds, batches.len());
        report.exact(
            "sim_latency_ms_p50",
            quantile(&first.sim_latency_s, 0.5) * 1e3,
        );
        report.exact(
            "sim_latency_ms_p99",
            quantile(&first.sim_latency_s, 0.99) * 1e3,
        );
        report.exact("sim_qps", s.qps());
        report.host("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), 1);
        report.exact(
            "failed_frac",
            report.failed as f64 / report.attempted as f64,
        );
        return report;
    }

    // Traced run: the first pass again untraced, then under the serial
    // engine; both must reproduce the traced pass bit for bit.
    let mut quiet = Spans::new(false);
    let mut rerun = |engine: ComputeEngine, report: &mut Report| -> Pass {
        let mut config = p.config;
        config.multi.engine = engine;
        let (pass, _) = serve_pass(
            &graph, config, &queries, &schedule, false, &mut quiet, report,
        );
        if !same_pass(&first, &pass) {
            report.fail(format!("{engine:?} rerun diverged from the first pass"));
        }
        pass
    };
    let untraced = rerun(p.config.multi.engine, &mut report);
    let serial = rerun(ComputeEngine::Serial, &mut report);
    let (serial_p50, serial_n) = batch_pump_p50(&serial, &serial.pump_s);
    // The speedup compares wall time: CPU time cannot show it.
    let (rayon_wall, rayon_n) = batch_pump_p50(&untraced, &untraced.pump_wall_s);
    let (serial_wall, _) = batch_pump_p50(&serial, &serial.pump_wall_s);

    let ms = 1e3;
    report.host("graph.build_s", median(&build_s), build_s.len());
    report.host("graph.adjacency_s", adjacency_s, 1);
    report.exact("graph.edges", graph.total_entries() as f64);
    report.exact("graph.max_rank_bytes", graph.max_rank_bytes() as f64);
    zero_layer(&mut report, "bfs2d.");
    let comm = first
        .comm
        .as_ref()
        .expect("every pass records its comm stats");
    report.exact("comm.sim_comm_ms", first.world_comm_s * ms);
    report.exact("comm.sim_expand_ms", first.comm_by_class[0] * ms);
    report.exact("comm.sim_fold_ms", first.comm_by_class[1] * ms);
    report.exact("comm.sim_control_ms", first.comm_by_class[2] * ms);
    let class = |c: OpClass| *comm.class(c);
    report.exact(
        "comm.messages",
        OpClass::ALL.iter().map(|&c| class(c).messages).sum::<u64>() as f64,
    );
    report.exact(
        "comm.expand_verts",
        class(OpClass::Expand).received_verts as f64,
    );
    report.exact(
        "comm.fold_verts",
        class(OpClass::Fold).received_verts as f64,
    );
    report.exact("comm.logical_bytes", comm.total_logical_bytes() as f64);
    report.exact("comm.wire_bytes", comm.total_wire_bytes() as f64);
    report.exact("comm.compression", comm.compression_ratio());
    report.exact("comm.redundancy_pct", comm.redundancy_ratio_percent());
    let unions = comm.setops.list_unions + comm.setops.bitmap_unions;
    report.exact(
        "comm.bitmap_union_frac",
        if unions == 0 {
            0.0
        } else {
            comm.setops.bitmap_unions as f64 / unions as f64
        },
    );
    report.exact("comm.sim_codec_ms", first.codec_s * ms);
    report.exact("torus.max_link_bytes", first.max_link_bytes as f64);
    zero_layer(&mut report, "validate.");
    report.exact("engine.host_threads", host_threads as f64);
    report.host("engine.serial_search_s_p50", serial_p50, serial_n);
    report.host("engine.rayon_speedup", serial_wall / rayon_wall, rayon_n);
    report.host(
        "server.submit_us_p50",
        median(&submit_s) * 1e6,
        submit_s.len(),
    );
    report.host("server.pump_ms_p50", median(&pump_s) * ms, pump_s.len());
    report.host(
        "server.pump_ms_p90",
        quantile(&pump_s, 0.9) * ms,
        pump_s.len(),
    );
    report.exact("server.batches", s.batches as f64);
    report.exact("server.occupancy_mean", s.occupancy_mean());
    report.exact("server.waves", s.waves_total as f64);
    report.exact(
        "server.cache_hit_frac",
        s.served_cache as f64 / s.served_total() as f64,
    );
    report.exact("server.evictions", first.evictions as f64);
    report.exact("server.queue_depth_mean", s.queue_depth_mean());
    report.exact("server.queue_depth_max", s.queue_depth_max as f64);
    report.exact("server.latency_ticks_max", s.latency_ticks_max as f64);
    report.exact("server.engine_sim_ms", s.engine_sim_time * ms);
    report.exact("server.path_walk_sim_ms", s.path_walk_sim_time * ms);
    report.exact("server.cache_sim_ms", s.cache_sim_time * ms);
    report.exact("server.path_walk_occupancy", s.path_walk_occupancy_mean());
    report.exact("server.path_walk_rounds", s.path_walk_rounds as f64);
    report.exact("server.rejected", s.rejected as f64);
    report.exact("server.expired", s.expired as f64);
    for (i, (_, name)) in crate::PHASES.iter().enumerate() {
        report.exact(name, first.phases[i] * ms);
    }
    report.host(
        "trace.host_overhead_frac",
        first.loop_s / untraced.loop_s - 1.0,
        1,
    );
    let out = crate::span_path(Workload::ServeRmatBursty, opts.seed);
    if let Err(e) = spans.write(&out, Workload::ServeRmatBursty.name(), opts.seed) {
        report.fail(format!("writing {}: {e}", out.display()));
    }
    report
}
