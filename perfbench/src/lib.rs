//! # perfbench — the repository's benchmark
//!
//! One command, one workload, one seed. Each workload builds its inputs
//! from the seed, drives the public API of `bgl-graph`, `bfs-core` and
//! `bgl-server` in this process, checks every output, and reports its
//! metrics on both clocks: the simulated α–β–hop clock the paper's
//! claims are made on, and the host clock a run costs here. Host times
//! are process CPU time, not wall time (see `clock.rs`), so that other
//! tenants of a shared host do not move them.
//!
//! * [`search`] — `search-poisson` and `search-rmat-dirop`: one client
//!   runs validated full searches back to back (a closed loop).
//! * [`serve`] — `serve-rmat-bursty`: seeded Zipf queries arrive at the
//!   query server on a bursty tick schedule (an open loop in ticks).
//!
//! An untraced run reports the [`END_TO_END`] metrics. A traced run of
//! the same workload and seed reports the [`PER_LAYER`] metrics: it
//! turns on the simulated-clock trace sink and link accounting, records
//! host spans around every public call (see `spans.rs`), and repeats the
//! first pass (its first 16 searches, for search workloads) untraced and
//! under `ComputeEngine::Serial` for the tracing overhead and the
//! single-thread baseline (the engine speedup is a wall-clock ratio,
//! since CPU time cannot show it); a repeat that differs in any level, answer or
//! simulated clock bit fails the run. Every workload reports every
//! metric; a layer a workload bypasses reads 0.

// The one unsafe call reads the process CPU clock (`clock.rs`).
#![deny(unsafe_code)]

mod clock;
mod inputs;
mod report;
pub mod search;
pub mod serve;
mod spans;

pub use report::{Metric, Report};

use bgl_comm::{EventKind, Phase, SimWorld};
use bgl_trace::CriticalPath;
use std::path::{Path, PathBuf};

/// End-to-end metrics `(name, unit)`, reported by untraced runs of every
/// workload. `BENCHMARK.json` declares the same list.
///
/// A workload's operation is one validated search (search workloads) or
/// one answered query (serve).
pub const END_TO_END: &[(&str, &str)] = &[
    // Spec to ready-to-serve: graph build, runtime construction, then
    // the validator's adjacency (search) or `BglServer::new` (serve).
    ("setup_s", "s"),
    // Host time to one answer: `try_run` + `validate_levels` (search),
    // or `submit` to the return of the answering `pump` (serve). Host
    // time is process CPU time throughout (see `clock.rs`).
    ("host_latency_ms_p50", "ms"),
    // Answers per host CPU second of the measured loop.
    ("host_qps", "1/s"),
    // Reached-component edges per host second of the engine call, summed
    // over every `try_run` (search) or every batch `pump` (serve, edges
    // summed over the batch's lanes). This is Graph500's harmonic mean of
    // per-search TEPS weighted by edges, so a key in a tiny component
    // cannot swamp it.
    ("host_teps", "edges/s"),
    // Simulated time to one answer: the search's clock (search), or the
    // server clock from submission to the answering pump (serve).
    ("sim_latency_ms_p50", "ms"),
    ("sim_latency_ms_p99", "ms"),
    // Answers per simulated second: searches over summed search clocks,
    // or `ServerStats::qps()`.
    ("sim_qps", "1/s"),
    // VmHWM of the run.
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs of every
/// workload. Search counts are per-search means over the first pass;
/// serve counts are totals over the first pass. `BENCHMARK.json`
/// declares the same list.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_s", "s"),
    ("graph.adjacency_s", "s"),
    ("graph.edges", "count"),
    ("graph.max_rank_bytes", "bytes"),
    ("bfs2d.host_s_p50", "s"),
    ("bfs2d.levels", "count"),
    ("bfs2d.bu_levels", "count"),
    ("bfs2d.probes", "count"),
    ("bfs2d.sim_compute_ms", "ms"),
    ("bfs2d.sim_hash_ms", "ms"),
    ("bfs2d.sim_memcpy_ms", "ms"),
    ("comm.sim_comm_ms", "ms"),
    ("comm.sim_expand_ms", "ms"),
    ("comm.sim_fold_ms", "ms"),
    ("comm.sim_control_ms", "ms"),
    ("comm.messages", "count"),
    ("comm.expand_verts", "count"),
    ("comm.fold_verts", "count"),
    ("comm.logical_bytes", "bytes"),
    ("comm.wire_bytes", "bytes"),
    ("comm.compression", "ratio"),
    ("comm.redundancy_pct", "%"),
    ("comm.bitmap_union_frac", "frac"),
    ("comm.sim_codec_ms", "ms"),
    ("torus.max_link_bytes", "bytes"),
    ("validate.host_s_p50", "s"),
    ("validate.tree_edges", "count"),
    ("engine.host_threads", "count"),
    ("engine.serial_search_s_p50", "s"),
    ("engine.rayon_speedup", "ratio"),
    ("server.submit_us_p50", "us"),
    ("server.pump_ms_p50", "ms"),
    ("server.pump_ms_p90", "ms"),
    ("server.batches", "count"),
    ("server.occupancy_mean", "lanes"),
    ("server.waves", "count"),
    ("server.cache_hit_frac", "frac"),
    ("server.evictions", "count"),
    ("server.queue_depth_mean", "count"),
    ("server.queue_depth_max", "count"),
    ("server.latency_ticks_max", "ticks"),
    ("server.engine_sim_ms", "ms"),
    ("server.path_walk_sim_ms", "ms"),
    ("server.cache_sim_ms", "ms"),
    ("server.path_walk_occupancy", "lanes"),
    ("server.path_walk_rounds", "count"),
    ("server.rejected", "count"),
    ("server.expired", "count"),
    ("phase.termination_ms", "ms"),
    ("phase.expand_ms", "ms"),
    ("phase.gather_ms", "ms"),
    ("phase.fold_ms", "ms"),
    ("phase.absorb_ms", "ms"),
    ("phase.path_walk_ms", "ms"),
    ("trace.host_overhead_frac", "frac"),
];

/// Printed alongside the end-to-end metrics under the names the search
/// workloads' specification uses; `failed_frac` is printed for every
/// workload. Not in `BENCHMARK.json`: the first two restate
/// `host_latency_ms_p50` and `sim_qps` in other units, and `failed_frac`
/// is 0 on a passing run (failures travel in the result's `failed`).
pub const ALIASES: &[(&str, &str)] = &[
    ("search_s_p50", "s"),
    ("sim_search_ms", "ms"),
    ("failed_frac", "frac"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson G(2^18, 16) on 16×16, paper-optimized top-down, raw wire.
    SearchPoisson,
    /// R-MAT(2^18, 16) on 8×8, direction-optimized, auto wire codec.
    SearchRmatDirop,
    /// R-MAT(2^16, 16) on 8×8 behind the query server, bursty arrivals.
    ServeRmatBursty,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SearchPoisson,
        Workload::SearchRmatDirop,
        Workload::ServeRmatBursty,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchPoisson => "search-poisson",
            Workload::SearchRmatDirop => "search-rmat-dirop",
            Workload::ServeRmatBursty => "serve-rmat-bursty",
        }
    }

    /// Look a workload up by its `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload at `scale`.
    pub fn run(self, scale: Scale, opts: &RunOpts) -> Report {
        match self {
            Workload::ServeRmatBursty => serve::run(&serve::ServeParams::new(scale), opts),
            search => search::run(&search::SearchParams::new(search, scale), opts),
        }
    }
}

/// Input size: the benchmark's own, or a reduced one for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` records.
    Full,
    /// Small graphs and few operations, same configurations.
    Reduced,
}

/// How one run measures.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// The workload seed: every input is derived from it.
    pub seed: u64,
    /// Host seconds the measured loop runs for, after at least one
    /// complete first pass.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span dump instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Number of times setup is repeated per run; `setup_s` is the median.
pub(crate) const SETUP_REPS: usize = 3;

/// Pin the vendored rayon pool to one worker per host core and return
/// the worker count in effect. The benchmark starts no other threads.
pub(crate) fn pin_worker_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rayon::set_worker_threads(cores);
    rayon::current_num_threads()
}

/// Record 0 for every per-layer metric under `prefix`: the layers a
/// workload bypasses.
pub(crate) fn zero_layer(report: &mut Report, prefix: &str) {
    for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with(prefix)) {
        report.exact(name, 0.0);
    }
}

/// The simulated phases reported as `phase.*`, in [`PER_LAYER`] order.
pub(crate) const PHASES: [(Phase, &str); 6] = [
    (Phase::Termination, "phase.termination_ms"),
    (Phase::Expand, "phase.expand_ms"),
    (Phase::Gather, "phase.gather_ms"),
    (Phase::Fold, "phase.fold_ms"),
    (Phase::Absorb, "phase.absorb_ms"),
    (Phase::PathWalk, "phase.path_walk_ms"),
];

/// Simulated seconds per [`PHASES`] entry in the world's recorded trace
/// (zeros when tracing is off): the phase slices of every level span
/// from `CriticalPath`, plus path-walk spans, which run outside levels.
pub(crate) fn phase_seconds(world: &SimWorld) -> [f64; 6] {
    let mut out = [0.0; 6];
    let Some(buf) = world.trace().buffer() else {
        return out;
    };
    let events = buf.world_events();
    for level in CriticalPath::from_events(&events).levels {
        for slice in level.phases {
            if let Some(i) = PHASES.iter().position(|(p, _)| *p == slice.phase) {
                out[i] += slice.duration;
            }
        }
    }
    for ev in &events {
        if let EventKind::Span {
            phase: Phase::PathWalk,
            ..
        } = ev.kind
        {
            out[5] += ev.duration();
        }
    }
    out
}

/// Where a traced run writes its span dump: under the benchmark's own
/// directory, `out/<workload>-seed<seed>.spans.json`.
pub(crate) fn span_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}-seed{seed}.spans.json", workload.name()))
}
