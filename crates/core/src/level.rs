//! One level of the paper's main loop (Algorithm 2), written once for
//! every search and both runtimes: termination words and direction
//! choice (steps 3–6), expand by [`ExpandStrategy`] or the bottom-up
//! frontier gather (7–11), discover (12), fold by [`FoldStrategy`]
//! (13–18) and absorb (19–21), timed by one [`Meter`].
//!
//! Every phase is generic over an [`Exchange`]. The simulator's impl
//! ([`SimWorld`]) runs all P ranks per call through the superstep
//! collectives and charges the clock and the hash probes; the threaded
//! runtime's (`RankCtx`, in [`crate::threaded_run`]) runs one rank per
//! call. Per-rank arguments and results are indexed like `states`, so
//! the two runtimes differ only in how an exchange is carried out.
//!
//! The top-down phases — targeted expand with discover, direct
//! all-to-all fold with absorb, and the probe charge — are also generic
//! over the per-rank state ([`TopDown`]): `RankState` exchanges vertex
//! lists, the batched waves' `MultiRankState` exchanges lane sets.
//! Bottom-up, the ring collectives and the union folds are
//! `RankState`-only.

use crate::config::{BfsConfig, DirectionMode, ExpandStrategy, FoldStrategy};
use crate::engine::ComputeEngine;
use crate::state::RankState;
use crate::stats::{LevelDirection, LevelStats};
use bgl_comm::collectives::alltoall::{self, SendList};
use bgl_comm::collectives::{allgather, frontier, reduce_scatter, two_phase, Groups};
use bgl_comm::{
    CommError, CommStats, OpClass, Payload, Phase, ProcessorGrid, SimWorld, Vert, VertSet,
};
use bgl_graph::Vertex;

/// Per rank: one vertex list per peer.
pub(crate) type Lists = Vec<Vec<Vert>>;

/// A rank's top-down kernels over one message type. `discover` and
/// `absorb` count one hash probe per received entry plus one per edge
/// entry scanned; [`charge_probes`] takes them once per level.
pub(crate) trait TopDown: Send {
    /// What expand and fold messages carry.
    type Payload: Payload + Send + Sync;
    /// This rank's index.
    fn rank(&self) -> usize;
    /// Targeted expand (§2.2): each frontier vertex goes to every
    /// processor-column peer whose partial edge list for it is
    /// non-empty. Returns `(peer rank, message)` for non-empty messages.
    fn expand_sends(&mut self) -> SendList<Self::Payload>;
    /// Scan the partial edge lists of the received frontier F̄ and
    /// return one fold block per processor-row peer (grid column).
    fn discover(&mut self, fbar: &[Self::Payload]) -> Vec<Self::Payload>;
    /// Label the unlabeled received vertices with `next_level`; they
    /// become the new frontier. Returns the fresh labels.
    fn absorb(&mut self, nbar: &[Self::Payload], next_level: u32) -> u64;
    /// Take and reset the probe counter.
    fn take_probes(&mut self) -> u64;
}

const NO_RING: CommError = CommError::InvalidConfig {
    reason: "this runtime has no ring collectives",
};

/// How a level's messages move. Expand-class traffic stays within
/// processor-columns, fold-class traffic within processor-rows.
pub(crate) trait Exchange {
    /// The processor grid.
    fn grid(&self) -> ProcessorGrid;
    /// The trace clock.
    fn now(&self) -> f64;
    /// Record a phase span `[t0, now]`.
    fn span(&mut self, phase: Phase, level: u32, t0: f64);
    /// Global sum (one tree round).
    fn sum(&mut self, vals: &[u64]) -> Result<u64, CommError>;
    /// Three global sums in one tree round.
    fn sum3(&mut self, a: &[u64], b: &[u64], c: &[u64]) -> Result<(u64, u64, u64), CommError>;
    /// One targeted all-to-all round; each rank's messages in sender order.
    fn alltoallv<P: Payload>(
        &mut self,
        class: OpClass,
        sends: Vec<SendList<P>>,
    ) -> Result<Vec<Vec<P>>, CommError>;
    /// Union of every column peer's frontier (bottom-up levels).
    fn frontier_gather(&mut self, frontiers: Lists) -> Result<Vec<VertSet>, CommError>;
    /// The ring collectives: the simulator's only.
    fn allgather_ring(&mut self, _frontiers: Lists) -> Result<Vec<Lists>, CommError> {
        Err(NO_RING)
    }
    fn two_phase_expand(&mut self, _frontiers: Lists) -> Result<Vec<Lists>, CommError> {
        Err(NO_RING)
    }
    fn reduce_scatter_union(&mut self, _blocks: Vec<Lists>) -> Result<Vec<VertSet>, CommError> {
        Err(NO_RING)
    }
    fn two_phase_fold(&mut self, _blocks: Vec<Lists>) -> Result<Vec<VertSet>, CommError> {
        Err(NO_RING)
    }
    /// Hand back received messages once consumed.
    fn release<P: Payload>(&mut self, _messages: Vec<P>) {}
    /// Charge each rank's hash probes to the cost model, if any.
    fn charge_probes(&mut self, _probes: &[u64]) {}
    /// The cost model's clocks and counters, if any.
    fn mark(&self) -> Option<Mark> {
        None
    }
    /// Fill the clock and volume fields of `rec` since `mark`.
    fn meter(&self, _mark: &Mark, rec: LevelStats) -> LevelStats {
        rec
    }
}

/// [`SimWorld`] clocks and counters at the start of a level.
pub(crate) struct Mark {
    time: f64,
    comm_time: f64,
    codec_time: f64,
    stats: CommStats,
}

/// Drop the senders from per-rank inboxes.
fn messages<P>(inboxes: Vec<Vec<(usize, P)>>) -> Vec<Vec<P>> {
    let senders = |inbox: Vec<(usize, P)>| inbox.into_iter().map(|(_, msg)| msg).collect();
    inboxes.into_iter().map(senders).collect()
}

impl Exchange for SimWorld {
    fn grid(&self) -> ProcessorGrid {
        SimWorld::grid(self)
    }
    fn now(&self) -> f64 {
        self.time()
    }
    fn span(&mut self, phase: Phase, level: u32, t0: f64) {
        self.trace_span(phase, level, t0);
    }
    fn sum(&mut self, vals: &[u64]) -> Result<u64, CommError> {
        Ok(self.allreduce_sum(vals))
    }
    fn sum3(&mut self, a: &[u64], b: &[u64], c: &[u64]) -> Result<(u64, u64, u64), CommError> {
        Ok(self.allreduce_sum3(a, b, c))
    }
    fn alltoallv<P: Payload>(
        &mut self,
        class: OpClass,
        sends: Vec<SendList<P>>,
    ) -> Result<Vec<Vec<P>>, CommError> {
        let groups = match class {
            OpClass::Expand => Groups::cols_of(self.grid()),
            _ => Groups::rows_of(self.grid()),
        };
        alltoall::alltoallv(self, class, &groups, sends).map(messages)
    }
    fn frontier_gather(&mut self, frontiers: Lists) -> Result<Vec<VertSet>, CommError> {
        let cols = Groups::cols_of(self.grid());
        frontier::frontier_gather(self, OpClass::Expand, &cols, frontiers)
    }
    fn allgather_ring(&mut self, frontiers: Lists) -> Result<Vec<Lists>, CommError> {
        let cols = Groups::cols_of(self.grid());
        allgather::allgather_ring(self, OpClass::Expand, &cols, frontiers).map(messages)
    }
    fn two_phase_expand(&mut self, frontiers: Lists) -> Result<Vec<Lists>, CommError> {
        let cols = Groups::cols_of(self.grid());
        two_phase::two_phase_expand(self, OpClass::Expand, &cols, frontiers).map(messages)
    }
    fn reduce_scatter_union(&mut self, blocks: Vec<Lists>) -> Result<Vec<VertSet>, CommError> {
        let rows = Groups::rows_of(self.grid());
        reduce_scatter::reduce_scatter_union_ring(self, OpClass::Fold, &rows, blocks)
    }
    fn two_phase_fold(&mut self, blocks: Vec<Lists>) -> Result<Vec<VertSet>, CommError> {
        let rows = Groups::rows_of(self.grid());
        two_phase::two_phase_fold(self, OpClass::Fold, &rows, blocks)
    }
    fn charge_probes(&mut self, probes: &[u64]) {
        self.hash_phase(probes);
    }
    fn mark(&self) -> Option<Mark> {
        Some(Mark {
            time: self.time(),
            comm_time: self.comm_time(),
            codec_time: self.codec_time(),
            stats: self.stats.clone(),
        })
    }
    fn meter(&self, mark: &Mark, rec: LevelStats) -> LevelStats {
        let delta = self.stats.minus(&mark.stats);
        LevelStats {
            expand_received: delta.class(OpClass::Expand).received_verts,
            fold_received: delta.class(OpClass::Fold).received_verts,
            dups_eliminated: delta.total_dups_eliminated(),
            sim_time: self.time() - mark.time,
            comm_time: self.comm_time() - mark.comm_time,
            list_unions: delta.setops.list_unions,
            bitmap_unions: delta.setops.bitmap_unions,
            densify_switches: delta.setops.densify_switches,
            logical_bytes: delta.total_logical_bytes(),
            wire_bytes: delta.total_wire_bytes(),
            codec_time: self.codec_time() - mark.codec_time,
            ..rec
        }
    }
}

/// Times one level and builds its [`LevelStats`] record. The phases
/// are its methods, so they share its level index and span clock.
pub(crate) struct Meter {
    level: u32,
    t0: f64,
    t_absorb: f64,
    mark: Option<Mark>,
}

impl Meter {
    pub(crate) fn start(x: &impl Exchange, level: u32) -> Self {
        let t0 = x.now();
        let mark = x.mark();
        Self {
            level,
            t0,
            t_absorb: t0,
            mark,
        }
    }

    /// Steps 3–6: the global frontier size and the level's direction.
    /// With direction optimization on, the frontier edge mass and the
    /// unexplored entry count ride the same tree round (three words,
    /// no extra round), so every rank derives the same direction.
    pub(crate) fn terminate(
        &self,
        x: &mut impl Exchange,
        states: &[RankState<'_>],
        direction: DirectionMode,
        n: u64,
    ) -> Result<(u64, bool), CommError> {
        let sizes: Vec<u64> = states.iter().map(RankState::frontier_len).collect();
        if direction == DirectionMode::TopDown {
            let gf = x.sum(&sizes)?;
            x.span(Phase::Termination, self.level, self.t0);
            return Ok((gf, false));
        }
        let mf: Vec<u64> = states.iter().map(RankState::frontier_degree).collect();
        let mu: Vec<u64> = states.iter().map(RankState::unexplored).collect();
        let (gf, mf, mu) = self.terminate3(x, &sizes, &mf, &mu)?;
        let rows = x.grid().rows() as u64;
        Ok((gf, direction.wants_bottom_up(gf, mf, mu, n, rows)))
    }

    /// A termination round of three words (one tree round): the global
    /// sums of `a`, `b` and `c`.
    pub(crate) fn terminate3(
        &self,
        x: &mut impl Exchange,
        a: &[u64],
        b: &[u64],
        c: &[u64],
    ) -> Result<(u64, u64, u64), CommError> {
        let sums = x.sum3(a, b, c)?;
        x.span(Phase::Termination, self.level, self.t0);
        Ok(sums)
    }

    /// Steps 7–12: each rank's fold blocks. Top-down expands the
    /// frontier over processor-columns and discovers along the received
    /// partial edge lists; bottom-up gathers each column's frontier and
    /// scans the unvisited stored rows for a frontier parent.
    pub(crate) fn discover(
        &self,
        x: &mut impl Exchange,
        states: &mut [RankState<'_>],
        config: &BfsConfig,
        bottom_up: bool,
    ) -> Result<Vec<Lists>, CommError> {
        let (level, engine, t_expand) = (self.level, config.engine, x.now());
        if bottom_up {
            let gathered = x.frontier_gather(frontiers(states))?;
            x.span(Phase::Gather, level, t_expand);
            let t_discover = x.now();
            let blocks = engine.zip_map(states, &gathered, |s, f| s.discover_bottom_up(f));
            x.span(Phase::Discover, level, t_discover);
            return Ok(blocks);
        }
        let fbar = match config.expand {
            ExpandStrategy::Targeted => return self.expand_discover(x, states, engine),
            ExpandStrategy::AllGatherRing => x.allgather_ring(frontiers(states))?,
            ExpandStrategy::TwoPhaseRing => x.two_phase_expand(frontiers(states))?,
        };
        Ok(self.discover_received(x, states, engine, fbar, t_expand))
    }

    /// Targeted expand, then discover.
    pub(crate) fn expand_discover<S: TopDown>(
        &self,
        x: &mut impl Exchange,
        states: &mut [S],
        engine: ComputeEngine,
    ) -> Result<Vec<Vec<S::Payload>>, CommError> {
        let t_expand = x.now();
        let sends = engine.map_mut(states, S::expand_sends);
        let fbar = x.alltoallv(OpClass::Expand, sends)?;
        Ok(self.discover_received(x, states, engine, fbar, t_expand))
    }

    /// Close the expand span and discover along the received F̄.
    fn discover_received<S: TopDown>(
        &self,
        x: &mut impl Exchange,
        states: &mut [S],
        engine: ComputeEngine,
        fbar: Vec<Vec<S::Payload>>,
        t_expand: f64,
    ) -> Vec<Vec<S::Payload>> {
        x.span(Phase::Expand, self.level, t_expand);
        // Zero-duration in the simulator: probes are charged with absorb.
        let t_discover = x.now();
        let blocks = engine.zip_map(states, &fbar, |s, msgs| s.discover(msgs));
        fbar.into_iter().for_each(|msgs| x.release(msgs));
        x.span(Phase::Discover, self.level, t_discover);
        blocks
    }

    /// Steps 13–21: fold each rank's blocks to their owners in its
    /// processor-row, then absorb them as the `next_level` frontier.
    /// Opens the absorb span that [`Meter::finish`] closes.
    pub(crate) fn fold_absorb(
        &mut self,
        x: &mut impl Exchange,
        states: &mut [RankState<'_>],
        config: &BfsConfig,
        blocks: Vec<Lists>,
        next_level: u32,
    ) -> Result<(), CommError> {
        let t_fold = x.now();
        let sets = match config.fold {
            FoldStrategy::DirectAllToAll => {
                return self.fold_direct(x, states, config.engine, blocks, next_level)
            }
            FoldStrategy::ReduceScatterUnion => x.reduce_scatter_union(blocks)?,
            FoldStrategy::TwoPhaseRing => x.two_phase_fold(blocks)?,
        };
        x.span(Phase::Fold, self.level, t_fold);
        self.t_absorb = x.now();
        // One deduplicated set per rank: one absorb probe per element.
        config
            .engine
            .zip_map(states, &sets, |s, set| s.absorb_set(set, next_level));
        Ok(())
    }

    /// Direct all-to-all fold of block `m` to row peer `m`, then absorb
    /// per sender (one probe per occurrence).
    pub(crate) fn fold_direct<S: TopDown>(
        &mut self,
        x: &mut impl Exchange,
        states: &mut [S],
        engine: ComputeEngine,
        blocks: Vec<Vec<S::Payload>>,
        next_level: u32,
    ) -> Result<(), CommError> {
        let t_fold = x.now();
        let grid = x.grid();
        let sends = blocks.into_iter().zip(states.iter()).map(|(bs, s)| {
            let i = grid.row_of(s.rank());
            let to_peer = |(m, b)| (grid.rank_of(i, m), b);
            let nonempty = |(_, b): &(usize, S::Payload)| !b.is_empty();
            bs.into_iter()
                .enumerate()
                .filter(nonempty)
                .map(to_peer)
                .collect()
        });
        let nbar = x.alltoallv(OpClass::Fold, sends.collect())?;
        x.span(Phase::Fold, self.level, t_fold);
        self.t_absorb = x.now();
        engine.zip_map(states, &nbar, |s, msgs| s.absorb(msgs, next_level));
        nbar.into_iter().for_each(|msgs| x.release(msgs));
        Ok(())
    }

    /// Close the absorb and level spans and build the level's record.
    pub(crate) fn finish(
        self,
        x: &mut impl Exchange,
        frontier: u64,
        bottom_up: bool,
        probes: u64,
    ) -> LevelStats {
        x.span(Phase::Absorb, self.level, self.t_absorb);
        x.span(Phase::Level, self.level, self.t0);
        let (direction, td_probes, bu_probes) = match bottom_up {
            true => (LevelDirection::BottomUp, 0, probes),
            false => (LevelDirection::TopDown, probes, 0),
        };
        let (level, rec) = (self.level, LevelStats::default());
        let rec = LevelStats {
            level,
            frontier,
            direction,
            td_probes,
            bu_probes,
            ..rec
        };
        match &self.mark {
            Some(mark) => x.meter(mark, rec),
            None => rec,
        }
    }
}

/// Take every rank's probe count and charge it; returns the sum.
pub(crate) fn charge_probes<S: TopDown>(x: &mut impl Exchange, states: &mut [S]) -> u64 {
    let probes: Vec<u64> = states.iter_mut().map(S::take_probes).collect();
    x.charge_probes(&probes);
    probes.iter().sum()
}

/// Whether `target` is labeled on any rank (one tree round; none
/// without a target).
pub(crate) fn target_reached(
    x: &mut impl Exchange,
    states: &[RankState<'_>],
    target: Option<Vertex>,
) -> Result<bool, CommError> {
    let Some(t) = target else { return Ok(false) };
    let hits: Vec<u64> = states
        .iter()
        .map(|s| u64::from(s.level_of(t).is_some()))
        .collect();
    Ok(x.sum(&hits)? > 0)
}

/// One whole level of Algorithm 2 as the 2D search runs it in either
/// runtime: `None` once the global frontier is empty, else the level's
/// record and whether the configured target was labeled.
pub(crate) fn step(
    x: &mut impl Exchange,
    states: &mut [RankState<'_>],
    config: &BfsConfig,
    n: u64,
    level: u32,
) -> Result<Option<(LevelStats, bool)>, CommError> {
    let mut meter = Meter::start(x, level);
    let (frontier, bottom_up) = meter.terminate(x, states, config.direction, n)?;
    if frontier == 0 {
        return Ok(None);
    }
    let blocks = meter.discover(x, states, config, bottom_up)?;
    meter.fold_absorb(x, states, config, blocks, level + 1)?;
    let probes = charge_probes(x, states);
    // The absorb span also covers the target check, so the phase spans
    // partition the level.
    let hit = target_reached(x, states, config.target)?;
    Ok(Some((meter.finish(x, frontier, bottom_up, probes), hit)))
}

/// Levels until the frontier empties or the target is labeled; returns
/// their records. (The 2D simulator search drives [`step`] itself, to
/// checkpoint and recover.)
pub(crate) fn run(
    x: &mut impl Exchange,
    states: &mut [RankState<'_>],
    config: &BfsConfig,
    n: u64,
) -> Result<Vec<LevelStats>, CommError> {
    let mut records = Vec::new();
    for level in 0.. {
        let Some((record, hit)) = step(x, states, config, n, level)? else {
            break;
        };
        records.push(record);
        if hit {
            break;
        }
    }
    Ok(records)
}

fn frontiers(states: &[RankState<'_>]) -> Lists {
    states.iter().map(|s| s.frontier.clone()).collect()
}
