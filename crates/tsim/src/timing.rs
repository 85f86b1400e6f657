//! The block-pipeline timing engine.
//!
//! Replays the functional interpreter's per-block dataflow traces against
//! the machine's timing state. Blocks overlap: up to eight occupy the window
//! (one architectural + seven speculative); each new block starts fetching
//! once the predictor names it, a window slot frees up, and the distributed
//! fetch protocol's throughput allows (§5). Mispredictions and load-order
//! violations flush and restart the pipeline at the offending point.
//!
//! The engine has two per-block paths, driven by a
//! [`trips_sample::ReplayMode`]:
//!
//! * `Timing::time_block` — the full detailed model described above;
//! * `Timing::warm_block` — functional warming only: the I-cache, data
//!   hierarchy, next-block predictor and load-wait table see the block,
//!   but no cycles are accounted.
//!
//! Full replay times every block. Sampled replay ([`replay_trace_mode`])
//! walks the recorded stream through a [`trips_sample::SamplePlan`] —
//! functionally warm most of each period, run the detailed model with
//! discarded counters for a short timed warmup, measure the window at the
//! period's end — and extrapolates the measured cycles over the whole
//! stream, making a sweep point sublinear in trace length.
//! Phase-classified replay ([`trips_sample::PhasePlan`], fitted by the
//! `trips-phase` crate) drives the same three per-block paths, but places
//! one measured window per behavior cluster and extrapolates by cluster
//! population instead of sampling every period.

use crate::cache::{BankPorts, Cache, ClaimsSnapshot};
use crate::config::TripsConfig;
use crate::opn::{Node, Opn, TrafficClass};
use crate::predictor::{
    ExitKind, LoadWaitSnapshot, LoadWaitTable, NextBlockPredictor, PredictorSnapshot,
};
use crate::stats::SimStats;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use trips_compiler::CompiledProgram;
use trips_ir::Program;
use trips_isa::block::ExitTarget;
use trips_isa::interp::{BlockTrace, TraceSrc, TripsExecError};
use trips_isa::{TOpcode, TraceLog};
use trips_sample::sparse::SparseWays;
use trips_sample::{Phase, PhasePlan, PhaseWindow, ReplayMode, Schedule};

/// Simulation failures (functional execution errors surface unchanged).
#[derive(Debug)]
pub enum SimError {
    /// The functional oracle failed.
    Exec(TripsExecError),
    /// A stored trace log failed validation against the program.
    Trace(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::Trace(e) => write!(f, "trace replay rejected: {e}"),
        }
    }
}

impl Error for SimError {}

/// Result of a timing run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Program return value (from the functional oracle).
    pub return_value: u64,
    /// All counters.
    pub stats: SimStats,
}

/// Simulates `compiled` against its optimized IR's data image.
///
/// # Errors
/// [`SimError::Exec`] when the program itself faults.
pub fn simulate(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    mem_size: usize,
) -> Result<SimResult, SimError> {
    simulate_with_budget(compiled, cfg, mem_size, u64::MAX)
}

/// [`simulate`] with a dynamic block budget (for sweeps).
///
/// # Errors
/// See [`simulate`].
pub fn simulate_with_budget(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    mem_size: usize,
    max_blocks: u64,
) -> Result<SimResult, SimError> {
    let ir: &Program = &compiled.opt_ir;
    let tp = &compiled.trips;
    let mut t = Timing::new(compiled, cfg);
    let outcome =
        trips_isa::interp::run_program_traced(tp, ir, mem_size, max_blocks, |b, trace| {
            t.time_block(b, trace)
        })
        .map_err(SimError::Exec)?;
    let mut stats = t.finish();
    stats.isa = outcome.stats;
    Ok(SimResult {
        return_value: outcome.return_value,
        stats,
    })
}

/// Simulates a previously captured [`TraceLog`] against `cfg`, instead of
/// re-running the functional interpreter.
///
/// The timing model is a pure function of the `(block, trace)` call
/// sequence, so replaying the log a program produced under the same budget
/// yields *bit-identical* [`SimStats`] to [`simulate_with_budget`] — that
/// is what lets a sweep run one functional execution and N timing
/// configurations.
///
/// # Errors
/// [`SimError::Trace`] when the log's header or indices do not match
/// `compiled`.
pub fn replay_trace(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
) -> Result<SimResult, SimError> {
    replay_trace_mode(compiled, cfg, log, &ReplayMode::Full)
}

/// [`replay_trace`] under an explicit [`ReplayMode`].
///
/// `Full` (and any sampled plan that measures every unit) is the bit-exact
/// path above. A sampling plan walks the recorded block stream through its
/// phases: most blocks are functionally warmed (long-lived state updated,
/// no cycle accounting), a short timed warmup before each window runs the
/// detailed model with its counters discarded (so the window starts on a
/// busy pipeline), and the window itself is measured in full. The returned
/// stats carry the measured-vs-total unit counts and the extrapolated
/// whole-run estimate ([`SimStats::est_cycles`](crate::SimStats)).
///
/// # Errors
/// [`SimError::Trace`] when the log's header or indices do not match
/// `compiled`.
pub fn replay_trace_mode(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    mode: &ReplayMode,
) -> Result<SimResult, SimError> {
    log.validate(&compiled.trips).map_err(SimError::Trace)?;
    let sched = mode
        .schedule(log.seq.len() as u64)
        .map_err(SimError::Trace)?;
    Ok(drive(compiled, cfg, log, sched, |_, _| {}))
}

/// The replay driver every sequential entry point shares: walks the
/// (validated) log through the optional schedule, calling `at_unit` with
/// the machine before each scheduled block — the live-point capture hook.
/// With no schedule every block is timed in detail.
fn drive(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    sched: Option<Schedule>,
    mut at_unit: impl FnMut(u64, &Timing<'_>),
) -> SimResult {
    let replay_start = std::time::Instant::now();
    let mut t = Timing::new(compiled, cfg);
    let summary = match sched {
        // Full replay: the untouched hot path — per-row cost attribution
        // (when a sweep scope is active) brackets the whole loop, adding
        // nothing per block.
        None => {
            let _timed = trips_obs::cost::Timed::start(trips_obs::CostKind::Detailed);
            log.replay(|bidx, trace| t.time_block(bidx, trace));
            None
        }
        // The schedule (systematic sampler or fitted phase plan) meters
        // measurement windows on the commit clock and keeps the
        // extrapolation bookkeeping. Cost segments are timed on phase
        // *transitions* only (one enum compare per block when a sweep cost
        // scope is active, one predictable branch otherwise).
        Some(mut sched) => {
            let mut seg = trips_obs::SegmentTimer::new();
            let mut unit: u64 = 0;
            log.replay(|bidx, trace| {
                at_unit(unit, &t);
                unit += 1;
                match sched.advance(t.last_commit) {
                    Phase::Warm => {
                        seg.switch(trips_obs::CostKind::Warm);
                        t.warm_block(bidx, trace);
                    }
                    Phase::TimedWarm => {
                        seg.switch(trips_obs::CostKind::Warm);
                        t.time_block_discarded(bidx, trace);
                    }
                    Phase::Detailed => {
                        seg.switch(trips_obs::CostKind::Detailed);
                        t.time_block(bidx, trace);
                    }
                }
            });
            seg.finish();
            let _timed = trips_obs::cost::Timed::start(trips_obs::CostKind::Extrapolate);
            Some(sched.finish(t.last_commit))
        }
    };
    let mut stats = t.finish();
    stats.isa = log.stats.clone();
    if let Some(s) = summary {
        stats.apply_summary(&s);
    }
    // Per-backend replay throughput telemetry: O(1) per replay call.
    let units = log.seq.len() as u64;
    trips_obs::counter("replay_events_total{core=\"trips\"}").inc(units);
    let elapsed_ns = replay_start.elapsed().as_nanos() as u64;
    if elapsed_ns > 0 && units > 0 {
        trips_obs::histogram("replay_events_per_sec{core=\"trips\"}")
            .observe(units.saturating_mul(1_000_000_000) / elapsed_ns);
    }
    SimResult {
        return_value: log.return_value,
        stats,
    }
}

/// The pending control transfer awaiting the next block id, in
/// serializable form (see [`TsimSnapshot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PendingExit {
    block: u32,
    exit: u8,
    kind: ExitKind,
    cont: Option<u32>,
    resolve: u64,
}

/// Serializable image of the whole TRIPS timing machine at a stream
/// boundary — a **live-point**. Captures every piece of warmed state the
/// detailed model reads (caches, predictor tables, network and bank
/// occupancy, register-availability and commit horizons, the pending
/// control transfer) and *none* of the accounting: a replay restored from
/// a live-point starts all counters at zero, so its accounting is exactly
/// the window's delta and per-window deltas sum to the sequential totals.
/// Caches, predictor tables and occupancy are stored sparse
/// ([`trips_sample::sparse`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TsimSnapshot {
    /// Stream unit the snapshot was taken at (before processing it).
    unit: u64,
    opn: ClaimsSnapshot,
    et_free: [u64; 16],
    l1d: Vec<SparseWays>,
    dt_banks: ClaimsSnapshot,
    l2: SparseWays,
    l2_banks: ClaimsSnapshot,
    dram: ClaimsSnapshot,
    icache: SparseWays,
    predictor: PredictorSnapshot,
    lwt: LoadWaitSnapshot,
    reg_avail: Vec<(u8, u64)>,
    commits: Vec<u64>,
    last_commit: u64,
    prev_dispatch: u64,
    prev_chunk: u64,
    pending: Option<PendingExit>,
}

impl TsimSnapshot {
    /// The stream unit this live-point resumes at.
    #[must_use]
    pub fn unit(&self) -> u64 {
        self.unit
    }
}

/// One plan window's accounting, measured by an independent restored
/// replay ([`replay_trips_window`]); bit-identical to the same window's
/// contribution in a sequential phased replay.
#[derive(Debug, Clone)]
pub struct TsimWindowMeasure {
    /// Cycles the measured span took (commit-clock delta).
    pub cycles: u64,
    /// Units measured in detail.
    pub units: u64,
    /// Detailed-block counters this window contributed.
    pub stats: SimStats,
}

/// Performs a full sequential phased replay while capturing a live-point
/// at each window's warm-start boundary. The returned [`SimResult`] is
/// bit-identical to `replay_trace_mode(.., Phased(plan))`; the snapshots
/// seed [`replay_trips_window`] so later sweep points (or parallel window
/// jobs) replay windows without touching the stream prefix.
///
/// # Errors
/// [`SimError::Trace`] when the log fails validation, the plan was fitted
/// to a different stream, or the plan covers everything (nothing to
/// checkpoint — callers should take the full path instead).
pub fn replay_trace_phased_capture(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    plan: &PhasePlan,
) -> Result<(SimResult, Vec<TsimSnapshot>), SimError> {
    log.validate(&compiled.trips).map_err(SimError::Trace)?;
    let mode = ReplayMode::Phased(plan.clone());
    let Some(sched) = mode
        .schedule(log.seq.len() as u64)
        .map_err(SimError::Trace)?
    else {
        return Err(SimError::Trace(
            "phase plan covers everything: no warmed prefix to checkpoint".into(),
        ));
    };
    let mut snaps: Vec<TsimSnapshot> = Vec::with_capacity(plan.windows.len());
    let res = drive(compiled, cfg, log, Some(sched), |unit, t| {
        if plan.windows.get(snaps.len()).map(|w| w.warm_start) == Some(unit) {
            let _timed = trips_obs::cost::Timed::start(trips_obs::CostKind::CheckpointSave);
            snaps.push(t.snapshot(unit));
        }
    });
    debug_assert_eq!(snaps.len(), plan.windows.len());
    Ok((res, snaps))
}

/// Replays one plan window from its live-point: restore, run the timed
/// warmup span with discarded counters, then measure the detailed span.
/// Because the restored machine state is bit-identical to the sequential
/// replay's state at the same boundary, the measurement is too.
///
/// The caller is responsible for having validated `log` (the engine
/// validates on capture and on store load); indices are still
/// bounds-checked here so a mismatched log errors instead of panicking.
///
/// # Errors
/// [`SimError::Trace`] when the snapshot does not belong to this window or
/// the window lies outside the log.
pub fn replay_trips_window(
    compiled: &CompiledProgram,
    cfg: &TripsConfig,
    log: &TraceLog,
    window: &PhaseWindow,
    snap: &TsimSnapshot,
) -> Result<TsimWindowMeasure, SimError> {
    if snap.unit != window.warm_start {
        return Err(SimError::Trace(format!(
            "live-point captured at unit {} cannot seed the window warming from {}",
            snap.unit, window.warm_start
        )));
    }
    if window.end as usize > log.seq.len() {
        return Err(SimError::Trace(format!(
            "window ends at unit {} but the log has {}",
            window.end,
            log.seq.len()
        )));
    }
    let timed = trips_obs::cost::Timed::start(trips_obs::CostKind::CheckpointRestore);
    let mut t = Timing::new(compiled, cfg);
    t.restore(snap).map_err(SimError::Trace)?;
    drop(timed);
    let shape = |sidx: u32| {
        log.shapes
            .get(sidx as usize)
            .ok_or_else(|| SimError::Trace(format!("shape index {sidx} out of range")))
    };
    let mut seg = trips_obs::SegmentTimer::new();
    seg.switch(trips_obs::CostKind::Warm);
    for &(bidx, sidx) in &log.seq[window.warm_start as usize..window.detail_start as usize] {
        t.time_block_discarded(bidx, shape(sidx)?);
    }
    let mark = t.last_commit;
    seg.switch(trips_obs::CostKind::Detailed);
    for &(bidx, sidx) in &log.seq[window.detail_start as usize..window.end as usize] {
        t.time_block(bidx, shape(sidx)?);
    }
    seg.finish();
    let cycles = t.last_commit - mark;
    trips_obs::counter("replay_events_total{core=\"trips\"}").inc(window.end - window.warm_start);
    Ok(TsimWindowMeasure {
        cycles,
        units: window.detailed_units(),
        stats: t.into_window_stats(),
    })
}

/// Assembles independently measured windows (one [`TsimWindowMeasure`] per
/// plan window, in order) into the [`SimResult`] a sequential phased
/// replay of the same plan produces: counters sum field-wise, and the
/// whole-run estimate uses the shared [`trips_sample::assemble_phased`]
/// math.
///
/// # Errors
/// [`SimError::Trace`] when the measurement count does not match the plan.
pub fn assemble_trips_phased(
    log: &TraceLog,
    plan: &PhasePlan,
    windows: &[TsimWindowMeasure],
) -> Result<SimResult, SimError> {
    let timed = trips_obs::cost::Timed::start(trips_obs::CostKind::Extrapolate);
    let measured: Vec<(u64, u64)> = windows.iter().map(|m| (m.cycles, m.units)).collect();
    let summary = trips_sample::assemble_phased(plan, &measured).map_err(SimError::Trace)?;
    let mut stats = SimStats::default();
    for m in windows {
        stats.absorb_measured(&m.stats);
    }
    stats.isa = log.stats.clone();
    stats.apply_summary(&summary);
    drop(timed);
    Ok(SimResult {
        return_value: log.return_value,
        stats,
    })
}

/// Cycles of bank/link occupancy history a live-point snapshot keeps
/// behind the commit point. Generous by orders of magnitude: nothing in
/// the model probes occupancy more than a few thousand cycles back.
const CLAIM_SNAPSHOT_MARGIN: u64 = 1 << 20;

/// A map keyed by a `u8` (an instruction index, register or LSID): 256
/// value slots plus a presence bitmask, so lookups never hash and
/// [`ByteMap::clear`] is four word writes. The timing engine keeps its
/// per-block scratch maps in these and reuses them across blocks.
#[derive(Debug, Clone)]
struct ByteMap<T> {
    vals: [T; 256],
    present: [u64; 4],
}

impl<T: Copy + Default> ByteMap<T> {
    fn new() -> ByteMap<T> {
        ByteMap {
            vals: [T::default(); 256],
            present: [0; 4],
        }
    }

    fn get(&self, k: u8) -> Option<T> {
        let (w, b) = (usize::from(k >> 6), k & 63);
        (self.present[w] >> b & 1 == 1).then(|| self.vals[usize::from(k)])
    }

    fn insert(&mut self, k: u8, v: T) {
        self.present[usize::from(k >> 6)] |= 1 << (k & 63);
        self.vals[usize::from(k)] = v;
    }

    fn clear(&mut self) {
        self.present = [0; 4];
    }

    /// The entries in ascending key order.
    fn iter(&self) -> impl Iterator<Item = (u8, T)> + '_ {
        self.present.iter().enumerate().flat_map(move |(w, &bits)| {
            let mut bits = bits;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let k = (w as u32 * 64 + bits.trailing_zeros()) as u8;
                bits &= bits - 1;
                Some((k, self.vals[usize::from(k)]))
            })
        })
    }
}

struct Timing<'a> {
    cp: &'a CompiledProgram,
    cfg: TripsConfig,
    opn: Opn,
    et_free: [u64; 16],
    l1d: Vec<Cache>,
    dt_banks: BankPorts,
    l2: Cache,
    l2_banks: BankPorts,
    dram: BankPorts,
    icache: Cache,
    predictor: NextBlockPredictor,
    lwt: LoadWaitTable,
    /// Cycle each written register's latest value reaches its register
    /// tile; unwritten registers are available from cycle 0.
    reg_avail: ByteMap<u64>,
    commits: VecDeque<u64>,
    last_commit: u64,
    prev_dispatch: u64,
    prev_chunk: usize,
    /// Pending transition: (block, exit idx, kind, cont) awaiting the next
    /// block id to score the prediction.
    pending: Option<(u32, u8, ExitKind, Option<u32>, u64 /*resolve*/)>,
    stats: SimStats,
    /// Per-block scratch: output cycle per fired instruction index.
    done: ByteMap<u64>,
    /// Per-block scratch: (ready at the data tile, address, bytes) per
    /// store LSID.
    store_dt_time: ByteMap<(u64, u64, u8)>,
    /// [`Timing::warm_block`]'s stores: (LSID, address, bytes, fire order).
    warm_stores: Vec<(u8, u64, u8, usize)>,
}

impl<'a> Timing<'a> {
    fn new(cp: &'a CompiledProgram, cfg: &TripsConfig) -> Timing<'a> {
        Timing {
            cp,
            cfg: cfg.clone(),
            opn: Opn::new(),
            et_free: [0; 16],
            l1d: (0..TripsConfig::L1D_BANKS)
                .map(|_| {
                    Cache::new(
                        cfg.l1d_bytes / TripsConfig::L1D_BANKS,
                        cfg.l1d_ways,
                        cfg.line,
                    )
                })
                .collect(),
            dt_banks: BankPorts::new(TripsConfig::L1D_BANKS),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line),
            l2_banks: BankPorts::new(TripsConfig::L2_BANKS),
            dram: BankPorts::new(TripsConfig::DRAM_CHANNELS),
            icache: Cache::new(cfg.l1i_bytes, 2, 128),
            predictor: NextBlockPredictor::new(cfg.exit_entries, cfg.btb_entries, cfg.ras_depth),
            lwt: LoadWaitTable::new(cfg.lwt_entries.next_power_of_two()),
            reg_avail: ByteMap::new(),
            commits: VecDeque::new(),
            last_commit: 0,
            prev_dispatch: 0,
            prev_chunk: 0,
            pending: None,
            stats: SimStats::default(),
            done: ByteMap::new(),
            store_dt_time: ByteMap::new(),
            warm_stores: Vec::new(),
        }
    }

    /// Runs the full detailed model on one block but discards every
    /// counter it moves: the timed-warmup path. The machine state — clock,
    /// window occupancy, bank reservations, predictor and cache contents —
    /// advances exactly as [`Timing::time_block`] would advance it, so the
    /// measurement window that follows starts on a busy, representative
    /// pipeline; only the accounting is thrown away.
    fn time_block_discarded(&mut self, bidx: u32, trace: &BlockTrace) {
        let stats = self.stats.clone();
        let predictor = self.predictor.stats;
        let opn = self.opn.counts;
        let conflicts = self.dt_banks.conflict_cycles;
        let violations = self.lwt.violations;
        self.time_block(bidx, trace);
        self.stats = stats;
        self.predictor.stats = predictor;
        self.opn.counts = opn;
        self.dt_banks.conflict_cycles = conflicts;
        self.lwt.violations = violations;
    }

    /// Functionally warms one block: the next-block predictor, I-cache,
    /// data hierarchy and load-wait table observe it, but no cycles are
    /// accounted and no counters move — warming keeps long-lived state
    /// representative for the detailed window that follows.
    fn warm_block(&mut self, bidx: u32, trace: &BlockTrace) {
        let block = &self.cp.trips.blocks[bidx as usize];

        // Train the predictor on the warmed control transfer. The detailed
        // counters must only reflect detailed blocks, so the accounting is
        // snapshotted around the update.
        if let Some((pb, pexit, kind, cont, _)) = self.pending.take() {
            let multi = self.cp.trips.blocks[pb as usize].exits.len() > 1;
            let saved = self.predictor.stats;
            let _ = self
                .predictor
                .predict_and_update(pb, pexit, kind, bidx, cont, multi);
            self.predictor.stats = saved;
        }

        // I-cache (and L2) warming: the block image's lines.
        let base_addr = bidx as u64 * 1024;
        let lines = (trips_isa::encode::encoded_size_compressed(block) as u64).div_ceil(128);
        for l in 0..lines {
            if !self.icache.access(base_addr + l * 128) {
                self.l2.access(base_addr + l * 128);
            }
        }

        // Data-hierarchy and dependence-predictor warming. Without cycle
        // accounting there is no bank-resolution order, so program (LSID +
        // fire) order stands in: a load observing an overlapping older
        // store that fires *after* it would have read the bank too early,
        // and trains its wait bit exactly as the timed path would.
        let mut stores = std::mem::take(&mut self.warm_stores);
        stores.clear();
        stores.extend(trace.fired.iter().enumerate().filter_map(|(at, ti)| {
            let mem = ti.mem.filter(|m| m.is_store)?;
            let lsid = block.insts[ti.idx as usize].lsid.unwrap_or(0);
            Some((lsid, mem.addr, mem.bytes, at))
        }));
        for (at, ti) in trace.fired.iter().enumerate() {
            let Some(mem) = ti.mem else { continue };
            let bank = ((mem.addr / self.cfg.line as u64) % TripsConfig::L1D_BANKS as u64) as usize;
            // Mirror the timed path's fill policy exactly: loads allocate
            // into L2 on an L1 miss, stores do not.
            if !self.l1d[bank].access(mem.addr) && !mem.is_store {
                self.l2.access(mem.addr);
            }
            if !mem.is_store && !self.lwt.should_wait(bidx, ti.idx) {
                if let Some(l) = block.insts[ti.idx as usize].lsid {
                    let would_violate = stores.iter().any(|&(l2, a2, b2, at2)| {
                        l2 < l
                            && at2 > at
                            && a2 < mem.addr + mem.bytes as u64
                            && mem.addr < a2 + b2 as u64
                    });
                    if would_violate {
                        self.lwt.record_violation(bidx, ti.idx);
                    }
                }
            }
        }
        self.warm_stores = stores;

        // Dispatch bookkeeping for the next block's stream latency, and the
        // transition the next block scores the predictor with.
        self.prev_chunk = block.chunk_capacity();
        let exit = block.exits[trace.exit as usize];
        let (kind, cont) = match exit {
            ExitTarget::Block(_) => (ExitKind::Jump, None),
            ExitTarget::Call { cont, .. } => (ExitKind::Call, Some(cont)),
            ExitTarget::Ret => (ExitKind::Ret, None),
        };
        self.pending = Some((bidx, trace.exit, kind, cont, 0));
    }

    fn time_block(&mut self, bidx: u32, trace: &BlockTrace) {
        let block = &self.cp.trips.blocks[bidx as usize];
        let placement = &self.cp.placements[bidx as usize];

        // --- score the prediction that fetched this block ------------------
        let mut mispredicted = false;
        let mut prev_resolve = 0;
        if let Some((pb, pexit, kind, cont, resolve)) = self.pending.take() {
            let multi = self.cp.trips.blocks[pb as usize].exits.len() > 1;
            let (_, correct) = self
                .predictor
                .predict_and_update(pb, pexit, kind, bidx, cont, multi);
            mispredicted = !correct;
            prev_resolve = resolve;
            if mispredicted {
                self.stats.mispredict_flushes += 1;
            }
        }

        // --- fetch/dispatch timing -----------------------------------------
        // The ITs stream a block's compressed chunk at dispatch_bandwidth
        // instructions/cycle; the next block starts once the previous one
        // has streamed (small blocks dispatch back-to-back faster).
        let stream = (self.prev_chunk as u64)
            .div_ceil(self.cfg.dispatch_bandwidth)
            .max(self.cfg.dispatch_interval);
        let mut start = self.prev_dispatch + stream;
        if self.commits.len() >= self.cfg.max_blocks_in_flight {
            let oldest = self.commits[self.commits.len() - self.cfg.max_blocks_in_flight];
            start = start.max(oldest + 1);
        }
        if mispredicted {
            start = start.max(prev_resolve + self.cfg.flush_penalty);
        }
        // I-cache: fetch the compressed block image.
        let base_addr = bidx as u64 * 1024;
        let lines = (trips_isa::encode::encoded_size_compressed(block) as u64).div_ceil(128);
        let mut ic_delay = 0;
        for l in 0..lines {
            self.stats.icache_accesses += 1;
            if !self.icache.access(base_addr + l * 128) {
                self.stats.icache_misses += 1;
                ic_delay = ic_delay.max(self.cfg.l1i_miss);
                if !self.l2.access(base_addr + l * 128) {
                    ic_delay += self.cfg.dram_lat;
                }
            }
        }
        let dispatch = start + ic_delay + self.cfg.fetch_latency;
        self.prev_dispatch = start + ic_delay;
        self.prev_chunk = block.chunk_capacity();

        // --- dataflow timing -------------------------------------------------
        self.done.clear();
        self.store_dt_time.clear();
        let mut completion = dispatch + 1;
        let mut resolve = dispatch + 1;
        let mut violated = false;

        for ti in &trace.fired {
            let inst = &block.insts[ti.idx as usize];
            let et = placement.get(ti.idx as usize).copied().unwrap_or(0).min(15);
            let here = Node::et(et);
            let fetch_t = dispatch + ti.idx as u64 / self.cfg.dispatch_bandwidth;
            let mut ready = fetch_t;
            for src in &ti.srcs {
                let arr = match src {
                    TraceSrc::Read(r) => {
                        // Register writes land only after the dataflow
                        // loop, so every read in the block sees the value
                        // available at block start.
                        let reg = block.reads[*r as usize].reg;
                        let t0 = self.reg_avail.get(reg).unwrap_or(0).max(dispatch);
                        self.opn
                            .route(Node::rt(reg / 32), here, t0, TrafficClass::EtRt)
                    }
                    TraceSrc::Inst(p) => {
                        let t0 = self.done.get(*p).unwrap_or(dispatch);
                        let from =
                            Node::et(placement.get(*p as usize).copied().unwrap_or(0).min(15));
                        self.opn.route(from, here, t0, TrafficClass::EtEt)
                    }
                };
                ready = ready.max(arr);
            }
            let issue = ready.max(self.et_free[et as usize]);
            self.et_free[et as usize] = issue + 1;

            let out_t = if let Some(mem) = ti.mem {
                let bank =
                    ((mem.addr / self.cfg.line as u64) % TripsConfig::L1D_BANKS as u64) as usize;
                let dtn = Node::dt(bank as u8);
                if mem.is_store {
                    let arr = self.opn.route(here, dtn, issue + 1, TrafficClass::EtDt);
                    let t = self.dt_banks.reserve(bank, arr, 1);
                    self.l1d[bank].access(mem.addr);
                    self.stats.l1_bytes += mem.bytes as u64;
                    self.store_dt_time
                        .insert(inst.lsid.unwrap_or(0), (t + 1, mem.addr, mem.bytes));
                    completion = completion.max(t + 1);
                    t + 1
                } else {
                    // Load: optionally wait for earlier stores per the
                    // dependence predictor.
                    let mut lissue = issue;
                    if self.lwt.should_wait(bidx, ti.idx) {
                        for (lsid2, (t2, _, _)) in self.store_dt_time.iter() {
                            if inst.lsid.map(|l| lsid2 < l).unwrap_or(false) {
                                lissue = lissue.max(t2);
                            }
                        }
                    }
                    let arr = self.opn.route(here, dtn, lissue + 1, TrafficClass::EtDt);
                    let t = self.dt_banks.reserve(bank, arr, 1);
                    self.stats.l1d_accesses += 1;
                    self.stats.l1_bytes += mem.bytes as u64;
                    let mut lat = self.cfg.l1d_hit;
                    if !self.l1d[bank].access(mem.addr) {
                        self.stats.l1d_misses += 1;
                        self.stats.l2_accesses += 1;
                        self.stats.l2_bytes += self.cfg.line as u64;
                        let l2b = ((mem.addr / self.cfg.line as u64) % TripsConfig::L2_BANKS as u64)
                            as usize;
                        let nuca = (l2b % 4 + l2b / 4) as u64;
                        let l2t = self.l2_banks.reserve(l2b, t + lat, 1);
                        lat += (l2t - t - lat.min(l2t)) + self.cfg.l2_base + self.cfg.l2_hop * nuca;
                        if !self.l2.access(mem.addr) {
                            self.stats.l2_misses += 1;
                            self.stats.dram_bytes += self.cfg.line as u64;
                            let ch =
                                (mem.addr as usize / self.cfg.line) % TripsConfig::DRAM_CHANNELS;
                            let dt = self.dram.reserve(ch, t + lat, self.cfg.dram_occupancy);
                            lat = dt - t + self.cfg.dram_lat;
                        }
                    }
                    // Violation: an earlier store to an overlapping address
                    // resolved after this load read the bank.
                    if !self.lwt.should_wait(bidx, ti.idx) {
                        if let Some(l) = inst.lsid {
                            for (lsid2, (t2, a2, b2)) in self.store_dt_time.iter() {
                                let overlap =
                                    a2 < mem.addr + mem.bytes as u64 && mem.addr < a2 + b2 as u64;
                                if lsid2 < l && overlap && t2 > t {
                                    violated = true;
                                    self.lwt.record_violation(bidx, ti.idx);
                                    break;
                                }
                            }
                        }
                    }
                    let data_t = t + lat;
                    self.opn.route(dtn, here, data_t, TrafficClass::EtDt)
                }
            } else if inst.op.is_branch() {
                let r = self
                    .opn
                    .route(here, Node::GT, issue + 1, TrafficClass::EtGt);
                resolve = resolve.max(r);
                r
            } else if inst.op == TOpcode::Null && inst.lsid.is_some() {
                let dtn = Node::dt(inst.lsid.unwrap() % 4);
                let r = self.opn.route(here, dtn, issue + 1, TrafficClass::EtDt);
                completion = completion.max(r);
                r
            } else {
                issue + inst.op.latency() as u64
            };
            self.done.insert(ti.idx, out_t);
        }

        // Register writes resolve at their RT.
        for (wi, src) in trace.write_srcs.iter().enumerate() {
            let Some(src) = src else { continue };
            let reg = block.writes[wi].reg;
            let (t0, from) = match src {
                TraceSrc::Read(r) => {
                    let rr = block.reads[*r as usize].reg;
                    (
                        self.reg_avail.get(rr).unwrap_or(0).max(dispatch),
                        Node::rt(rr / 32),
                    )
                }
                TraceSrc::Inst(p) => (
                    self.done.get(*p).unwrap_or(dispatch),
                    Node::et(placement.get(*p as usize).copied().unwrap_or(0).min(15)),
                ),
            };
            let arr = self
                .opn
                .route(from, Node::rt(reg / 32), t0, TrafficClass::EtRt);
            self.reg_avail.insert(reg, arr);
            completion = completion.max(arr);
        }
        completion = completion.max(resolve);
        if violated {
            self.stats.load_flushes += 1;
            completion += self.cfg.flush_penalty;
            resolve += self.cfg.flush_penalty;
        }

        // Commit protocol: in order, one block per cycle minimum; the
        // commit-protocol overhead overlaps with younger blocks' execution.
        let commit = (completion + self.cfg.commit_overhead).max(self.last_commit + 1);
        self.last_commit = commit;
        self.commits.push_back(commit);
        // Keep enough history for the in-flight window check above; a
        // sweep can raise max_blocks_in_flight past the default horizon.
        let keep = self.cfg.max_blocks_in_flight.max(64);
        if self.commits.len() > keep {
            self.commits.pop_front();
        }
        self.stats.blocks += 1;
        self.stats.window_inst_cycles += (block.insts.len() as u128) * ((commit - start) as u128);

        // Queue the transition for prediction scoring.
        let exit = block.exits[trace.exit as usize];
        let (kind, cont) = match exit {
            ExitTarget::Block(_) => (ExitKind::Jump, None),
            ExitTarget::Call { cont, .. } => (ExitKind::Call, Some(cont)),
            ExitTarget::Ret => (ExitKind::Ret, None),
        };
        self.pending = Some((bidx, trace.exit, kind, cont, resolve));
    }

    /// Captures the machine's live-point at stream `unit` (called before
    /// the unit is processed). Pure machine state only — see
    /// [`TsimSnapshot`].
    fn snapshot(&self, unit: u64) -> TsimSnapshot {
        // Occupancy claims this far behind the commit point are dead: no
        // packet or bank request ever probes a cycle ~1M behind the clock
        // (in-flight blocks span tens of cycles), so snapshots exclude
        // them rather than pin every cold link's stale claims forever.
        let horizon = self.last_commit.saturating_sub(CLAIM_SNAPSHOT_MARGIN);
        TsimSnapshot {
            unit,
            opn: self.opn.snapshot(horizon),
            et_free: self.et_free,
            l1d: self.l1d.iter().map(Cache::snapshot).collect(),
            dt_banks: self.dt_banks.snapshot(horizon),
            l2: self.l2.snapshot(),
            l2_banks: self.l2_banks.snapshot(horizon),
            dram: self.dram.snapshot(horizon),
            icache: self.icache.snapshot(),
            predictor: self.predictor.snapshot(),
            lwt: self.lwt.snapshot(),
            reg_avail: self.reg_avail.iter().collect(),
            commits: self.commits.iter().copied().collect(),
            last_commit: self.last_commit,
            prev_dispatch: self.prev_dispatch,
            prev_chunk: self.prev_chunk as u64,
            pending: self
                .pending
                .map(|(block, exit, kind, cont, resolve)| PendingExit {
                    block,
                    exit,
                    kind,
                    cont,
                    resolve,
                }),
        }
    }

    /// Restores a live-point into a freshly constructed machine (every
    /// model structure is overwritten, so the machine state would be exact
    /// on a used one too). All accounting stays at zero, so everything
    /// this replay subsequently counts is the window's own delta. A
    /// malformed or foreign image is an `Err`.
    fn restore(&mut self, s: &TsimSnapshot) -> Result<(), String> {
        if self.l1d.len() != s.l1d.len() {
            return Err(format!(
                "live-point has {} L1D banks, config wants {}",
                s.l1d.len(),
                self.l1d.len()
            ));
        }
        self.opn.restore(&s.opn)?;
        self.et_free = s.et_free;
        for (c, cs) in self.l1d.iter_mut().zip(&s.l1d) {
            c.restore(cs)?;
        }
        self.dt_banks.restore(&s.dt_banks)?;
        self.l2.restore(&s.l2)?;
        self.l2_banks.restore(&s.l2_banks)?;
        self.dram.restore(&s.dram)?;
        self.icache.restore(&s.icache)?;
        self.predictor.restore(&s.predictor)?;
        self.lwt.restore(&s.lwt)?;
        self.reg_avail.clear();
        for &(r, t) in &s.reg_avail {
            self.reg_avail.insert(r, t);
        }
        self.commits = s.commits.iter().copied().collect();
        self.last_commit = s.last_commit;
        self.prev_dispatch = s.prev_dispatch;
        self.prev_chunk = s.prev_chunk as usize;
        self.pending = s
            .pending
            .map(|p| (p.block, p.exit, p.kind, p.cont, p.resolve));
        Ok(())
    }

    /// Folds the component accounting into the stats without the full-run
    /// clock defaults: the per-window delta of a restored replay.
    fn into_window_stats(mut self) -> SimStats {
        self.stats.predictor = self.predictor.stats;
        self.stats.opn = self.opn.stats();
        self.stats.bank_conflict_cycles = self.dt_banks.conflict_cycles;
        self.stats
    }

    fn finish(mut self) -> SimStats {
        self.stats.cycles = self.last_commit.max(1);
        self.stats.predictor = self.predictor.stats;
        self.stats.opn = self.opn.stats();
        self.stats.bank_conflict_cycles = self.dt_banks.conflict_cycles;
        // Full-run defaults; a sampling replay overrides total_units and
        // est_cycles after folding in the stream length.
        self.stats.detailed_units = self.stats.blocks;
        self.stats.total_units = self.stats.blocks;
        self.stats.est_cycles = self.stats.cycles;
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_compiler::{compile, CompileOptions};
    use trips_ir::{IntCc, Operand, ProgramBuilder};

    fn sum_program(n: i64) -> trips_ir::Program {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let done = f.block();
        f.switch_to(e);
        let acc = f.iconst(0);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, i);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, n);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        pb.finish("main").unwrap()
    }

    #[test]
    fn simulation_matches_functional_result() {
        let p = sum_program(200);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        assert_eq!(r.return_value, (0..200).sum::<i64>() as u64);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.blocks > 0);
        assert!(r.stats.ipc_executed() > 0.0);
    }

    #[test]
    fn unrolled_code_is_faster() {
        let p = sum_program(4000);
        let c0 = compile(&p, &CompileOptions::o0()).unwrap();
        let c2 = compile(&p, &CompileOptions::o2()).unwrap();
        let cfg = TripsConfig::prototype();
        let r0 = simulate(&c0, &cfg, 1 << 20).unwrap();
        let r2 = simulate(&c2, &cfg, 1 << 20).unwrap();
        assert_eq!(r0.return_value, r2.return_value);
        assert!(
            r2.stats.cycles < r0.stats.cycles,
            "O2 ({}) should beat O0 ({})",
            r2.stats.cycles,
            r0.stats.cycles
        );
    }

    #[test]
    fn window_occupancy_bounded() {
        let p = sum_program(1000);
        let compiled = compile(&p, &CompileOptions::o2()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        let w = r.stats.avg_window_insts();
        assert!(w > 0.0 && w <= 1024.0, "window occupancy {w} out of range");
    }

    #[test]
    fn predictor_learns_loop_few_mispredicts() {
        let p = sum_program(5000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let r = simulate(&compiled, &TripsConfig::prototype(), 1 << 20).unwrap();
        let mr =
            r.stats.predictor.mispredicts() as f64 / r.stats.predictor.predictions.max(1) as f64;
        assert!(
            mr < 0.10,
            "loop should predict well, missed {:.1}%",
            mr * 100.0
        );
    }

    #[test]
    fn replay_matches_direct_simulation_exactly() {
        let p = sum_program(3000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        assert!(
            log.dedup_ratio() > 2.0,
            "a counted loop should intern well, got {}",
            log.dedup_ratio()
        );
        for cfg in [TripsConfig::prototype(), TripsConfig::improved_predictor()] {
            let direct = simulate(&compiled, &cfg, 1 << 20).unwrap();
            let replayed = replay_trace(&compiled, &cfg, &log).unwrap();
            assert_eq!(replayed.return_value, direct.return_value);
            assert_eq!(
                replayed.stats, direct.stats,
                "replay must be bit-identical to direct simulation"
            );
        }
    }

    #[test]
    fn covering_sample_plan_is_bit_identical_to_full_replay() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let cfg = TripsConfig::prototype();
        let full = replay_trace(&compiled, &cfg, &log).unwrap();
        let plan = trips_sample::SamplePlan::new(0, 7, 7).unwrap();
        let covered = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan)).unwrap();
        assert_eq!(covered.stats, full.stats, "sample-everything must be Full");
        assert!(!covered.stats.sampled);
        assert_eq!(full.stats.est_cycles, full.stats.cycles);
        assert_eq!(full.stats.detailed_units, full.stats.blocks);
    }

    #[test]
    fn sampled_replay_times_a_fraction_and_extrapolates() {
        let p = sum_program(6000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let cfg = TripsConfig::prototype();
        let full = replay_trace(&compiled, &cfg, &log).unwrap();
        let plan = trips_sample::SamplePlan::new(8, 8, 32).unwrap();
        let s = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan))
            .unwrap()
            .stats;
        assert!(s.sampled);
        assert_eq!(s.total_units, log.seq.len() as u64);
        assert_eq!(s.detailed_units, s.blocks);
        assert!(
            s.detailed_units * 3 < s.total_units,
            "a 1/4-detail plan must time a minority of blocks: {}/{}",
            s.detailed_units,
            s.total_units
        );
        assert!(s.cycles < full.stats.cycles);
        // The extrapolated estimate lands near the full-replay truth on a
        // steady-state loop.
        let rel = (s.est_cycles as f64 - full.stats.cycles as f64).abs() / full.stats.cycles as f64;
        assert!(
            rel < 0.10,
            "extrapolation off by {:.1}% (est {} vs full {})",
            rel * 100.0,
            s.est_cycles,
            full.stats.cycles
        );
        // And the functional composition is untouched by sampling.
        assert_eq!(s.isa, full.stats.isa);
    }

    /// A hand-built phase plan over a stream of `total` units: boundary
    /// windows plus one weighted interior representative per `chunk`.
    fn handmade_plan(total: u64) -> trips_sample::PhasePlan {
        let interval = (total / 5).max(1);
        let head = interval.min(total);
        let tail_start = total - interval;
        let mid_extent = tail_start - head;
        let rep_start = head + mid_extent / 2;
        let rep_end = (rep_start + interval / 2)
            .min(tail_start)
            .max(rep_start + 1);
        let warm = rep_start.saturating_sub(interval / 4).max(head);
        trips_sample::PhasePlan {
            interval,
            total_units: total,
            k: 1,
            windows: vec![
                trips_sample::PhaseWindow {
                    warm_start: 0,
                    detail_start: 0,
                    end: head,
                    weight_units: head,
                },
                trips_sample::PhaseWindow {
                    warm_start: warm,
                    detail_start: rep_start,
                    end: rep_end,
                    weight_units: mid_extent,
                },
                trips_sample::PhaseWindow {
                    warm_start: tail_start,
                    detail_start: tail_start,
                    end: total,
                    weight_units: interval,
                },
            ],
            assignments: vec![],
        }
    }

    #[test]
    fn livepoint_window_replay_is_bit_identical_to_sequential_phased() {
        let p = sum_program(4000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        for cfg in [TripsConfig::prototype(), TripsConfig::improved_predictor()] {
            let sequential =
                replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Phased(plan.clone()))
                    .unwrap();
            let (captured, snaps) =
                replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
            assert_eq!(
                captured.stats, sequential.stats,
                "capture pass must be bit-identical to the plain phased replay"
            );
            assert_eq!(snaps.len(), plan.windows.len());
            // Snapshots round-trip through bytes (the store's discipline).
            let measures: Vec<TsimWindowMeasure> = plan
                .windows
                .iter()
                .zip(&snaps)
                .map(|(w, s)| {
                    let bytes = serde::bin::to_bytes(s);
                    let back: TsimSnapshot = serde::bin::from_bytes(&bytes).unwrap();
                    assert_eq!(&back, s);
                    replay_trips_window(&compiled, &cfg, &log, w, &back).unwrap()
                })
                .collect();
            let assembled = assemble_trips_phased(&log, &plan, &measures).unwrap();
            assert_eq!(
                assembled.stats, sequential.stats,
                "restore-then-replay must be bit-identical to fast-forward-then-replay"
            );
            assert_eq!(assembled.return_value, sequential.return_value);
        }
    }

    #[test]
    fn livepoint_window_rejects_a_foreign_snapshot() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        let cfg = TripsConfig::prototype();
        let (_, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
        // A snapshot from one boundary cannot seed a different window.
        assert!(matches!(
            replay_trips_window(&compiled, &cfg, &log, &plan.windows[1], &snaps[0]),
            Err(SimError::Trace(_))
        ));
        // A wrong-count assembly is rejected.
        assert!(matches!(
            assemble_trips_phased(&log, &plan, &[]),
            Err(SimError::Trace(_))
        ));
    }

    /// The wire shape of a [`SparseWays`] image, for hand-made bad ones.
    #[derive(Serialize, Deserialize)]
    struct WaysImage {
        sets: u32,
        ways: u32,
        lines: Vec<(u32, u32, u64, u64)>,
        stamp: u64,
    }

    fn recode<A: Serialize, B: serde::DeserializeOwned>(a: &A) -> B {
        serde::bin::from_bytes(&serde::bin::to_bytes(a)).unwrap()
    }

    #[test]
    fn livepoint_restore_rejects_malformed_images() {
        let p = sum_program(2000);
        let compiled = compile(&p, &CompileOptions::o1()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let plan = handmade_plan(log.seq.len() as u64);
        let cfg = TripsConfig::prototype();
        let (_, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &plan).unwrap();
        let good = snaps[2].clone();
        let l2: WaysImage = recode(&good.l2);
        assert!(!l2.lines.is_empty());
        let with_lines = |img: &SparseWays, lines: Vec<(u32, u32, u64, u64)>| -> SparseWays {
            let mut w: WaysImage = recode(img);
            w.lines = lines;
            recode(&w)
        };
        let mut bad: Vec<(&str, TsimSnapshot)> = Vec::new();
        let mut s = good.clone();
        s.l2 = with_lines(&good.l2, vec![(l2.sets, 0, 1, 1)]);
        bad.push(("L2 set out of range", s));
        let mut s = good.clone();
        s.l1d[1] = with_lines(&good.l1d[1], vec![(0, l2.ways + 64, 1, 1)]);
        bad.push(("L1D way out of range", s));
        let mut s = good.clone();
        s.icache = with_lines(&good.icache, vec![(2, 0, 1, 1), (1, 0, 1, 1)]);
        bad.push(("I-cache lines unsorted", s));
        let mut s = good.clone();
        s.l2 = with_lines(&good.l2, vec![(1, 1, 1, 1), (1, 1, 2, 2)]);
        bad.push(("L2 line repeated", s));
        let mut s = good.clone();
        s.l2 = recode(&WaysImage {
            sets: l2.sets / 2,
            ..l2
        });
        bad.push(("L2 geometry", s));
        let mut s = good.clone();
        s.l1d.pop();
        bad.push(("L1D bank count", s));
        let mut s = good.clone();
        s.opn.sets.pop();
        bad.push(("OPN link table size", s));
        let mut s = good.clone();
        s.dram.horizon = u64::MAX;
        s.dram.sets[0] = vec![0, 0];
        bad.push(("DRAM claims overflow", s));
        let mut s = good.clone();
        s.dt_banks.sets.push(Vec::new());
        bad.push(("data-tile bank count", s));
        let mut s = good.clone();
        s.predictor.lht.push((u32::MAX, 1));
        bad.push(("predictor entry out of range", s));
        let mut s = good.clone();
        s.lwt.bits = vec![(4, true), (4, true)];
        bad.push(("load-wait entry repeated", s));
        for (what, s) in &bad {
            let mut t = Timing::new(&compiled, &cfg);
            assert!(t.restore(s).is_err(), "{what}");
            assert!(
                matches!(
                    replay_trips_window(&compiled, &cfg, &log, &plan.windows[2], s),
                    Err(SimError::Trace(_))
                ),
                "{what}"
            );
        }
        // Flipped bytes either fail to decode or restore to Ok or Err; no
        // image panics the restore.
        let bytes = serde::bin::to_bytes(&good);
        let mut t = Timing::new(&compiled, &cfg);
        for i in (0..bytes.len()).step_by(bytes.len() / 500 + 1) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                if let Ok(s) = serde::bin::from_bytes::<TsimSnapshot>(&b) {
                    let _ = t.restore(&s);
                }
            }
        }
    }

    #[test]
    fn replay_rejects_foreign_trace() {
        let small = compile(&sum_program(10), &CompileOptions::o0()).unwrap();
        let big = compile(&sum_program(10), &CompileOptions::o2()).unwrap();
        let mut log = TraceLog::capture(
            &big.trips,
            &big.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        // Point the trace at a block index the small program does not have.
        let nblocks = small.trips.blocks.len() as u32;
        log.seq.push((nblocks + 10, 0));
        log.header.dynamic_blocks += 1;
        assert!(matches!(
            replay_trace(&small, &TripsConfig::prototype(), &log),
            Err(SimError::Trace(_))
        ));
        // A shape whose instruction indices do not exist in the block is
        // rejected structurally (no TRIPS block holds more than 128 insts).
        let mut log2 = TraceLog::capture(
            &big.trips,
            &big.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        log2.shapes[0].fired[0].idx = 200;
        assert!(matches!(
            replay_trace(&big, &TripsConfig::prototype(), &log2),
            Err(SimError::Trace(_))
        ));
    }

    #[test]
    fn budget_limits_run() {
        let p = sum_program(100_000);
        let compiled = compile(&p, &CompileOptions::o0()).unwrap();
        let err = simulate_with_budget(&compiled, &TripsConfig::prototype(), 1 << 20, 100);
        assert!(err.is_err(), "budget should cut the run short");
    }
}
