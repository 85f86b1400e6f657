//! The out-of-order timing model.
//!
//! Execute-at-fetch: a [`trips_risc::EventSource`] provides the dynamic
//! instruction stream with branch outcomes and memory addresses; the model
//! assigns each instruction fetch, issue and completion cycles under the
//! configured machine's resource constraints.
//!
//! The source may be a live functional machine ([`run_timed`]) or a
//! recorded [`RiscTrace`] ([`run_timed_trace`]); both feed the same
//! private replay driver, so replayed timing is bit-identical to
//! execution-driven timing by construction — one capture serves every
//! configuration. The live-point capture pass
//! ([`run_ooo_phased_capture`]) is that driver plus a snapshot hook.
//!
//! The core itself has two per-event paths, selected by a
//! [`trips_sample::ReplayMode`] ([`run_timed_trace_mode`]): the detailed
//! pipeline model, and a fast-forward path that advances the event source
//! while touching only the caches and the branch predictor (functional
//! warming, no cycle accounting). A [`trips_sample::SamplePlan`]
//! alternates skip/warm/detail over the dynamic instruction stream and
//! extrapolates the measured cycles, making a replay point sublinear in
//! trace length.

use crate::configs::OooConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use trips_ir::Program;
use trips_risc::exec::{CtrlKind, EventSource, MachineSource, RiscError, StepEvent};
use trips_risc::{CursorState, RCat, RProgram, RiscTrace};
use trips_sample::sparse::{
    delta_code, delta_decode, scatter_table, sparse_table, SparseWays, EMPTY_WAY,
};
use trips_sample::{Phase, PhasePlan, PhaseWindow, ReplayMode, SampleSummary, Schedule};

/// Timing statistics of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OooStats {
    /// Total cycles (retire time of the last instruction).
    pub cycles: u64,
    /// Dynamic instructions.
    pub insts: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Conditional-branch mispredictions.
    pub br_mispredicts: u64,
    /// Return-address mispredictions.
    pub ras_mispredicts: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L1 data accesses.
    pub l1_accesses: u64,
    /// Whether this run interval-sampled the stream (see
    /// [`trips_sample::SamplePlan`]). When false, `est_cycles == cycles`
    /// and `total_insts == insts`.
    pub sampled: bool,
    /// Dynamic instructions in the stream (timed + warmed + skipped);
    /// [`OooStats::insts`] counts only the detailed-timed ones.
    pub total_insts: u64,
    /// Whole-run cycle estimate: measured cycles extrapolated over the
    /// stream (`cycles × total_insts / insts`); equals `cycles` for full
    /// runs.
    pub est_cycles: u64,
}

impl OooStats {
    /// Adds another replay's *measured* (detailed-window) counters into
    /// this one, field-wise — the reduction step of live-point parallel
    /// replay. Clock-derived fields (`cycles`, `est_cycles`,
    /// `total_insts`, `sampled`) are *not* summed; the assembler sets
    /// them from the schedule summary.
    pub fn absorb_measured(&mut self, w: &OooStats) {
        self.insts += w.insts;
        self.branches += w.branches;
        self.br_mispredicts += w.br_mispredicts;
        self.ras_mispredicts += w.ras_mispredicts;
        self.l1_misses += w.l1_misses;
        self.l2_misses += w.l2_misses;
        self.l1_accesses += w.l1_accesses;
    }

    /// Sets the clock-derived fields from a sampling schedule's summary:
    /// the measured-window cycles (timed warmup advanced the clock but is
    /// not part of the sample) and their whole-run extrapolation.
    fn apply_summary(&mut self, s: &SampleSummary) {
        debug_assert_eq!(s.measured_units, self.insts);
        self.sampled = true;
        self.total_insts = s.total_units;
        self.cycles = s.measured_cycles.max(u64::from(self.insts > 0));
        self.est_cycles = s.est_cycles.max(self.cycles);
    }

    /// Instructions per cycle. For a sampled run this is the whole-run
    /// estimate (total instructions over extrapolated cycles); for a full
    /// run the two formulations coincide.
    pub fn ipc(&self) -> f64 {
        if self.sampled {
            if self.est_cycles == 0 {
                0.0
            } else {
                self.total_insts as f64 / self.est_cycles as f64
            }
        } else if self.cycles == 0 {
            0.0
        } else {
            self.insts as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch MPKI.
    pub fn br_mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.br_mispredicts as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Fraction of stream instructions timed in detail (1.0 for full runs).
    pub fn detailed_frac(&self) -> f64 {
        if self.total_insts == 0 {
            1.0
        } else {
            self.insts as f64 / self.total_insts as f64
        }
    }
}

/// Result of a timed run.
#[derive(Debug, Clone)]
pub struct OooResult {
    /// Program return value.
    pub return_value: u64,
    /// Timing statistics.
    pub stats: OooStats,
}

/// Simple set-associative LRU tag array (local copy; the TRIPS simulator's
/// caches model banked structures this machine doesn't have).
struct Cache {
    sets: usize,
    ways: usize,
    line: usize,
    /// `(tag, last-use stamp)` per way, set-major.
    tags: Vec<(u64, u64)>,
    stamp: u64,
}

impl Cache {
    fn new(bytes: usize, ways: usize, line: usize) -> Cache {
        let sets = (bytes / line / ways).max(1);
        Cache {
            sets,
            ways,
            line,
            tags: vec![EMPTY_WAY; sets * ways],
            stamp: 0,
        }
    }

    fn snapshot(&self) -> SparseWays {
        SparseWays::capture(&self.tags, self.ways, self.stamp)
    }

    fn restore(&mut self, s: &SparseWays) -> Result<(), String> {
        self.stamp = s.restore(&mut self.tags, self.ways)?;
        Ok(())
    }

    fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        let lineno = addr / self.line as u64;
        let set = (lineno % self.sets as u64) as usize;
        let tag = lineno / self.sets as u64;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        for w in ways.iter_mut() {
            if w.0 == tag {
                w.1 = self.stamp;
                return true;
            }
        }
        let v = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.1)
            .map(|(i, _)| i)
            .unwrap_or(0);
        ways[v] = (tag, self.stamp);
        false
    }
}

/// Gshare/bimodal tournament predictor with a return-address stack.
struct Predictor {
    mask: usize,
    bim: Vec<u8>,
    gsh: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u32,
    ras: Vec<(u32, u32)>,
    ras_depth: usize,
}

impl Predictor {
    /// The reset value of every two-bit counter (weakly not-taken).
    const RESET: u8 = 1;

    fn new(entries: usize, ras_depth: usize) -> Predictor {
        let n = entries.next_power_of_two();
        Predictor {
            mask: n - 1,
            bim: vec![Self::RESET; n],
            gsh: vec![Self::RESET; n],
            chooser: vec![Self::RESET; n],
            ghr: 0,
            ras: Vec::new(),
            ras_depth,
        }
    }

    fn snapshot(&self) -> PredSnap {
        PredSnap {
            bim: sparse_table(&self.bim, Self::RESET),
            gsh: sparse_table(&self.gsh, Self::RESET),
            chooser: sparse_table(&self.chooser, Self::RESET),
            ghr: self.ghr,
            ras: self.ras.clone(),
        }
    }

    fn restore(&mut self, s: &PredSnap) -> Result<(), String> {
        if s.ras.len() > self.ras_depth {
            return Err(format!(
                "return-stack image holds {} entries, the stack {}",
                s.ras.len(),
                self.ras_depth
            ));
        }
        scatter_table(&s.bim, &mut self.bim, Self::RESET)?;
        scatter_table(&s.gsh, &mut self.gsh, Self::RESET)?;
        scatter_table(&s.chooser, &mut self.chooser, Self::RESET)?;
        self.ghr = s.ghr;
        self.ras.clone_from(&s.ras);
        Ok(())
    }

    fn branch(&mut self, pc: u32, taken: bool) -> bool {
        let bi = pc as usize & self.mask;
        let gi = (pc as usize ^ (self.ghr as usize)) & self.mask;
        let bp = self.bim[bi] >= 2;
        let gp = self.gsh[gi] >= 2;
        let pred = if self.chooser[bi] >= 2 { gp } else { bp };
        if gp == taken && bp != taken {
            self.chooser[bi] = (self.chooser[bi] + 1).min(3);
        } else if bp == taken && gp != taken {
            self.chooser[bi] = self.chooser[bi].saturating_sub(1);
        }
        let bump = |c: &mut u8| {
            if taken {
                *c = (*c + 1).min(3)
            } else {
                *c = c.saturating_sub(1)
            }
        };
        bump(&mut self.bim[bi]);
        bump(&mut self.gsh[gi]);
        self.ghr = (self.ghr << 1) | taken as u32;
        pred
    }

    fn call(&mut self, ret_to: (u32, u32)) {
        if self.ras.len() == self.ras_depth {
            self.ras.remove(0);
        }
        self.ras.push(ret_to);
    }

    fn ret(&mut self, actual: (u32, u32)) -> bool {
        self.ras.pop() == Some(actual)
    }
}

/// Issue-bandwidth tracker: at most `width` issues per cycle.
struct IssueSlots {
    width: u32,
    counts: HashMap<u64, u32>,
}

impl IssueSlots {
    fn new(width: u32) -> IssueSlots {
        IssueSlots {
            width,
            counts: HashMap::new(),
        }
    }

    fn take(&mut self, earliest: u64) -> u64 {
        let mut t = earliest;
        loop {
            let c = self.counts.entry(t).or_insert(0);
            if *c < self.width {
                *c += 1;
                // Opportunistic pruning keeps the map small.
                if self.counts.len() > 4096 {
                    let min = t.saturating_sub(1024);
                    self.counts.retain(|&k, _| k >= min);
                }
                return t;
            }
            t += 1;
        }
    }

    /// Captures the per-cycle issue counts at cycle ≥ `horizon` — slot
    /// searches start at operand-ready times near the current clock, so
    /// counts far enough behind it are dead weight in a live-point. The
    /// cycles are delta-coded from `horizon`; the counts follow in the
    /// same order.
    fn snapshot(&self, horizon: u64) -> SlotsSnap {
        let mut v: Vec<(u64, u32)> = self
            .counts
            .iter()
            .filter(|&(&t, _)| t >= horizon)
            .map(|(&t, &c)| (t, c))
            .collect();
        v.sort_unstable();
        (
            delta_code(horizon, v.iter().map(|&(t, _)| t)),
            v.into_iter().map(|(_, c)| c).collect(),
        )
    }

    fn restore(&mut self, horizon: u64, (gaps, counts): &SlotsSnap) -> Result<(), String> {
        if gaps.len() != counts.len() {
            return Err(format!(
                "issue-slot image has {} cycles for {} counts",
                gaps.len(),
                counts.len()
            ));
        }
        let cycles = delta_decode(horizon, gaps)?;
        self.counts = cycles.into_iter().zip(counts.iter().copied()).collect();
        Ok(())
    }
}

/// Serializable image of an [`IssueSlots`]: its busy cycles delta-coded
/// ([`trips_sample::sparse::delta_code`]) and each one's issue count.
type SlotsSnap = (Vec<u64>, Vec<u32>);

/// Serializable image of the local [`Predictor`]: the counters that
/// differ from reset ([`trips_sample::sparse::sparse_table`]) plus the
/// histories. Table indices are checked against the config's geometry on
/// restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct PredSnap {
    bim: Vec<(u32, u8)>,
    gsh: Vec<(u32, u8)>,
    chooser: Vec<(u32, u8)>,
    ghr: u32,
    ras: Vec<(u32, u32)>,
}

/// One OoO core's complete warmed machine state at a live-point boundary,
/// plus the trace-cursor position, so a restored replay resumes the event
/// stream and the pipeline model bit-identically to a sequential
/// fast-forward. Caches, predictor tables and issue/port counts are stored
/// sparse ([`trips_sample::sparse`]). Fields are private (the payload is an
/// opaque checkpoint); [`OooSnapshot::unit`] exposes the boundary for
/// validation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OooSnapshot {
    unit: u64,
    cursor: CursorState,
    l1: SparseWays,
    l2: SparseWays,
    pred: PredSnap,
    /// The cycle the issue and port counts are delta-coded from.
    horizon: u64,
    issue: SlotsSnap,
    mem_ports: SlotsSnap,
    fp_ports: SlotsSnap,
    reg_ready: [u64; 32],
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    retire_ring: Vec<u64>,
    last_retire: u64,
    acct: u64,
    idx: u64,
}

impl OooSnapshot {
    /// The stream unit this snapshot was captured at (a window's
    /// `warm_start`).
    pub fn unit(&self) -> u64 {
        self.unit
    }
}

/// The complete mutable state of the timing core, factored out so the
/// sequential replay loop, the checkpoint-capture pass, and restored
/// window replays all drive the *same* per-event code paths — bit-identity
/// between them is by construction, not by parallel maintenance.
struct OooState {
    l1: Cache,
    l2: Cache,
    pred: Predictor,
    issue: IssueSlots,
    mem_ports: IssueSlots,
    fp_ports: IssueSlots,
    reg_ready: [u64; 32],
    fetch_cycle: u64,
    fetched_this_cycle: u32,
    retire_ring: Vec<u64>,
    last_retire: u64,
    /// The smoothed accounting clock sampled windows are metered on (see
    /// the comment in the replay driver, `drive`).
    acct: u64,
    idx: u64,
}

impl OooState {
    fn new(cfg: &OooConfig) -> OooState {
        OooState {
            l1: Cache::new(cfg.l1_bytes, 4, cfg.line),
            l2: Cache::new(cfg.l2_bytes, 8, cfg.line),
            pred: Predictor::new(cfg.predictor_entries, cfg.ras_depth),
            issue: IssueSlots::new(cfg.issue_width),
            mem_ports: IssueSlots::new(cfg.mem_ports),
            fp_ports: IssueSlots::new(cfg.fp_ports),
            reg_ready: [0u64; 32],
            fetch_cycle: 0,
            fetched_this_cycle: 0,
            retire_ring: vec![0; cfg.rob],
            last_retire: 0,
            acct: 0,
            idx: 0,
        }
    }

    /// Fast-forward with functional warming: caches and the branch
    /// predictor observe the instruction; the pipeline model never runs
    /// and no counters move.
    fn warm(&mut self, ev: &StepEvent) {
        if let Some((addr, _)) = ev.mem {
            if !self.l1.access(addr) {
                self.l2.access(addr);
            }
        }
        match ev.ctrl_kind {
            CtrlKind::Cond => {
                let taken = ev.cond.unwrap_or(false);
                let pc_hash = (ev.func << 16) ^ ev.idx;
                let _ = self.pred.branch(pc_hash, taken);
            }
            CtrlKind::Call => self.pred.call((ev.func, ev.idx + 1)),
            CtrlKind::Ret => {
                if let Some(t) = ev.transfer {
                    let _ = self.pred.ret(t);
                }
            }
            CtrlKind::Jump | CtrlKind::None => {}
        }
    }

    /// One instruction through the full pipeline model. `counting` gates
    /// every statistics update; machine state advances identically either
    /// way (the timed-warmup path is exactly this with `counting` off).
    fn step(
        &mut self,
        rp: &RProgram,
        cfg: &OooConfig,
        ev: &StepEvent,
        counting: bool,
        stats: &mut OooStats,
    ) {
        // Indices are valid: both sources bounds-check before emitting.
        let inst = &rp.funcs[ev.func as usize].insts[ev.idx as usize];
        if counting {
            stats.insts += 1;
        }

        // Fetch bandwidth.
        if self.fetched_this_cycle >= cfg.fetch_width {
            self.fetch_cycle += 1;
            self.fetched_this_cycle = 0;
        }
        // ROB window: can't fetch past a full window.
        let slot = (self.idx as usize) % cfg.rob;
        if self.retire_ring[slot] > self.fetch_cycle {
            self.fetch_cycle = self.retire_ring[slot];
            self.fetched_this_cycle = 0;
        }
        let fetch_t = self.fetch_cycle;
        self.fetched_this_cycle += 1;

        // Operand readiness.
        let mut ready = fetch_t + cfg.frontend;
        for r in inst.reads() {
            ready = ready.max(self.reg_ready[r.0 as usize]);
        }
        let mut issue_t = self.issue.take(ready);
        // Structural ports: memory and FP pipes are narrower than the
        // overall issue width on all three reference machines.
        match ev.cat {
            RCat::Load | RCat::Store => issue_t = self.mem_ports.take(issue_t),
            RCat::Fp => issue_t = self.fp_ports.take(issue_t),
            _ => {}
        }
        // DRAM portion of this instruction's latency (for the smoothed
        // accounting clock: it is excluded from the issue-side horizon).
        let mut dram_lat: u64 = 0;
        let lat = match ev.cat {
            RCat::Alu => 1,
            RCat::MulDiv => {
                if matches!(
                    inst,
                    trips_risc::RInst::Alu {
                        op: trips_ir::Opcode::Div
                            | trips_ir::Opcode::Udiv
                            | trips_ir::Opcode::Rem
                            | trips_ir::Opcode::Urem,
                        ..
                    }
                ) {
                    cfg.div_lat
                } else {
                    cfg.mul_lat
                }
            }
            RCat::Fp => cfg.fp_lat,
            RCat::Control => 1,
            RCat::Load | RCat::Store => {
                let addr = ev.mem.map(|(a, _)| a).unwrap_or(0);
                if counting {
                    stats.l1_accesses += 1;
                }
                if self.l1.access(addr) {
                    cfg.l1_lat
                } else {
                    if counting {
                        stats.l1_misses += 1;
                    }
                    if self.l2.access(addr) {
                        cfg.l1_lat + cfg.l2_lat
                    } else {
                        if counting {
                            stats.l2_misses += 1;
                        }
                        dram_lat = cfg.mem_lat;
                        cfg.l1_lat + cfg.l2_lat + cfg.mem_lat
                    }
                }
            }
        };
        let done = issue_t + lat;
        if let Some(d) = inst.writes() {
            self.reg_ready[d.0 as usize] = done;
        }

        // Control flow.
        match ev.ctrl_kind {
            CtrlKind::Cond => {
                if counting {
                    stats.branches += 1;
                }
                let taken = ev.cond.unwrap_or(false);
                let pc_hash = (ev.func << 16) ^ ev.idx;
                let predicted = self.pred.branch(pc_hash, taken);
                if predicted != taken {
                    if counting {
                        stats.br_mispredicts += 1;
                    }
                    self.fetch_cycle = self.fetch_cycle.max(done + cfg.br_penalty);
                    self.fetched_this_cycle = 0;
                }
            }
            CtrlKind::Call => {
                self.pred.call((ev.func, ev.idx + 1));
            }
            CtrlKind::Ret => {
                if let Some(t) = ev.transfer {
                    if !self.pred.ret(t) {
                        if counting {
                            stats.ras_mispredicts += 1;
                        }
                        self.fetch_cycle = self.fetch_cycle.max(done + cfg.br_penalty);
                        self.fetched_this_cycle = 0;
                    }
                }
            }
            CtrlKind::Jump | CtrlKind::None => {}
        }

        // In-order retirement.
        let retire = done.max(self.last_retire);
        self.last_retire = retire;
        self.retire_ring[slot] = retire;
        stats.cycles = stats.cycles.max(retire);
        // Issue-side completion horizon: the DRAM tail of a miss stays
        // out until some later instruction's issue time absorbs it.
        self.acct = self.acct.max(done - dram_lat);
        self.idx += 1;
    }

    fn snapshot(&self, unit: u64, cursor: CursorState) -> OooSnapshot {
        // Port/issue counts ~1M cycles behind the clock can never be
        // probed again; keep them out of the snapshot (the tracker's own
        // opportunistic pruning already assumes 1024-cycle recency). The
        // anchor is the most conservative of the machine's clocks.
        let horizon = self
            .acct
            .min(self.fetch_cycle)
            .min(self.last_retire)
            .saturating_sub(1 << 20);
        OooSnapshot {
            unit,
            cursor,
            l1: self.l1.snapshot(),
            l2: self.l2.snapshot(),
            pred: self.pred.snapshot(),
            horizon,
            issue: self.issue.snapshot(horizon),
            mem_ports: self.mem_ports.snapshot(horizon),
            fp_ports: self.fp_ports.snapshot(horizon),
            reg_ready: self.reg_ready,
            fetch_cycle: self.fetch_cycle,
            fetched_this_cycle: self.fetched_this_cycle,
            retire_ring: self.retire_ring.clone(),
            last_retire: self.last_retire,
            acct: self.acct,
            idx: self.idx,
        }
    }

    /// Builds a machine in exactly the captured state, validating that the
    /// snapshot fits `cfg`'s geometry (a live-point only fits the
    /// configuration that captured it).
    fn restore(cfg: &OooConfig, s: &OooSnapshot) -> Result<OooState, String> {
        let mut st = OooState::new(cfg);
        if st.retire_ring.len() != s.retire_ring.len() {
            return Err("live-point ROB depth does not match this config".into());
        }
        st.l1.restore(&s.l1)?;
        st.l2.restore(&s.l2)?;
        st.pred.restore(&s.pred)?;
        st.issue.restore(s.horizon, &s.issue)?;
        st.mem_ports.restore(s.horizon, &s.mem_ports)?;
        st.fp_ports.restore(s.horizon, &s.fp_ports)?;
        st.reg_ready = s.reg_ready;
        st.fetch_cycle = s.fetch_cycle;
        st.fetched_this_cycle = s.fetched_this_cycle;
        st.retire_ring.clone_from(&s.retire_ring);
        st.last_retire = s.last_retire;
        st.acct = s.acct;
        st.idx = s.idx;
        Ok(st)
    }
}

/// Runs `rp` on the configured reference machine, driving the timing model
/// from a live functional execution.
///
/// # Errors
/// Propagates functional execution errors ([`RiscError`]).
pub fn run_timed(
    rp: &RProgram,
    ir: &Program,
    cfg: &OooConfig,
    mem_size: usize,
    step_limit: u64,
) -> Result<OooResult, RiscError> {
    let mut src = MachineSource::new(rp, ir, mem_size, step_limit);
    drive(rp, cfg, &mut src, None, |_, _, _| {})
}

/// Times a recorded RISC event stream on the configured reference machine:
/// the sweep's hot path — one functional execution, N of these.
///
/// The resulting [`OooStats`] are bit-identical to [`run_timed`] over the
/// same program, because both sources feed the same replay driver.
///
/// # Errors
/// [`RiscError::Trace`] if the stream is malformed or disagrees with `rp`
/// (callers holding a store-loaded trace should `validate` it first).
pub fn run_timed_trace(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
) -> Result<OooResult, RiscError> {
    run_timed_trace_mode(rp, trace, cfg, &ReplayMode::Full)
}

/// [`run_timed_trace`] under an explicit [`ReplayMode`] — the sampled
/// sweep's hot path.
///
/// `Full` (and any plan that measures everything) is the bit-exact
/// detailed path. A sampling plan alternates three per-instruction paths
/// over the stream: *warm* (the fast-forward path — the source advances
/// and only the caches and branch predictor observe the instruction),
/// *timed warmup* (the full pipeline model runs but its counters are
/// discarded, so each measurement window starts with plausible in-flight
/// state instead of an idle machine), and *measure* (the full model,
/// counted). Cycles are accumulated per measurement window and
/// extrapolated over the stream ([`OooStats::est_cycles`]).
///
/// # Errors
/// See [`run_timed_trace`]; also a phase plan fitted to another stream.
pub fn run_timed_trace_mode(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    mode: &ReplayMode,
) -> Result<OooResult, RiscError> {
    let sched = mode
        .schedule(trace.header.dynamic_insts)
        .map_err(RiscError::Trace)?;
    drive(rp, cfg, &mut trace.cursor(rp), sched, |_, _, _| {})
}

/// The replay driver every sequential entry point shares: walks `src`
/// through the optional schedule (`None` times every instruction in
/// detail), calling `at_unit` with the machine before each stream unit —
/// the live-point capture hook.
fn drive<S: EventSource>(
    rp: &RProgram,
    cfg: &OooConfig,
    src: &mut S,
    mut sched: Option<Schedule>,
    mut at_unit: impl FnMut(u64, &OooState, &S),
) -> Result<OooResult, RiscError> {
    let mut total: u64 = 0;
    let mut stats = OooStats::default();
    let mut st = OooState::new(cfg);
    // The sampled paths meter windows on `st.acct`, a smoothed accounting
    // clock, instead of the raw retirement clock. `last_retire` jumps by
    // a full DRAM latency the moment a missing load is processed, even
    // when nothing in the window ever waits on the data — in full replay
    // that in-flight latency overlaps the execution of later (here:
    // unmeasured) instructions, so charging it to the window that
    // happened to be open when retirement landed is what made short OoO
    // windows noisy (per-workload error bounded at ~±4%). `acct` instead
    // advances to each instruction's *issue-side* completion horizon —
    // the DRAM component of a miss only enters the clock once a
    // dependent's operand wait, a full ROB, or an in-order fetch stall
    // actually propagates it into some instruction's issue time — so
    // spillover cycles stay attributed to the window that issued the miss
    // and windows that merely inherit an in-flight tail are not charged
    // for it. Full replay never consults `acct`, so the bit-exact path is
    // untouched.
    //
    // Per-row cost segments are timed on phase transitions only: when a
    // sweep cost scope is active this is one enum compare per event,
    // otherwise a single predictable branch (see trips_obs::SegmentTimer).
    let replay_start = std::time::Instant::now();
    let mut seg = trips_obs::SegmentTimer::new();
    loop {
        at_unit(total, &st, src);
        let Some(ev) = src.next_event()? else {
            break;
        };
        total += 1;
        let phase = sched
            .as_mut()
            .map_or(Phase::Detailed, |s| s.advance(st.acct));
        match phase {
            Phase::Warm => {
                seg.switch(trips_obs::CostKind::Warm);
                st.warm(&ev);
            }
            // TimedWarm runs the full pipeline model with its counters
            // discarded, refilling in-flight state so the next window
            // measures a busy machine.
            Phase::TimedWarm => {
                seg.switch(trips_obs::CostKind::Warm);
                st.step(rp, cfg, &ev, false, &mut stats);
            }
            Phase::Detailed => {
                seg.switch(trips_obs::CostKind::Detailed);
                st.step(rp, cfg, &ev, true, &mut stats);
            }
        }
    }
    seg.finish();
    // Per-backend replay throughput telemetry: O(1) per replay call.
    trips_obs::counter("replay_events_total{core=\"ooo\"}").inc(total);
    let elapsed_ns = replay_start.elapsed().as_nanos() as u64;
    if elapsed_ns > 0 && total > 0 {
        trips_obs::histogram("replay_events_per_sec{core=\"ooo\"}")
            .observe(total.saturating_mul(1_000_000_000) / elapsed_ns);
    }
    if let Some(sched) = sched {
        let timed = trips_obs::cost::Timed::start(trips_obs::CostKind::Extrapolate);
        let summary = sched.finish(st.acct);
        drop(timed);
        stats.apply_summary(&summary);
    } else {
        stats.total_insts = total;
        stats.est_cycles = stats.cycles;
    }
    Ok(OooResult {
        return_value: src.return_value(),
        stats,
    })
}

/// One restored window's measurement: the inputs the phased-estimate
/// assembly needs from each parallel replay job.
#[derive(Debug, Clone)]
pub struct OooWindowMeasure {
    /// Accounting-clock cycles the detailed span took.
    pub cycles: u64,
    /// Detailed units measured (`window.detailed_units()`).
    pub units: u64,
    /// Counters accumulated over the detailed span only.
    pub stats: OooStats,
}

/// Sequential phased replay that additionally captures a live-point at
/// every window's `warm_start` boundary — machine state plus trace-cursor
/// position — so later sweeps can [`replay_ooo_window`] each window
/// independently. The returned result is bit-identical to
/// [`run_timed_trace_mode`] under the same plan.
///
/// # Errors
/// [`RiscError::Trace`] on a malformed stream, or if `plan` covers the
/// whole stream (nothing is fast-forwarded, so checkpoints buy nothing —
/// callers should use the plain replay path).
pub fn run_ooo_phased_capture(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    plan: &PhasePlan,
) -> Result<(OooResult, Vec<OooSnapshot>), RiscError> {
    let mode = ReplayMode::Phased(plan.clone());
    let Some(sched) = mode
        .schedule(trace.header.dynamic_insts)
        .map_err(RiscError::Trace)?
    else {
        return Err(RiscError::Trace(
            "phase plan covers everything: no warmed prefix to checkpoint".into(),
        ));
    };
    let mut snaps: Vec<OooSnapshot> = Vec::with_capacity(plan.windows.len());
    let mut cursor = trace.cursor(rp);
    let res = drive(rp, cfg, &mut cursor, Some(sched), |unit, st, src| {
        if plan.windows.get(snaps.len()).map(|w| w.warm_start) == Some(unit) {
            let _timed = trips_obs::cost::Timed::start(trips_obs::CostKind::CheckpointSave);
            snaps.push(st.snapshot(unit, src.state()));
        }
    })?;
    debug_assert_eq!(snaps.len(), plan.windows.len());
    Ok((res, snaps))
}

/// Replays one phase window from its live-point: restore, run the
/// timed-warmup span with counters discarded, then measure the detailed
/// span — bit-identical to the same span inside a sequential phased
/// replay, with no dependence on the stream prefix.
///
/// # Errors
/// [`RiscError::Trace`] if the snapshot does not belong to this window's
/// boundary or config, or the stream ends inside the window.
pub fn replay_ooo_window(
    rp: &RProgram,
    trace: &RiscTrace,
    cfg: &OooConfig,
    window: &PhaseWindow,
    snap: &OooSnapshot,
) -> Result<OooWindowMeasure, RiscError> {
    if snap.unit != window.warm_start {
        return Err(RiscError::Trace(format!(
            "live-point at unit {} cannot seed a window warming from {}",
            snap.unit, window.warm_start
        )));
    }
    if window.end > trace.header.dynamic_insts {
        return Err(RiscError::Trace(format!(
            "window end {} past stream extent {}",
            window.end, trace.header.dynamic_insts
        )));
    }
    let timed = trips_obs::cost::Timed::start(trips_obs::CostKind::CheckpointRestore);
    let mut st = OooState::restore(cfg, snap).map_err(RiscError::Trace)?;
    let mut cursor = trace.cursor_at(rp, &snap.cursor);
    drop(timed);
    let mut stats = OooStats::default();
    let mut seg = trips_obs::SegmentTimer::new();
    let ended = || RiscError::Trace("stream ended inside a live-point window".into());
    for _ in window.warm_start..window.detail_start {
        seg.switch(trips_obs::CostKind::Warm);
        let ev = cursor.next_event()?.ok_or_else(ended)?;
        st.step(rp, cfg, &ev, false, &mut stats);
    }
    let mark = st.acct;
    for _ in window.detail_start..window.end {
        seg.switch(trips_obs::CostKind::Detailed);
        let ev = cursor.next_event()?.ok_or_else(ended)?;
        st.step(rp, cfg, &ev, true, &mut stats);
    }
    seg.finish();
    trips_obs::counter("replay_events_total{core=\"ooo\"}").inc(window.end - window.warm_start);
    Ok(OooWindowMeasure {
        cycles: st.acct - mark,
        units: window.detailed_units(),
        stats,
    })
}

/// Folds independently measured windows into the whole-run result a
/// sequential phased replay would have produced: counters sum field-wise,
/// and the cycle estimate comes from the same weighted extrapolation the
/// sequential sampler computes ([`trips_sample::assemble_phased`]).
///
/// # Errors
/// [`RiscError::Trace`] if the measurement count does not match the plan.
pub fn assemble_ooo_phased(
    trace: &RiscTrace,
    plan: &PhasePlan,
    windows: &[OooWindowMeasure],
) -> Result<OooResult, RiscError> {
    let timed = trips_obs::cost::Timed::start(trips_obs::CostKind::Extrapolate);
    let measured: Vec<(u64, u64)> = windows.iter().map(|m| (m.cycles, m.units)).collect();
    let summary = trips_sample::assemble_phased(plan, &measured).map_err(RiscError::Trace)?;
    let mut stats = OooStats::default();
    for m in windows {
        stats.absorb_measured(&m.stats);
    }
    stats.apply_summary(&summary);
    drop(timed);
    Ok(OooResult {
        return_value: trace.return_value,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs;
    use proptest::prelude::*;
    use trips_ir::{IntCc, Operand, ProgramBuilder};
    use trips_risc::compile_program;

    fn sum_program(n: i64) -> Program {
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
    fn result_matches_functional() {
        let p = sum_program(500);
        let rp = compile_program(&p).unwrap();
        let r = run_timed(&rp, &p, &configs::core2(), 1 << 20, 100_000_000).unwrap();
        assert_eq!(r.return_value, (0..500).sum::<i64>() as u64);
        assert!(r.stats.cycles > 0);
        assert!(r.stats.ipc() > 0.2 && r.stats.ipc() <= 4.0);
    }

    #[test]
    fn core2_beats_pentium3_on_loops() {
        let p = sum_program(5000);
        let rp = compile_program(&p).unwrap();
        let c2 = run_timed(&rp, &p, &configs::core2(), 1 << 20, 1_000_000_000).unwrap();
        let p3 = run_timed(&rp, &p, &configs::pentium3(), 1 << 20, 1_000_000_000).unwrap();
        assert!(
            c2.stats.cycles < p3.stats.cycles,
            "Core2 {} !< P3 {}",
            c2.stats.cycles,
            p3.stats.cycles
        );
    }

    #[test]
    fn branchy_code_hurts_pentium4_more() {
        // Data-dependent branch pattern (pseudo-random) stresses prediction.
        let mut pb = ProgramBuilder::new();
        let mut f = pb.func("main", 0);
        let e = f.entry();
        let body = f.block();
        let t = f.block();
        let fl = f.block();
        let cont = f.block();
        let done = f.block();
        f.switch_to(e);
        let acc = f.iconst(0);
        let x = f.iconst(12345);
        let i = f.iconst(0);
        f.jump(body);
        f.switch_to(body);
        // x = x * 1103515245 + 12345 (LCG); branch on bit 12.
        f.ibin_to(trips_ir::Opcode::Mul, x, x, 1103515245i64);
        f.ibin_to(trips_ir::Opcode::Add, x, x, 12345i64);
        let bit = f.shr(x, 12i64);
        let odd = f.and(bit, 1i64);
        f.branch(odd, t, fl);
        f.switch_to(t);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, 3i64);
        f.jump(cont);
        f.switch_to(fl);
        f.ibin_to(trips_ir::Opcode::Add, acc, acc, 1i64);
        f.jump(cont);
        f.switch_to(cont);
        f.ibin_to(trips_ir::Opcode::Add, i, i, 1i64);
        let c = f.icmp(IntCc::Lt, i, 3000i64);
        f.branch(c, body, done);
        f.switch_to(done);
        f.ret(Some(Operand::reg(acc)));
        f.finish();
        let p = pb.finish("main").unwrap();
        let rp = compile_program(&p).unwrap();
        let c2 = run_timed(&rp, &p, &configs::core2(), 1 << 20, 1_000_000_000).unwrap();
        let p4 = run_timed(&rp, &p, &configs::pentium4(), 1 << 20, 1_000_000_000).unwrap();
        assert_eq!(c2.return_value, p4.return_value);
        assert!(p4.stats.cycles > c2.stats.cycles);
        assert!(p4.stats.br_mispredicts > 0);
    }

    #[test]
    fn covering_sample_plan_is_bit_identical_to_full_replay() {
        let p = sum_program(1200);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = trips_sample::SamplePlan::new(0, 9, 9).unwrap();
        for cfg in [configs::core2(), configs::pentium4(), configs::pentium3()] {
            let full = run_timed_trace(&rp, &trace, &cfg).unwrap();
            let covered =
                run_timed_trace_mode(&rp, &trace, &cfg, &ReplayMode::Sampled(plan)).unwrap();
            assert_eq!(covered.stats, full.stats, "{}", cfg.name);
            assert!(!covered.stats.sampled);
            assert_eq!(full.stats.est_cycles, full.stats.cycles);
            assert_eq!(full.stats.total_insts, full.stats.insts);
        }
    }

    #[test]
    fn sampled_replay_times_a_fraction_and_extrapolates() {
        let p = sum_program(20_000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let cfg = configs::core2();
        let full = run_timed_trace(&rp, &trace, &cfg).unwrap().stats;
        let plan = trips_sample::SamplePlan::new(64, 64, 256).unwrap();
        let s = run_timed_trace_mode(&rp, &trace, &cfg, &ReplayMode::Sampled(plan))
            .unwrap()
            .stats;
        assert!(s.sampled);
        assert_eq!(s.total_insts, trace.header.dynamic_insts);
        assert!(
            s.insts * 3 < s.total_insts,
            "a 1/4-detail plan must time a minority: {}/{}",
            s.insts,
            s.total_insts
        );
        let rel = (s.est_cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(
            rel < 0.10,
            "extrapolation off by {:.1}% (est {} vs full {})",
            rel * 100.0,
            s.est_cycles,
            full.cycles
        );
    }

    /// A hand-built phase plan over a stream of `total` units: boundary
    /// windows plus one weighted interior representative.
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
        let p = sum_program(6000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        for cfg in [configs::core2(), configs::pentium4(), configs::pentium3()] {
            let sequential =
                run_timed_trace_mode(&rp, &trace, &cfg, &ReplayMode::Phased(plan.clone())).unwrap();
            let (captured, snaps) = run_ooo_phased_capture(&rp, &trace, &cfg, &plan).unwrap();
            assert_eq!(
                captured.stats, sequential.stats,
                "{}: capture pass must match the plain phased replay",
                cfg.name
            );
            assert_eq!(snaps.len(), plan.windows.len());
            // Snapshots round-trip through bytes (the store's discipline).
            let measures: Vec<OooWindowMeasure> = plan
                .windows
                .iter()
                .zip(&snaps)
                .map(|(w, s)| {
                    let bytes = serde::bin::to_bytes(s);
                    let back: OooSnapshot = serde::bin::from_bytes(&bytes).unwrap();
                    assert_eq!(&back, s);
                    replay_ooo_window(&rp, &trace, &cfg, w, &back).unwrap()
                })
                .collect();
            let assembled = assemble_ooo_phased(&trace, &plan, &measures).unwrap();
            assert_eq!(
                assembled.stats, sequential.stats,
                "{}: restore-then-replay must match fast-forward-then-replay",
                cfg.name
            );
            assert_eq!(assembled.return_value, sequential.return_value);
        }
    }

    /// A live-point image after the trip through bytes a store makes.
    fn through_bytes<T: Serialize + serde::DeserializeOwned>(t: &T) -> T {
        serde::bin::from_bytes(&serde::bin::to_bytes(t)).unwrap()
    }

    /// One predictor event — a call, a return or a conditional branch —
    /// and what the predictor got right (a call predicts nothing).
    fn predict(p: &mut Predictor, (kind, pc, taken): (u8, u32, bool)) -> bool {
        match kind {
            0 => {
                p.call((pc, pc + 1));
                false
            }
            1 => p.ret((pc, pc + 1)),
            _ => p.branch(pc, taken),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Tag arrays, predictor and issue slots restored from their
        /// sparse images — into components that have already run other
        /// streams — behave exactly as the originals for the rest of a
        /// random sequence: the same hits, predictions and granted
        /// cycles, step by step. The slot sequence crosses the 4096-entry
        /// prune; its horizon never cuts a count.
        #[test]
        fn components_resume_exactly_from_their_images(
            ops in prop::collection::vec((0u8..4, 0u32..512, any::<bool>(), 0u64..40), 9000..10000),
            split in 0usize..5000,
            below in 0u64..3000,
        ) {
            let mut cache = Cache::new(8192, 4, 64);
            let mut pred = Predictor::new(256, 4);
            let mut slots = IssueSlots::new(2);
            let mut resumed: Option<(Cache, Predictor, IssueSlots)> = None;
            let mut pruned_after_split = false;
            for (step, &(kind, pc, taken, jitter)) in ops.iter().enumerate() {
                let addr = u64::from(pc) * 64 + jitter;
                let earliest = step as u64 + jitter;
                if step == split {
                    let mut c = Cache::new(8192, 4, 64);
                    let mut p = Predictor::new(256, 4);
                    let mut s = IssueSlots::new(2);
                    for i in 0..300u32 {
                        c.access(u64::from(i) * 4160);
                        predict(&mut p, ((i % 3) as u8, i * 7, i % 2 == 0));
                        s.take(u64::from(i) * 3);
                    }
                    c.restore(&through_bytes(&cache.snapshot())).unwrap();
                    p.restore(&through_bytes(&pred.snapshot())).unwrap();
                    let lowest = slots.counts.keys().min().copied().unwrap_or(0);
                    let horizon = lowest.saturating_sub(below);
                    s.restore(horizon, &through_bytes(&slots.snapshot(horizon))).unwrap();
                    prop_assert_eq!(s.snapshot(0), slots.snapshot(0));
                    resumed = Some((c, p, s));
                }
                let hit = cache.access(addr);
                let guess = predict(&mut pred, (kind, pc, taken));
                let len = slots.counts.len();
                let granted = slots.take(earliest);
                if let Some((c, p, s)) = resumed.as_mut() {
                    prop_assert_eq!(c.access(addr), hit, "cache, step {}", step);
                    prop_assert_eq!(predict(p, (kind, pc, taken)), guess, "predictor, step {}", step);
                    prop_assert_eq!(s.take(earliest), granted, "slots, step {}", step);
                    pruned_after_split |= slots.counts.len() < len;
                }
            }
            let (c, p, s) = resumed.expect("split lies inside the run");
            prop_assert_eq!(c.snapshot(), cache.snapshot());
            prop_assert_eq!(p.snapshot(), pred.snapshot());
            prop_assert_eq!(s.snapshot(0), slots.snapshot(0));
            prop_assert!(pruned_after_split);
        }
    }

    #[test]
    fn livepoint_restore_rejects_malformed_images() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        let cfg = configs::core2();
        let (_, snaps) = run_ooo_phased_capture(&rp, &trace, &cfg, &plan).unwrap();
        let good = snaps[2].clone();
        let mut bad: Vec<(&str, OooSnapshot)> = Vec::new();
        let mut s = good.clone();
        s.l1 = Cache::new(cfg.l1_bytes * 2, 4, cfg.line).snapshot();
        bad.push(("L1 geometry", s));
        let mut s = good.clone();
        s.pred.bim.push((u32::MAX, 0));
        bad.push(("predictor entry out of range", s));
        let mut s = good.clone();
        s.pred.gsh = vec![(8, 0), (3, 3)];
        bad.push(("predictor entries unsorted", s));
        let mut s = good.clone();
        s.pred.chooser = vec![(8, 0), (8, 3)];
        bad.push(("predictor entry repeated", s));
        let mut s = good.clone();
        s.pred.ras = vec![(0, 0); cfg.ras_depth + 1];
        bad.push(("return stack too deep", s));
        let mut s = good.clone();
        s.issue.1.push(1);
        bad.push(("issue counts without cycles", s));
        let mut s = good.clone();
        s.horizon = u64::MAX;
        s.mem_ports = (vec![0, 0], vec![1, 1]);
        bad.push(("port cycles overflow", s));
        for (what, s) in &bad {
            assert!(OooState::restore(&cfg, s).is_err(), "{what}");
            assert!(
                replay_ooo_window(&rp, &trace, &cfg, &plan.windows[2], s).is_err(),
                "{what}"
            );
        }
        // Flipped bytes either fail to decode or restore to Ok or Err; no
        // image panics the restore.
        let bytes = serde::bin::to_bytes(&good);
        for i in (0..bytes.len()).step_by(bytes.len() / 500 + 1) {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut b = bytes.clone();
                b[i] ^= flip;
                if let Ok(s) = serde::bin::from_bytes::<OooSnapshot>(&b) {
                    let _ = OooState::restore(&cfg, &s);
                }
            }
        }
    }

    #[test]
    fn livepoint_window_rejects_a_foreign_snapshot() {
        let p = sum_program(3000);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        let plan = handmade_plan(trace.header.dynamic_insts);
        let (_, snaps) = run_ooo_phased_capture(&rp, &trace, &configs::core2(), &plan).unwrap();
        // Wrong boundary.
        assert!(
            replay_ooo_window(&rp, &trace, &configs::core2(), &plan.windows[1], &snaps[0]).is_err()
        );
        // Wrong machine geometry (snapshot captured under Core2).
        assert!(replay_ooo_window(
            &rp,
            &trace,
            &configs::pentium3(),
            &plan.windows[1],
            &snaps[1]
        )
        .is_err());
        // Wrong measurement count.
        assert!(assemble_ooo_phased(&trace, &plan, &[]).is_err());
    }

    #[test]
    fn trace_replay_is_bit_identical_to_direct_timing() {
        let p = sum_program(800);
        let rp = compile_program(&p).unwrap();
        let trace = trips_risc::RiscTrace::capture(
            &rp,
            &p,
            1 << 20,
            100_000_000,
            trips_risc::RiscTraceMeta::default(),
        )
        .unwrap();
        for cfg in [configs::core2(), configs::pentium4(), configs::pentium3()] {
            let direct = run_timed(&rp, &p, &cfg, 1 << 20, 100_000_000).unwrap();
            let replayed = run_timed_trace(&rp, &trace, &cfg).unwrap();
            assert_eq!(replayed.return_value, direct.return_value, "{}", cfg.name);
            assert_eq!(replayed.stats, direct.stats, "{}", cfg.name);
        }
    }
}
