//! The memoizing artifact store behind every sweep and experiment.
//!
//! The in-memory tiers, all keyed on provenance rather than content:
//!
//! * compiled TRIPS programs: `(workload, scale, options-signature, hand)`;
//! * captured TRIPS trace logs: the compile key plus `(memory size, block
//!   budget)`;
//! * functional ISA outcomes (same key, no stream retained);
//! * compiled RISC programs: the compile key (reference backends);
//! * captured RISC event streams ([`trips_risc::RiscTrace`]): the compile
//!   key plus `(memory size, instruction budget)` — one functional RISC
//!   execution serves the instruction-count figures *and* every
//!   out-of-order timing configuration
//!   ([`Session::ooo_replayed`]);
//! * replayed timing results on both backends: the trace key plus a
//!   configuration signature **and the normalized replay mode** (full,
//!   [`trips_sample::SamplePlan`], or fitted
//!   [`trips_sample::PhasePlan`]), so full, sampled and phased
//!   measurements of the same point are distinct artifacts and can never
//!   alias (a plan that times everything is normalized to the full key,
//!   because its result is bit-identical by construction);
//! * fitted phase plans ([`Session::trips_phase_plan`] /
//!   [`Session::ooo_phase_plan`]): the stream key plus the
//!   [`trips_phase::PhaseSpec`], so BBV extraction and k-means run once
//!   per process (and, with a store, once per *store* — artifacts persist
//!   as a third container kind keyed off the parent trace);
//! * live-point checkpoint sets ([`Session::set_live_points`]): the
//!   parent stream key plus the fitted plan's signature, the timing
//!   configuration's signature and the core discriminant. When the tier
//!   is enabled, a phased replay whose plan skips work first resolves
//!   its checkpoint set (memo → store → one capture pass that *is* the
//!   sequential replay), then serves every later request by restoring
//!   each window's warmed state and replaying only the measured windows
//!   — as independent jobs on the work-stealing pool
//!   ([`crate::pool::parallel_map`]), so one long stream replays in
//!   parallel and a warm store serves any sweep point with zero
//!   stream-prefix replay. Restored window replay is bit-identical to
//!   fast-forward-then-replay on every backend (enforced by tests in
//!   both timing crates).
//!
//! Entries hold an `Arc<OnceLock<...>>`, so the map's mutex is held only for
//! the key lookup; the (expensive) compile or functional capture runs
//! outside it, and concurrent requests for the same key block on the single
//! in-flight computation instead of duplicating work. Failures are cached
//! too — a workload that cannot compile fails every request identically
//! instead of being retried by each sweep point.
//!
//! A content-addressed [`TraceStore`] directory (see
//! [`Session::with_store`]) persists four of these kinds across processes:
//! TRIPS traces, RISC streams, fitted phase artifacts and live-point sets.
//! Each of the four is one disk tier behind one path
//! ([`Session`]'s `resolve`): on an in-memory miss a verified stored
//! container stands in for the capture (or fit), fresh ones are written
//! back, so process B replays what process A captured. A loaded payload
//! must also pass a deep check against what it will serve — e.g.
//! [`TraceLog::validate`](trips_isa::TraceLog::validate) against the
//! compiled program — so even a hash-valid but stale file can never drive
//! the timing model out of bounds; it is quarantined and recaptured
//! instead. Each tier counts its events in its own `session_*` series
//! (`session_disk_hits`, `session_risc_disk_hits`, `session_phase_…`,
//! `session_livepoint_…`), mirrored field for field in [`CacheStats`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use trips_compiler::{CompileOptions, CompiledProgram};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_workloads::{Scale, Workload};

use crate::store::{
    plan_sig, BbvId, ContainerId, LivePointId, LivePointSet, LivePointStates, LoadOutcome,
    RiscTraceId, TraceStore, KIND_BLOCK_TRACE, KIND_RISC_TRACE,
};
use trips_phase::{PhaseArtifact, PhaseSpec};
use trips_risc::{RiscTrace, RiscTraceMeta};
use trips_sample::{PhasePlan, ReplayMode, SamplePlan};

/// Engine failures (compile and functional-execution errors are carried as
/// rendered strings so they can live in the cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The workload name is not in the registry.
    UnknownWorkload(String),
    /// The TRIPS compiler rejected the program.
    Compile(String),
    /// The functional capture failed (including budget exhaustion).
    Capture(String),
    /// Trace replay was rejected (header/index mismatch).
    Replay(String),
    /// A malformed sweep specification.
    Spec(String),
    /// A failure that is *not* a property of the inputs — an injected
    /// chaos fault, a disk having a moment — and may well succeed on
    /// retry. Unlike every other variant, transient failures are evicted
    /// from the memo instead of cached, so the sweep layer's retries can
    /// re-resolve the artifact.
    Transient(String),
}

impl EngineError {
    /// True for failures a retry may fix (see [`EngineError::Transient`]).
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, EngineError::Transient(_))
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownWorkload(w) => write!(f, "unknown workload `{w}`"),
            EngineError::Compile(e) => write!(f, "compile failed: {e}"),
            EngineError::Capture(e) => write!(f, "trace capture failed: {e}"),
            EngineError::Replay(e) => write!(f, "trace replay failed: {e}"),
            EngineError::Spec(e) => write!(f, "bad sweep spec: {e}"),
            EngineError::Transient(e) => write!(f, "transient failure: {e}"),
        }
    }
}

impl Error for EngineError {}

/// The shared [`StableHasher`](trips_isa::hash::StableHasher) over a
/// value's debug rendering (options and configurations are plain scalars,
/// so the rendering is canonical).
fn debug_sig(value: &impl fmt::Debug) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(format!("{value:?}").as_bytes());
    h.finish()
}

/// A stable signature of a [`CompileOptions`] value.
pub fn opts_sig(opts: &CompileOptions) -> u64 {
    debug_sig(opts)
}

/// A program's code content signature: `code` plus the optimized IR it
/// executes against — functions, entry and data image (the data
/// segment's debug-only symbol table is deliberately excluded — it lives
/// in a `HashMap`, whose serialization order is not stable).
fn program_sig(code: &impl serde::Serialize, ir: &trips_ir::Program) -> u64 {
    let mut h = trips_isa::hash::StableHasher::new();
    h.write(&serde::bin::to_bytes(code));
    h.write(&serde::bin::to_bytes(&ir.funcs));
    h.write(&serde::bin::to_bytes(&ir.entry));
    h.write(ir.data.image());
    h.finish()
}

/// A stable content signature of the code a capture would execute: the
/// TRIPS blocks plus the optimized IR. Folded into the trace store key so
/// that a compiler change retires every stale stored trace by itself,
/// without waiting for a `TRACE_VERSION` bump.
pub fn code_sig(compiled: &CompiledProgram) -> u64 {
    program_sig(&compiled.trips, &compiled.opt_ir)
}

/// The RISC-side counterpart of [`code_sig`]: the compiled RISC program
/// plus the optimized IR it executes against. Folded into the RISC
/// trace-store key so a codegen or optimizer change retires every stale
/// stored stream by itself.
pub fn risc_code_sig(art: &RiscArtifacts) -> u64 {
    program_sig(&art.program, &art.ir)
}

/// A stable signature of a [`trips_sim::TripsConfig`]. Keys the
/// memoized-replay tier alongside the sampling plan.
pub fn trips_cfg_sig(cfg: &trips_sim::TripsConfig) -> u64 {
    debug_sig(cfg)
}

/// The out-of-order counterpart of [`trips_cfg_sig`] (the platform name is
/// part of the rendering).
pub fn ooo_cfg_sig(cfg: &trips_ooo::OooConfig) -> u64 {
    debug_sig(cfg)
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CompileKey {
    workload: String,
    scale: &'static str,
    opts: u64,
    hand: bool,
}

impl CompileKey {
    fn new(w: &Workload, scale: Scale, opts: &CompileOptions, hand: bool) -> CompileKey {
        CompileKey {
            workload: w.name.to_string(),
            scale: match scale {
                Scale::Test => "test",
                Scale::Ref => "ref",
            },
            opts: opts_sig(opts),
            hand,
        }
    }
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct TraceKey {
    compile: CompileKey,
    mem: usize,
    budget: u64,
}

impl TraceKey {
    fn new(
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> TraceKey {
        TraceKey {
            compile: CompileKey::new(w, scale, opts, hand),
            mem,
            budget,
        }
    }

    /// The store identity of the TRIPS block trace this key names.
    fn trace_id(&self, compiled: &CompiledProgram) -> TraceId {
        TraceId {
            workload: self.compile.workload.clone(),
            scale: self.compile.scale.to_string(),
            opts_sig: self.compile.opts,
            hand: self.compile.hand,
            code_sig: code_sig(compiled),
            mem_size: self.mem as u64,
            max_blocks: self.budget,
        }
    }

    /// The store identity of the RISC event stream this key names.
    fn risc_trace_id(&self, art: &RiscArtifacts) -> RiscTraceId {
        RiscTraceId {
            workload: self.compile.workload.clone(),
            scale: self.compile.scale.to_string(),
            opts_sig: self.compile.opts,
            code_sig: risc_code_sig(art),
            mem_size: self.mem as u64,
            max_steps: self.budget,
        }
    }
}

/// The normalized replay-mode component of a [`ReplayKey`]: covering
/// plans of either kind collapse to `Full` before keying, so bit-identical
/// results share one entry and genuinely different modes never alias.
#[derive(Clone, PartialEq, Eq, Hash)]
enum ModeKey {
    Full,
    Sampled(SamplePlan),
    Phased(PhasePlan),
}

impl ModeKey {
    fn of(mode: &ReplayMode) -> ModeKey {
        if let Some(p) = mode.plan() {
            ModeKey::Sampled(*p)
        } else if let Some(p) = mode.phase() {
            ModeKey::Phased(p.clone())
        } else {
            ModeKey::Full
        }
    }
}

/// Key of one memoized timing replay: the trace identity, the timing
/// configuration, and the normalized replay mode (full, systematic plan,
/// or fitted phase plan).
#[derive(Clone, PartialEq, Eq, Hash)]
struct ReplayKey {
    trace: TraceKey,
    cfg: u64,
    mode: ModeKey,
}

/// Key of one memoized phase fit: the stream identity plus the fit
/// parameters (`risc` separates the two stream kinds, which share the
/// in-memory map).
#[derive(Clone, PartialEq, Eq, Hash)]
struct PhaseKey {
    trace: TraceKey,
    risc: bool,
    spec: PhaseSpec,
}

type Slot<T> = Arc<OnceLock<Result<Arc<T>, EngineError>>>;

/// Cache hit/miss counters (for the sweep report's summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct CacheStats {
    /// Compile requests served from cache.
    pub compile_hits: u64,
    /// Compiles actually performed.
    pub compile_misses: u64,
    /// Trace requests served from cache.
    pub trace_hits: u64,
    /// Functional captures actually performed.
    pub trace_misses: u64,
    /// ISA-stats requests served from cache.
    pub isa_hits: u64,
    /// Functional ISA runs actually performed.
    pub isa_misses: u64,
    /// RISC-program requests served from cache.
    pub risc_hits: u64,
    /// RISC compiles actually performed.
    pub risc_misses: u64,
    /// Functional captures actually executed (an in-memory trace miss that
    /// the disk tier could not serve either). Without a store this equals
    /// the trace misses that reached capture.
    pub captures: u64,
    /// Traces served from the on-disk store.
    pub disk_hits: u64,
    /// Store lookups that found no file.
    pub disk_misses: u64,
    /// Store files rejected (truncated/corrupt/stale) and recaptured.
    pub disk_rejects: u64,
    /// Fresh captures persisted to the store.
    pub store_writes: u64,
    /// RISC event-stream requests served from cache.
    pub rtrace_hits: u64,
    /// RISC event-stream requests that missed in memory.
    pub rtrace_misses: u64,
    /// Functional RISC executions actually performed (a miss the disk tier
    /// could not serve either): the number the warm-sweep CI job asserts
    /// is zero.
    pub risc_captures: u64,
    /// RISC streams served from the on-disk store.
    pub risc_disk_hits: u64,
    /// RISC store lookups that found no file.
    pub risc_disk_misses: u64,
    /// RISC store files rejected and recaptured.
    pub risc_disk_rejects: u64,
    /// Fresh RISC captures persisted to the store.
    pub risc_store_writes: u64,
    /// Phase-plan requests served from the memoized-fit tier.
    pub phase_hits: u64,
    /// Phase-plan requests that missed in memory.
    pub phase_misses: u64,
    /// Clusterings actually performed (a miss the disk tier could not
    /// serve either): the number the warm-store gate asserts is zero.
    pub phase_fits: u64,
    /// Fitted plans served from the on-disk store.
    pub phase_disk_hits: u64,
    /// BBV store lookups that found no file.
    pub phase_disk_misses: u64,
    /// BBV store files rejected (corrupt or fitted to a different stream)
    /// and re-clustered.
    pub phase_disk_rejects: u64,
    /// Fresh fits persisted to the store.
    pub phase_store_writes: u64,
    /// Live-point set requests served from the in-memory tier.
    pub livepoint_hits: u64,
    /// Live-point set requests that missed in memory.
    pub livepoint_misses: u64,
    /// Checkpoint-capture passes actually run (a miss the disk tier could
    /// not serve either): the number the warm-sweep CI gate asserts is
    /// zero on a second pass.
    pub livepoint_captures: u64,
    /// Live-point sets served from the on-disk store.
    pub livepoint_disk_hits: u64,
    /// Live-point store lookups that found no file.
    pub livepoint_disk_misses: u64,
    /// Live-point store files rejected (corrupt, foreign identity, or the
    /// wrong shape for the plan) and recaptured.
    pub livepoint_disk_rejects: u64,
    /// Fresh checkpoint sets persisted to the store.
    pub livepoint_store_writes: u64,
    /// TRIPS timing replays served from the memoized-result tier.
    pub replay_hits: u64,
    /// TRIPS timing replays actually performed.
    pub replay_misses: u64,
    /// OoO timing replays served from the memoized-result tier.
    pub ooo_replay_hits: u64,
    /// OoO timing replays actually performed.
    pub ooo_replay_misses: u64,
    /// Trace-tier store lookups that failed with a read I/O error (after
    /// the store's own retries). Unlike a reject, the file was *not*
    /// proven bad; unlike a miss, the disk is flaky — counted apart so
    /// neither signal hides the other.
    pub disk_io_errors: u64,
    /// RISC-tier store lookups that failed with a read I/O error.
    pub risc_disk_io_errors: u64,
    /// Phase-tier store lookups that failed with a read I/O error.
    pub phase_disk_io_errors: u64,
    /// Live-point-tier store lookups that failed with a read I/O error.
    pub livepoint_disk_io_errors: u64,
    /// Requests that skipped the disk tier entirely because the store's
    /// circuit breaker is open (the session is degraded to memory-only
    /// tiers).
    pub degraded: u64,
}

/// A memoizing measurement session shared by all sweep workers.
pub struct Session {
    compiled: Memo<CompileKey, CompiledProgram>,
    traces: Memo<TraceKey, TraceLog>,
    isa: Memo<TraceKey, IsaOutcome>,
    risc: Memo<CompileKey, RiscArtifacts>,
    rtraces: Memo<TraceKey, RiscTrace>,
    replays: Memo<ReplayKey, trips_sim::SimResult>,
    ooo_replays: Memo<ReplayKey, trips_ooo::OooResult>,
    phases: Memo<PhaseKey, PhasePlan>,
    livepoints: Memo<LivePointId, LivePointSet>,
    trace_tier: DiskTier,
    risc_tier: DiskTier,
    phase_tier: DiskTier,
    livepoint_tier: DiskTier,
    degraded: AtomicU64,
    /// Live-point tier switch: 0 = disabled, `threads + 1` otherwise
    /// (so a stored 1 means "one worker per core", matching the pool's
    /// `threads = 0` convention).
    live_points: AtomicU64,
    store: OnceLock<TraceStore>,
}

impl Default for Session {
    fn default() -> Session {
        Session {
            compiled: Memo::default(),
            traces: Memo::default(),
            isa: Memo::default(),
            risc: Memo::default(),
            rtraces: Memo::default(),
            replays: Memo::default(),
            ooo_replays: Memo::default(),
            phases: Memo::default(),
            livepoints: Memo::default(),
            trace_tier: DiskTier::new("session_", "captures", Some(trips_chaos::capture_fault)),
            risc_tier: DiskTier::new(
                "session_risc_",
                "captures",
                Some(trips_chaos::capture_fault),
            ),
            phase_tier: DiskTier::new("session_phase_", "fits", Some(trips_chaos::fit_fault)),
            livepoint_tier: DiskTier::new("session_livepoint_", "captures", None),
            degraded: AtomicU64::new(0),
            live_points: AtomicU64::new(0),
            store: OnceLock::new(),
        }
    }
}

/// A cached functional (untimed) run: what the ISA figures need, without
/// retaining the full trace stream.
#[derive(Debug, Clone)]
pub struct IsaOutcome {
    /// ISA-level statistics.
    pub stats: trips_isa::IsaStats,
    /// The program's return value.
    pub return_value: u64,
}

/// A cached RISC-side build: the compiled RISC program plus the optimized
/// IR it executes against (the reference backends need both).
#[derive(Debug)]
pub struct RiscArtifacts {
    /// The RISC program.
    pub program: trips_risc::RProgram,
    /// The optimized IR (data image + reference semantics).
    pub ir: trips_ir::Program,
}

/// One registry touch for a session-tier event. Artifact-granularity
/// (per compile/capture/disk probe, never per replayed unit), so the
/// registry lock is uncontended in practice.
fn m(name: &str) {
    trips_obs::counter(name).inc(1);
}

/// One in-memory tier: the artifact slots by key, plus its hit/miss
/// counters.
struct Memo<K, T> {
    map: Mutex<HashMap<K, Slot<T>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K, T> Default for Memo<K, T> {
    fn default() -> Self {
        Memo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<K: Clone + Eq + std::hash::Hash, T> Memo<K, T> {
    /// The artifact under `key`: `init` runs once per key, concurrent
    /// requests wait for it, and its result (failures included) is
    /// shared — except transient failures, which are evicted. A request
    /// that finds another caller's `init` in flight books the time it
    /// blocks to [`trips_obs::CostKind::MemoWait`].
    fn get(
        &self,
        key: &K,
        init: impl FnOnce() -> Result<Arc<T>, EngineError>,
    ) -> Result<Arc<T>, EngineError> {
        let slot = self.slot(key);
        let res = match slot.get() {
            Some(res) => res.clone(),
            None => {
                let waited = trips_obs::cost::active().then(Instant::now);
                let mut ran = false;
                let res = slot
                    .get_or_init(|| {
                        ran = true;
                        init()
                    })
                    .clone();
                if let Some(t0) = waited.filter(|_| !ran) {
                    let ns = t0.elapsed().as_nanos() as u64;
                    trips_obs::cost::add_ns(trips_obs::CostKind::MemoWait, ns);
                }
                res
            }
        };
        self.evict_transient(key, &slot, &res);
        res
    }

    fn slot(&self, key: &K) -> Slot<T> {
        let mut guard = self
            .map
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(slot) = guard.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(slot);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let slot: Slot<T> = Arc::new(OnceLock::new());
        guard.insert(key.clone(), Arc::clone(&slot));
        slot
    }

    /// Transient failures must not poison the memo ("failures are cached
    /// too" is for *deterministic* failures — a workload that cannot
    /// compile fails every time; an injected I/O fault does not). The
    /// slot is evicted so the next request re-resolves the artifact,
    /// which is what makes sweep-level retries effective.
    fn evict_transient(&self, key: &K, slot: &Slot<T>, res: &Result<Arc<T>, EngineError>) {
        if matches!(res, Err(e) if e.is_transient()) {
            let mut guard = self
                .map
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            // Only evict our own slot — a racing retry may already have
            // installed a fresh one.
            if guard.get(key).is_some_and(|cur| Arc::ptr_eq(cur, slot)) {
                guard.remove(key);
            }
        }
    }
}

/// One disk tier's counters. Each counter has a metric series named
/// `prefix` + its suffix (`session_risc_disk_hits`, …); `produced_series`
/// is the suffix for fresh productions (captures, or fits).
#[derive(Default)]
struct DiskTier {
    prefix: &'static str,
    produced_series: &'static str,
    /// The chaos hook that may fail this tier's production transiently.
    fault: Option<fn() -> Option<String>>,
    hits: AtomicU64,
    misses: AtomicU64,
    rejects: AtomicU64,
    io_errors: AtomicU64,
    produced: AtomicU64,
    writes: AtomicU64,
}

impl DiskTier {
    fn new(
        prefix: &'static str,
        produced_series: &'static str,
        fault: Option<fn() -> Option<String>>,
    ) -> DiskTier {
        DiskTier {
            prefix,
            produced_series,
            fault,
            ..DiskTier::default()
        }
    }

    fn count(&self, counter: &AtomicU64, series: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        m(&format!("{}{series}", self.prefix));
    }
}

fn replay_err(e: impl fmt::Display) -> EngineError {
    EngineError::Replay(e.to_string())
}

/// Replays each measured window of `plan` from its restored checkpoint,
/// as independent jobs on `threads` pool workers.
///
/// A job on a spawned worker has no row cost scope, so it opens its own
/// and hands the cost back for the calling row to absorb; a job running
/// on the row's own thread (one worker) records into the row directly —
/// opening a scope there would reset the row's.
fn replay_windows<S: Sync, W: Send, E: fmt::Display + Send>(
    core: &str,
    plan: &PhasePlan,
    snaps: &[S],
    threads: usize,
    replay: impl Fn(&trips_sample::PhaseWindow, &S) -> Result<W, E> + Sync,
) -> Result<Vec<W>, EngineError> {
    let _span = trips_obs::span_with("session.replay_windows", || {
        format!("{core} n={}", snaps.len())
    });
    let row = trips_obs::cost::active();
    let jobs: Vec<_> = plan.windows.iter().copied().zip(snaps).collect();
    crate::pool::parallel_map(jobs, threads, |(window, snap)| {
        let scope = (row && !trips_obs::cost::active()).then(trips_obs::cost::begin_row);
        let res = replay(&window, snap);
        (res, scope.map(trips_obs::RowScope::finish))
    })
    .into_iter()
    .map(|(res, cost)| {
        if let Some(cost) = cost {
            trips_obs::cost::absorb_job(&cost);
        }
        res.map_err(replay_err)
    })
    .collect()
}

impl Session {
    /// A fresh, empty session.
    pub fn new() -> Session {
        Session::default()
    }

    /// A fresh session backed by an on-disk trace store: trace requests
    /// that miss in memory consult (and fill) `store`.
    pub fn with_store(store: TraceStore) -> Session {
        let s = Session::new();
        let _ = s.store.set(store);
        s
    }

    /// Installs an on-disk trace store after construction (used by the
    /// experiment harness, whose session is a process-wide static).
    ///
    /// # Errors
    /// Returns the store back if one is already installed.
    pub fn set_store(&self, store: TraceStore) -> Result<(), TraceStore> {
        self.store.set(store)
    }

    /// The on-disk trace store, if one is installed.
    pub fn store(&self) -> Option<&TraceStore> {
        self.store.get()
    }

    /// Enables the live-point tier: phased replays whose plan skips work
    /// capture (or load) persisted per-window checkpoints and replay each
    /// measured window as its own job on `threads` pool workers (0 = one
    /// per core). Off by default — sweeps opt in (`--live-points`).
    pub fn set_live_points(&self, threads: usize) {
        self.live_points
            .store(threads as u64 + 1, Ordering::Relaxed);
    }

    /// The live-point worker count, when the tier is enabled (0 = one
    /// per core).
    pub fn live_points(&self) -> Option<usize> {
        match self.live_points.load(Ordering::Relaxed) {
            0 => None,
            v => Some((v - 1) as usize),
        }
    }

    /// The worker count and plan of a replay the live-point tier serves:
    /// the tier is on and `mode` is a phase plan that skips work.
    fn live_plan<'m>(&self, mode: &'m ReplayMode) -> Option<(usize, &'m PhasePlan)> {
        let plan = mode.phase().filter(|p| !p.covers_everything())?;
        Some((self.live_points()?, plan))
    }

    /// The process-wide session used by the experiment harness, so separate
    /// figures share compiles and captures.
    pub fn global() -> &'static Session {
        static GLOBAL: OnceLock<Session> = OnceLock::new();
        GLOBAL.get_or_init(Session::new)
    }

    /// The disk tier, unless the store's circuit breaker has tripped —
    /// then the request counts as degraded and is served memory-only
    /// (recapture instead of read, skip the write-back) rather than
    /// paying retry backoffs against a disk that is plainly gone.
    fn healthy_store(&self) -> Option<&TraceStore> {
        let store = self.store.get()?;
        if store.degraded() {
            self.degraded.fetch_add(1, Ordering::Relaxed);
            m("session_degraded");
            return None;
        }
        Some(store)
    }

    /// The disk-tier sequence every persisted artifact shares. A
    /// verified stored payload that also passes `deep` (validation
    /// against what it is about to serve) stands in for `produce`; one
    /// that fails `deep` is quarantined. Otherwise the tier's chaos hook
    /// may fail the request transiently (`what` names it), `produce`
    /// runs, and the fresh payload is written back.
    fn resolve<I: ContainerId>(
        &self,
        tier: &DiskTier,
        id: &I,
        what: &str,
        deep: impl FnOnce(&I::Payload) -> Result<(), &'static str>,
        produce: impl FnOnce() -> Result<I::Payload, EngineError>,
    ) -> Result<I::Payload, EngineError> {
        if let Some(store) = self.healthy_store() {
            match store.load(id) {
                LoadOutcome::Hit(value) => match deep(&value) {
                    Ok(()) => {
                        tier.count(&tier.hits, "disk_hits");
                        trips_obs::cost::set_tier("disk");
                        return Ok(*value);
                    }
                    // Container-valid but foreign to what it would serve
                    // (e.g. a stale build's capture): produce over it.
                    Err(why) => {
                        tier.count(&tier.rejects, "disk_rejects");
                        store.quarantine(id, &format!("deep validation failed: {why}"));
                    }
                },
                LoadOutcome::Miss => tier.count(&tier.misses, "disk_misses"),
                LoadOutcome::Reject(_) => tier.count(&tier.rejects, "disk_rejects"),
                LoadOutcome::IoError(_) => tier.count(&tier.io_errors, "disk_io_errors"),
            }
        }
        if let Some(why) = tier.fault.and_then(|fault| fault()) {
            return Err(EngineError::Transient(format!("{what}: {why}")));
        }
        tier.count(&tier.produced, tier.produced_series);
        let value = produce()?;
        if let Some(store) = self.healthy_store() {
            if store.save(id, &value).is_ok() {
                tier.count(&tier.writes, "store_writes");
            }
        }
        Ok(value)
    }

    /// Compiles `workload` (memoized). `hand` selects the hand-optimized IR
    /// variant, mirroring the paper's H bars.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached: retries see the same failure).
    pub fn compiled(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
    ) -> Result<Arc<CompiledProgram>, EngineError> {
        self.compiled
            .get(&CompileKey::new(w, scale, opts, hand), || {
                let _span = trips_obs::span_with("session.compile", || w.name.to_string());
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                m("session_compiles_total{side=\"trips\"}");
                let program = if hand {
                    w.build_hand(scale)
                } else {
                    (w.build)(scale)
                };
                trips_compiler::compile(&program, opts)
                    .map(Arc::new)
                    .map_err(|e| EngineError::Compile(format!("{}: {e}", w.name)))
            })
    }

    /// Captures (memoized) the functional trace of `workload` compiled with
    /// `opts`, under `mem` bytes of memory and a `budget` block budget.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn trace(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<TraceLog>, EngineError> {
        let key = TraceKey::new(w, scale, opts, hand, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.traces.get(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let id = key.trace_id(&compiled);
            let deep = |log: &TraceLog| {
                log.validate(&compiled.trips)
                    .map_err(|_| "log does not match the compiled program")
            };
            self.resolve(&self.trace_tier, &id, w.name, deep, || {
                trips_obs::cost::set_tier("capture");
                let _span = trips_obs::span_with("session.capture_trace", || w.name.to_string());
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                let meta = TraceMeta {
                    workload: id.workload.clone(),
                    scale: id.scale.clone(),
                    opts_sig: id.opts_sig,
                };
                TraceLog::capture(&compiled.trips, &compiled.opt_ir, mem, budget, meta)
                    .map_err(|e| EngineError::Capture(format!("{}: {e}", w.name)))
            })
            .map(Arc::new)
        })
    }

    /// Runs (memoized) the functional interpreter for ISA-level statistics
    /// only — unlike [`Session::trace`], nothing per-block is retained, so
    /// this is the right call when no replay will happen (the ISA figures).
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn isa_outcome(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<IsaOutcome>, EngineError> {
        let key = TraceKey::new(w, scale, opts, hand, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.isa.get(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            trips_obs::cost::set_tier("capture");
            let _span = trips_obs::span_with("session.capture_isa", || w.name.to_string());
            let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
            m("session_isa_runs_total");
            trips_isa::interp::run_program_with(&compiled.trips, &compiled.opt_ir, mem, budget)
                .map(|out| {
                    Arc::new(IsaOutcome {
                        stats: out.stats,
                        return_value: out.return_value,
                    })
                })
                .map_err(|e| EngineError::Capture(format!("{}: {e}", w.name)))
        })
    }

    /// Builds (memoized) the RISC-side program: IR built, optimized with
    /// `opts`, and lowered by the RISC code generator. Shared by the RISC
    /// baseline and every OoO reference platform.
    ///
    /// # Errors
    /// [`EngineError::Compile`] (cached).
    pub fn risc_program(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
    ) -> Result<Arc<RiscArtifacts>, EngineError> {
        self.risc.get(&CompileKey::new(w, scale, opts, false), || {
            let _span = trips_obs::span_with("session.compile", || format!("{} (risc)", w.name));
            let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
            m("session_compiles_total{side=\"risc\"}");
            let mut ir = (w.build)(scale);
            trips_compiler::opt::optimize(&mut ir, opts);
            trips_risc::compile_program(&ir)
                .map(|program| Arc::new(RiscArtifacts { program, ir }))
                .map_err(|e| EngineError::Compile(format!("{} (risc): {e}", w.name)))
        })
    }

    /// Captures (memoized) the RISC event stream of `workload` built with
    /// `opts`, under `mem` bytes of memory and a `budget` instruction
    /// budget — the execution every out-of-order configuration replays and
    /// the source of the instruction-count figures' denominators.
    ///
    /// With a store installed, the disk tier is consulted on an in-memory
    /// miss (and filled on capture), so process B times OoO points from
    /// process A's recorded execution with zero re-executions.
    ///
    /// # Errors
    /// [`EngineError::Compile`] or [`EngineError::Capture`] (both cached).
    pub fn risc_trace(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        mem: usize,
        budget: u64,
    ) -> Result<Arc<RiscTrace>, EngineError> {
        let key = TraceKey::new(w, scale, opts, false, mem, budget);
        trips_obs::cost::set_tier("mem");
        self.rtraces.get(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let id = key.risc_trace_id(&art);
            let deep = |trace: &RiscTrace| {
                trace
                    .validate(&art.program)
                    .map_err(|_| "stream does not match the compiled program")
            };
            let what = format!("{} (risc)", w.name);
            self.resolve(&self.risc_tier, &id, &what, deep, || {
                trips_obs::cost::set_tier("capture");
                let _span = trips_obs::span_with("session.capture_risc", || w.name.to_string());
                let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Capture);
                let meta = RiscTraceMeta {
                    workload: id.workload.clone(),
                    scale: id.scale.clone(),
                    opts_sig: id.opts_sig,
                };
                RiscTrace::capture(&art.program, &art.ir, mem, budget, meta)
                    .map_err(|e| EngineError::Capture(format!("{what}: {e}")))
            })
            .map(Arc::new)
        })
    }

    /// The fitted phase plan for a workload's TRIPS block-trace stream
    /// (memoized, store-backed): BBV extraction + clustering run **once
    /// per store** — an in-memory miss consults the disk tier (a
    /// verified, stream-validated [`PhaseArtifact`] stands in for a
    /// fresh fit), and fresh fits are written back. The fit is seeded
    /// from the trace's stable key, so every process derives the
    /// byte-identical plan and N sweep points across N processes cluster
    /// once.
    ///
    /// # Errors
    /// Any cached artifact failure ([`EngineError::Compile`] /
    /// [`EngineError::Capture`], both cached).
    pub fn trips_phase_plan(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        mem: usize,
        budget: u64,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: TraceKey::new(w, scale, opts, hand, mem, budget),
            risc: false,
            spec: *spec,
        };
        self.phases.get(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let log = self.trace(w, scale, opts, hand, mem, budget)?;
            let seed = key.trace.trace_id(&compiled).stable_hash();
            self.fit_phase(seed, log.seq.len() as u64, spec, || {
                Ok(trips_phase::trips_fit(&log, spec, seed))
            })
        })
    }

    /// The RISC-side counterpart of [`Session::trips_phase_plan`]: the
    /// fitted phase plan over a workload's recorded RISC event stream,
    /// shared by every out-of-order platform that replays it.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Capture`] when the
    /// stream walk fails.
    pub fn ooo_phase_plan(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        mem: usize,
        budget: u64,
        spec: &PhaseSpec,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let key = PhaseKey {
            trace: TraceKey::new(w, scale, opts, false, mem, budget),
            risc: true,
            spec: *spec,
        };
        self.phases.get(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let trace = self.risc_trace(w, scale, opts, mem, budget)?;
            let seed = key.trace.risc_trace_id(&art).stable_hash();
            self.fit_phase(seed, trace.header.dynamic_insts, spec, || {
                trips_phase::risc_fit(&trace, &art.program, spec, seed)
                    .map_err(|e| EngineError::Capture(format!("{} (phase): {e}", w.name)))
            })
        })
    }

    /// The phase tier both plan kinds share: the stored artifact under
    /// the parent key serves if it fits `spec` and the stream extent;
    /// otherwise `fit` runs and its artifact is persisted.
    fn fit_phase(
        &self,
        parent_key: u64,
        total_units: u64,
        spec: &PhaseSpec,
        fit: impl FnOnce() -> Result<PhaseArtifact, EngineError>,
    ) -> Result<Arc<PhasePlan>, EngineError> {
        let id = BbvId {
            parent_key,
            interval: spec.interval,
            warmup: spec.warmup,
            k_code: spec.k_code(),
            floor: spec.floor,
            rep_span: spec.rep_span,
            boundary: spec.boundary,
            tail: spec.tail,
        };
        let deep = |art: &PhaseArtifact| {
            art.validate(spec, total_units)
                .map_err(|_| "artifact fitted to a different stream")
        };
        self.resolve(&self.phase_tier, &id, "phase fit", deep, || {
            let _span = trips_obs::span("session.fit_phase");
            let _cost = trips_obs::cost::Timed::start(trips_obs::CostKind::Fit);
            fit()
        })
        .map(|art| Arc::new(art.plan))
    }

    /// The live-point tier both timing cores share: resolves the
    /// checkpoint set for one phased replay memo → store → capture. A
    /// stored set must have the right shape for `plan` (core variant,
    /// stream extent, window count) or it is quarantined and recaptured.
    /// `capture` is the sequential phased replay that doubles as the
    /// checkpoint pass; its result comes back as `Some` so nothing runs
    /// twice.
    fn live_point_set<R>(
        &self,
        parent_key: u64,
        plan: &PhasePlan,
        cfg_sig: u64,
        core: u32,
        label: impl FnOnce() -> String,
        capture: impl FnOnce() -> Result<(R, LivePointStates), EngineError>,
    ) -> Result<(Arc<LivePointSet>, Option<R>), EngineError> {
        let id = LivePointId {
            parent_key,
            plan_sig: plan_sig(plan),
            cfg_sig,
            core,
        };
        let deep = |set: &LivePointSet| {
            let right_core = match &set.states {
                LivePointStates::Trips(_) => core == KIND_BLOCK_TRACE,
                LivePointStates::Ooo(_) => core == KIND_RISC_TRACE,
            };
            if right_core
                && set.total_units == plan.total_units
                && set.states.len() == plan.windows.len()
            {
                Ok(())
            } else {
                Err("wrong shape for the plan")
            }
        };
        let mut fresh = None;
        let set = self.livepoints.get(&id, || {
            self.resolve(&self.livepoint_tier, &id, "live-points", deep, || {
                trips_obs::cost::set_tier("capture");
                let _span = trips_obs::span_with("session.capture_livepoints", label);
                let (res, states) = capture()?;
                fresh = Some(res);
                Ok(LivePointSet {
                    parent_key,
                    plan_sig: id.plan_sig,
                    cfg_sig,
                    core,
                    total_units: plan.total_units,
                    states,
                })
            })
            .map(Arc::new)
        })?;
        Ok((set, fresh))
    }

    /// The live-point tier for one TRIPS phased replay. With a resolved
    /// set, each measured window replays from its restored state as an
    /// independent pool job and the per-window measurements assemble into
    /// the same estimate the sequential replay produces (bit-identical;
    /// see `trips_sim::timing`'s live-point tests).
    fn replay_trips_live(
        &self,
        compiled: &CompiledProgram,
        log: &TraceLog,
        cfg: &trips_sim::TripsConfig,
        plan: &PhasePlan,
        parent_key: u64,
        threads: usize,
    ) -> Result<trips_sim::SimResult, EngineError> {
        let cfg_sig = trips_cfg_sig(cfg);
        let label = || format!("trips cfg={cfg_sig:016x}");
        let (set, fresh) =
            self.live_point_set(parent_key, plan, cfg_sig, KIND_BLOCK_TRACE, label, || {
                trips_sim::timing::replay_trace_phased_capture(compiled, cfg, log, plan)
                    .map(|(res, snaps)| (res, LivePointStates::Trips(snaps)))
                    .map_err(replay_err)
            })?;
        if let Some(res) = fresh {
            return Ok(res);
        }
        let LivePointStates::Trips(snaps) = &set.states else {
            return Err(replay_err("live-point set holds foreign-core state"));
        };
        let windows = replay_windows("trips", plan, snaps, threads, |window, snap| {
            trips_sim::replay_trips_window(compiled, cfg, log, window, snap)
        })?;
        trips_sim::assemble_trips_phased(log, plan, &windows).map_err(replay_err)
    }

    /// The out-of-order counterpart of [`Session::replay_trips_live`],
    /// over the recorded RISC stream shared by every reference-platform
    /// configuration.
    fn replay_ooo_live(
        &self,
        rp: &trips_risc::RProgram,
        trace: &RiscTrace,
        cfg: &trips_ooo::OooConfig,
        plan: &PhasePlan,
        parent_key: u64,
        threads: usize,
    ) -> Result<trips_ooo::OooResult, EngineError> {
        let cfg_sig = ooo_cfg_sig(cfg);
        let label = || format!("{} cfg={cfg_sig:016x}", cfg.name);
        let (set, fresh) =
            self.live_point_set(parent_key, plan, cfg_sig, KIND_RISC_TRACE, label, || {
                trips_ooo::run_ooo_phased_capture(rp, trace, cfg, plan)
                    .map(|(res, snaps)| (res, LivePointStates::Ooo(snaps)))
                    .map_err(replay_err)
            })?;
        if let Some(res) = fresh {
            return Ok(res);
        }
        let LivePointStates::Ooo(snaps) = &set.states else {
            return Err(replay_err("live-point set holds foreign-core state"));
        };
        let windows = replay_windows("ooo", plan, snaps, threads, |window, snap| {
            trips_ooo::replay_ooo_window(rp, trace, cfg, window, snap)
        })?;
        trips_ooo::assemble_ooo_phased(trace, plan, &windows).map_err(replay_err)
    }

    /// Times one out-of-order configuration by replaying the (memoized)
    /// recorded RISC stream: the reference-platform hot path — one
    /// functional execution, N of these. Full mode is bit-identical to
    /// driving the timing model from a live machine; sampled mode
    /// fast-forwards and extrapolates per the plan. Results are memoized
    /// under the trace key, the configuration signature *and* the plan, so
    /// full and sampled measurements never alias.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn ooo_replayed(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        cfg: &trips_ooo::OooConfig,
        mem: usize,
        budget: u64,
        mode: &ReplayMode,
    ) -> Result<Arc<trips_ooo::OooResult>, EngineError> {
        let key = ReplayKey {
            trace: TraceKey::new(w, scale, opts, false, mem, budget),
            cfg: ooo_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.ooo_replays.get(&key, || {
            let art = self.risc_program(w, scale, opts)?;
            let trace = self.risc_trace(w, scale, opts, mem, budget)?;
            let _span =
                trips_obs::span_with("session.replay_ooo", || format!("{} {}", w.name, cfg.name));
            let res = match self.live_plan(mode) {
                Some((threads, plan)) => {
                    let parent_key = key.trace.risc_trace_id(&art).stable_hash();
                    self.replay_ooo_live(&art.program, &trace, cfg, plan, parent_key, threads)
                }
                None => trips_ooo::run_timed_trace_mode(&art.program, &trace, cfg, mode)
                    .map_err(replay_err),
            };
            res.map(Arc::new).map_err(|e| match e {
                EngineError::Replay(msg) => {
                    EngineError::Replay(format!("{} ({}): {msg}", w.name, cfg.name))
                }
                other => other,
            })
        })
    }

    /// Replays the (memoized) trace against one timing configuration: the
    /// sweep's hot path — one capture, N of these. Results are memoized
    /// under the trace key, the configuration signature *and* the sampling
    /// plan, so full and sampled measurements never alias.
    ///
    /// # Errors
    /// Any cached artifact failure, or [`EngineError::Replay`] (cached).
    pub fn replayed(
        &self,
        w: &Workload,
        scale: Scale,
        opts: &CompileOptions,
        hand: bool,
        cfg: &trips_sim::TripsConfig,
        mem: usize,
        budget: u64,
        mode: &ReplayMode,
    ) -> Result<Arc<trips_sim::SimResult>, EngineError> {
        let key = ReplayKey {
            trace: TraceKey::new(w, scale, opts, hand, mem, budget),
            cfg: trips_cfg_sig(cfg),
            mode: ModeKey::of(mode),
        };
        trips_obs::cost::set_tier("memo");
        self.replays.get(&key, || {
            let compiled = self.compiled(w, scale, opts, hand)?;
            let log = self.trace(w, scale, opts, hand, mem, budget)?;
            let _span = trips_obs::span_with("session.replay_trips", || {
                format!("{} cfg={:016x}", w.name, key.cfg)
            });
            match self.live_plan(mode) {
                Some((threads, plan)) => {
                    let parent_key = key.trace.trace_id(&compiled).stable_hash();
                    self.replay_trips_live(&compiled, &log, cfg, plan, parent_key, threads)
                }
                None => trips_sim::timing::replay_trace_mode(&compiled, cfg, &log, mode)
                    .map_err(replay_err),
            }
            .map(Arc::new)
        })
    }

    /// Current hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let (t, r, p, l) = (
            &self.trace_tier,
            &self.risc_tier,
            &self.phase_tier,
            &self.livepoint_tier,
        );
        CacheStats {
            compile_hits: n(&self.compiled.hits),
            compile_misses: n(&self.compiled.misses),
            trace_hits: n(&self.traces.hits),
            trace_misses: n(&self.traces.misses),
            isa_hits: n(&self.isa.hits),
            isa_misses: n(&self.isa.misses),
            risc_hits: n(&self.risc.hits),
            risc_misses: n(&self.risc.misses),
            captures: n(&t.produced),
            disk_hits: n(&t.hits),
            disk_misses: n(&t.misses),
            disk_rejects: n(&t.rejects),
            store_writes: n(&t.writes),
            rtrace_hits: n(&self.rtraces.hits),
            rtrace_misses: n(&self.rtraces.misses),
            risc_captures: n(&r.produced),
            risc_disk_hits: n(&r.hits),
            risc_disk_misses: n(&r.misses),
            risc_disk_rejects: n(&r.rejects),
            risc_store_writes: n(&r.writes),
            phase_hits: n(&self.phases.hits),
            phase_misses: n(&self.phases.misses),
            phase_fits: n(&p.produced),
            phase_disk_hits: n(&p.hits),
            phase_disk_misses: n(&p.misses),
            phase_disk_rejects: n(&p.rejects),
            phase_store_writes: n(&p.writes),
            livepoint_hits: n(&self.livepoints.hits),
            livepoint_misses: n(&self.livepoints.misses),
            livepoint_captures: n(&l.produced),
            livepoint_disk_hits: n(&l.hits),
            livepoint_disk_misses: n(&l.misses),
            livepoint_disk_rejects: n(&l.rejects),
            livepoint_store_writes: n(&l.writes),
            replay_hits: n(&self.replays.hits),
            replay_misses: n(&self.replays.misses),
            ooo_replay_hits: n(&self.ooo_replays.hits),
            ooo_replay_misses: n(&self.ooo_replays.misses),
            disk_io_errors: n(&t.io_errors),
            risc_disk_io_errors: n(&r.io_errors),
            phase_disk_io_errors: n(&p.io_errors),
            livepoint_disk_io_errors: n(&l.io_errors),
            degraded: n(&self.degraded),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_workloads::by_name;

    #[test]
    fn compile_cache_deduplicates() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let a = s
            .compiled(&w, Scale::Test, &CompileOptions::o1(), false)
            .unwrap();
        let b = s
            .compiled(&w, Scale::Test, &CompileOptions::o1(), false)
            .unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "second request must be served from cache"
        );
        let st = s.cache_stats();
        assert_eq!((st.compile_misses, st.compile_hits), (1, 1));
        // Different options are a different artifact.
        let c = s
            .compiled(&w, Scale::Test, &CompileOptions::o2(), false)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn trace_cache_is_keyed_on_budget() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let full = s
            .trace(
                &w,
                Scale::Test,
                &CompileOptions::o1(),
                false,
                1 << 22,
                u64::MAX,
            )
            .unwrap();
        let again = s
            .trace(
                &w,
                Scale::Test,
                &CompileOptions::o1(),
                false,
                1 << 22,
                u64::MAX,
            )
            .unwrap();
        assert!(Arc::ptr_eq(&full, &again));
        // A tiny budget is a distinct (failing) artifact, and the failure
        // itself is cached.
        let clipped = s.trace(&w, Scale::Test, &CompileOptions::o1(), false, 1 << 22, 1);
        assert!(matches!(clipped, Err(EngineError::Capture(_))));
        let clipped2 = s.trace(&w, Scale::Test, &CompileOptions::o1(), false, 1 << 22, 1);
        assert_eq!(clipped.unwrap_err(), clipped2.unwrap_err());
    }

    #[test]
    fn opts_sig_separates_presets() {
        let sigs: Vec<u64> = [
            CompileOptions::o0(),
            CompileOptions::o1(),
            CompileOptions::o2(),
            CompileOptions::hand(),
        ]
        .iter()
        .map(opts_sig)
        .collect();
        let mut uniq = sigs.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), sigs.len());
    }

    #[test]
    fn replay_results_are_memoized_per_config_and_plan() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        let cfg = trips_sim::TripsConfig::prototype();
        let args = (
            Scale::Test,
            CompileOptions::o1(),
            false,
            1usize << 22,
            1_000_000u64,
        );
        let run = |mode: &ReplayMode| {
            s.replayed(&w, args.0, &args.1, args.2, &cfg, args.3, args.4, mode)
                .unwrap()
        };
        let full = run(&ReplayMode::Full);
        let again = run(&ReplayMode::Full);
        assert!(Arc::ptr_eq(&full, &again), "full replay must memoize");
        // A sampling plan is a different artifact under the same point.
        let plan = SamplePlan::new(4, 4, 16).unwrap();
        let sampled = run(&ReplayMode::Sampled(plan));
        assert!(
            !Arc::ptr_eq(&full, &sampled),
            "full and sampled must not alias"
        );
        assert!(sampled.stats.sampled && !full.stats.sampled);
        // A covering plan is bit-identical to full and shares its entry.
        let covering = SamplePlan::new(0, 8, 8).unwrap();
        let cov = run(&ReplayMode::Sampled(covering));
        assert!(Arc::ptr_eq(&full, &cov));
        let st = s.cache_stats();
        assert_eq!((st.replay_misses, st.replay_hits), (2, 2), "{st:?}");
    }

    #[test]
    fn phase_plans_memoize_and_drive_phased_replay() {
        let s = Session::new();
        let w = by_name("vadd").unwrap();
        // Interval 8 over vadd's ~170-block test stream: ~19 interior
        // intervals, more than the auto sweep's k cap, so the fitted plan
        // can never cover everything.
        let spec = PhaseSpec {
            interval: 8,
            warmup: 4,
            k: trips_phase::PhaseK::Auto,
            floor: 0,
            rep_span: 4,
            boundary: 1,
            tail: 1,
        };
        let args = (Scale::Test, CompileOptions::o1(), false, 1usize << 22);
        let plan = s
            .trips_phase_plan(&w, args.0, &args.1, args.2, args.3, 1_000_000, &spec)
            .unwrap();
        let again = s
            .trips_phase_plan(&w, args.0, &args.1, args.2, args.3, 1_000_000, &spec)
            .unwrap();
        assert!(
            Arc::ptr_eq(&plan, &again),
            "second fit must come from cache"
        );
        plan.validate().unwrap();
        let log = s
            .trace(&w, args.0, &args.1, args.2, args.3, 1_000_000)
            .unwrap();
        assert_eq!(plan.total_units, log.seq.len() as u64);
        assert!(!plan.covers_everything(), "stream long enough to classify");

        // Phased replay is a distinct memoized artifact from full replay.
        let cfg = trips_sim::TripsConfig::prototype();
        let run = |mode: &ReplayMode| {
            s.replayed(&w, args.0, &args.1, args.2, &cfg, args.3, 1_000_000, mode)
                .unwrap()
        };
        let full = run(&ReplayMode::Full);
        let phased = run(&ReplayMode::Phased((*plan).clone()));
        assert!(
            !Arc::ptr_eq(&full, &phased),
            "full and phased must not alias"
        );
        assert!(phased.stats.sampled && !full.stats.sampled);
        assert!(phased.stats.detailed_units < phased.stats.total_units);
        let hit = run(&ReplayMode::Phased((*plan).clone()));
        assert!(Arc::ptr_eq(&phased, &hit), "same plan must memoize");

        let st = s.cache_stats();
        assert_eq!((st.phase_misses, st.phase_hits, st.phase_fits), (1, 1, 1));
        assert_eq!((st.replay_misses, st.replay_hits), (2, 1), "{st:?}");
    }

    #[test]
    fn live_point_tier_is_bit_identical_and_captures_once() {
        let s = Session::new();
        s.set_live_points(2);
        let w = by_name("vadd").unwrap();
        let spec = PhaseSpec {
            interval: 8,
            warmup: 4,
            k: trips_phase::PhaseK::Auto,
            floor: 0,
            rep_span: 4,
            boundary: 1,
            tail: 1,
        };
        let (scale, opts, hand) = (Scale::Test, CompileOptions::o1(), false);
        let (mem, budget) = (1usize << 22, 1_000_000u64);
        let plan = s
            .trips_phase_plan(&w, scale, &opts, hand, mem, budget, &spec)
            .unwrap();
        assert!(!plan.covers_everything());
        let cfg = trips_sim::TripsConfig::prototype();
        let mode = ReplayMode::Phased((*plan).clone());
        // Sequential reference from a live-point-free session.
        let seq = Session::new()
            .replayed(&w, scale, &opts, hand, &cfg, mem, budget, &mode)
            .unwrap();
        // The first request runs the capture pass, which *is* a
        // sequential phased replay.
        let first = s
            .replayed(&w, scale, &opts, hand, &cfg, mem, budget, &mode)
            .unwrap();
        assert_eq!(first.stats, seq.stats);
        assert_eq!(first.return_value, seq.return_value);
        let st = s.cache_stats();
        assert_eq!((st.livepoint_misses, st.livepoint_captures), (1, 1));
        // A repeat under the same key is served by the replay memo, so
        // drive the tier directly to exercise restore + parallel replay
        // from the memoized checkpoint set.
        let compiled = s.compiled(&w, scale, &opts, hand).unwrap();
        let log = s.trace(&w, scale, &opts, hand, mem, budget).unwrap();
        let parent_key = TraceKey::new(&w, scale, &opts, hand, mem, budget)
            .trace_id(&compiled)
            .stable_hash();
        let par = s
            .replay_trips_live(&compiled, &log, &cfg, &plan, parent_key, 2)
            .unwrap();
        assert_eq!(
            par.stats, seq.stats,
            "restored parallel replay must be bit-identical"
        );
        let st = s.cache_stats();
        assert_eq!(
            (st.livepoint_hits, st.livepoint_captures),
            (1, 1),
            "second resolve must hit the memo tier without recapturing: {st:?}"
        );
    }

    #[test]
    fn concurrent_requests_share_one_compile() {
        let s = Session::new();
        let w = by_name("autocor").unwrap();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let (s, w) = (&s, &w);
                    scope.spawn(move || {
                        s.compiled(w, Scale::Test, &CompileOptions::o1(), false)
                            .unwrap()
                    })
                })
                .collect();
            let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results[1..] {
                assert!(Arc::ptr_eq(&results[0], r));
            }
        });
        assert_eq!(
            s.cache_stats().compile_misses,
            1,
            "exactly one thread may compile"
        );
    }
}
