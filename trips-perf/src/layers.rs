//! Direct calls into each layer, wrapped in benchmark-side spans.
//!
//! Set-up fills a workload's empty store through the session's public
//! tiers (compile, both captures, phase fit, and for live-points a cold
//! sweep that captures the checkpoints). The probe reads every container
//! of the warm store twice — a plain `fs::read`, then the store's verified
//! load — and replays every point through the timing cores' public entry
//! points. Spans from both are folded with `trips_obs::report`.

use crate::spec::{Workload, PROGRAMS};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use trips_compiler::CompileOptions;
use trips_engine::cache::{code_sig, ooo_cfg_sig, opts_sig, risc_code_sig, trips_cfg_sig};
use trips_engine::obs::{self, report};
use trips_engine::store::{plan_sig, KIND_BLOCK_TRACE, KIND_RISC_TRACE};
use trips_engine::sweep::{BackendSpec, SweepSpec};
use trips_engine::{
    parallel_map, run_sweep, BbvId, LivePointId, LivePointSet, LivePointStates, LoadOutcome,
    PhaseK, PhaseSpec, ReplayMode, RiscTraceId, Session, TraceStore,
};
use trips_isa::TraceId;
use trips_workloads::{by_name, Scale};

pub const TRIPS_EVENTS: &str = "replay_events_total{core=\"trips\"}";
pub const OOO_EVENTS: &str = "replay_events_total{core=\"ooo\"}";
const TRIPS_COMPILES: &str = "session_compiles_total{side=\"trips\"}";
const RISC_COMPILES: &str = "session_compiles_total{side=\"risc\"}";

/// Every counter the benchmark reads, by its exposition name.
const COUNTERS: [&str; 8] = [
    TRIPS_EVENTS,
    OOO_EVENTS,
    "store_read_bytes_total",
    "store_write_bytes_total",
    "pool_jobs_total",
    "pool_steals_total",
    TRIPS_COMPILES,
    RISC_COMPILES,
];

/// Current values of [`COUNTERS`].
pub fn counters() -> BTreeMap<&'static str, u64> {
    COUNTERS
        .iter()
        .map(|name| (*name, obs::counter(name).get()))
        .collect()
}

/// `after - before` per counter.
pub fn delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, u64> {
    after
        .iter()
        .map(|(k, v)| (*k, v - before.get(k).copied().unwrap_or(0)))
        .collect()
}

/// Flushes the span journal and parses it back.
pub fn read_journal(path: &Path) -> Result<Vec<report::SpanRecord>, String> {
    obs::flush_trace();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::parse_journal(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Inclusive milliseconds per span label, via `fold_report`.
pub fn label_ms(records: &[report::SpanRecord]) -> BTreeMap<String, f64> {
    report::fold_report(records)
        .labels
        .into_iter()
        .map(|l| (l.label, l.incl_ns as f64 / 1e6))
        .collect()
}

/// Milliseconds of `inner` spans nested inside `outer` spans on the same
/// thread: the store writes a session call made on its way out.
fn nested_ms(records: &[report::SpanRecord], outer: &str, inner: &str) -> f64 {
    let inside = |o: &report::SpanRecord, i: &report::SpanRecord| {
        i.thread == o.thread
            && i.start_ns >= o.start_ns
            && i.start_ns + i.dur_ns <= o.start_ns + o.dur_ns
    };
    let outers: Vec<_> = records.iter().filter(|r| r.label == outer).collect();
    records
        .iter()
        .filter(|i| i.label == inner && outers.iter().any(|o| inside(o, i)))
        .map(|i| i.dur_ns as f64 / 1e6)
        .sum()
}

fn workload_of(name: &str) -> Result<trips_workloads::Workload, String> {
    by_name(name).ok_or_else(|| format!("unknown program {name}"))
}

/// Fills the empty store at `dir` for `w` and returns its measurements as
/// named numbers: `setup_s` and the set-up work counts always, and the
/// per-layer times when `journal` traces the fill.
pub fn fill(
    w: Workload,
    dir: &Path,
    journal: Option<&Path>,
) -> Result<BTreeMap<String, f64>, String> {
    if let Some(path) = journal {
        obs::enable_trace(path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let threads = crate::machine::nproc();
    let spec = w.spec(threads);
    let before = counters();
    let t0 = Instant::now();
    let store = TraceStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let session = Session::with_store(store);
    let sizes = parallel_map(PROGRAMS.to_vec(), threads, |name| {
        fill_program(&session, &spec, w.phased, name)
    });
    let mut checkpoint_save_ms = 0.0;
    if w.live_points {
        // A cold live-point sweep: each phased point's first replay is the
        // capture pass that snapshots and persists its checkpoints.
        let _span = obs::span("perf.capture_livepoints");
        let rep = run_sweep(&spec, &session).map_err(|e| e.to_string())?;
        if let Some(e) = rep.errors.first() {
            return Err(format!("set-up sweep: {e}"));
        }
        checkpoint_save_ms = rep.cost_totals.checkpoint_save_ns as f64 / 1e6;
    }
    let cache = session.cache_stats();
    drop(session);
    let setup_s = t0.elapsed().as_secs_f64();
    let d = delta(&before, &counters());
    let (mut blocks, mut insts) = (0u64, 0u64);
    for s in sizes {
        let (b, i) = s?;
        blocks += b;
        insts += i;
    }
    let mut out = BTreeMap::new();
    out.insert("setup_s".to_string(), setup_s);
    let count = |v: u64| v as f64;
    out.insert(
        "captures".into(),
        count(cache.captures + cache.risc_captures + cache.livepoint_captures),
    );
    out.insert("fits".into(), count(cache.phase_fits));
    out.insert(
        "compiles".into(),
        count(d[TRIPS_COMPILES] + d[RISC_COMPILES]),
    );
    out.insert("bytes_written".into(), count(d["store_write_bytes_total"]));
    if let Some(path) = journal {
        let records = read_journal(path)?;
        let ms = label_ms(&records);
        let get = |l: &str| ms.get(l).copied().unwrap_or(0.0);
        let own = |l: &str| get(l) - nested_ms(&records, l, "store.save");
        out.insert("compile_ms".into(), get("perf.compile"));
        out.insert("isa_capture_ms".into(), own("perf.capture_isa"));
        out.insert("risc_capture_ms".into(), own("perf.capture_risc"));
        out.insert("fit_ms".into(), own("perf.fit_phase"));
        out.insert("checkpoint_save_ms".into(), checkpoint_save_ms);
        out.insert("blocks".into(), count(blocks));
        out.insert("insts".into(), count(insts));
    }
    Ok(out)
}

/// One program's share of the fill, one layer per span. Returns the
/// captured stream lengths (TRIPS blocks, RISC instructions).
fn fill_program(
    session: &Session,
    spec: &SweepSpec,
    phased: bool,
    name: &str,
) -> Result<(u64, u64), String> {
    let w = workload_of(name)?;
    let gcc = CompileOptions::gcc_ref();
    let err = |e: trips_engine::EngineError| e.to_string();
    {
        let _span = obs::span_with("perf.compile", || name.to_string());
        session
            .compiled(&w, spec.scale, &spec.opts, false)
            .map_err(err)?;
        session.risc_program(&w, spec.scale, &gcc).map_err(err)?;
    }
    let log = {
        let _span = obs::span_with("perf.capture_isa", || name.to_string());
        session
            .trace(&w, spec.scale, &spec.opts, false, spec.mem, spec.sim_budget)
            .map_err(err)?
    };
    let trace = {
        let _span = obs::span_with("perf.capture_risc", || name.to_string());
        session
            .risc_trace(&w, spec.scale, &gcc, spec.mem, spec.risc_budget)
            .map_err(err)?
    };
    if phased {
        let _span = obs::span_with("perf.fit_phase", || name.to_string());
        session
            .trips_phase_plan(
                &w,
                spec.scale,
                &spec.opts,
                false,
                spec.mem,
                spec.sim_budget,
                &PhaseSpec::trips(PhaseK::Auto),
            )
            .map_err(err)?;
        session
            .ooo_phase_plan(
                &w,
                spec.scale,
                &gcc,
                spec.mem,
                spec.risc_budget,
                &PhaseSpec::ooo(PhaseK::Auto),
            )
            .map_err(err)?;
    }
    Ok((log.seq.len() as u64, trace.header.dynamic_insts))
}

/// What the probe counted; its times are in the span journal.
#[derive(Debug, Default)]
pub struct Probe {
    pub containers: u64,
    pub bytes: u64,
    pub tsim_events: u64,
    pub ooo_events: u64,
    pub windows: u64,
    /// Cost attribution of every replay: warm/detailed segments and
    /// checkpoint restores, collected in a cost scope around each call.
    pub cost: obs::RowCost,
    /// Replays whose estimate differs from the reference row, by label.
    pub mismatches: Vec<String>,
}

enum Container {
    Trace(TraceId),
    Risc(RiscTraceId),
    Bbv(BbvId),
    Live(LivePointId),
}

/// A container's decoded payload.
enum Loaded {
    Trace(trips_isa::TraceLog),
    Risc(trips_risc::RiscTrace),
    Bbv(trips_engine::phase::PhaseArtifact),
    Live(LivePointSet),
}

fn bbv_id(parent_key: u64, spec: &PhaseSpec) -> BbvId {
    BbvId {
        parent_key,
        interval: spec.interval,
        warmup: spec.warmup,
        k_code: spec.k_code(),
        floor: spec.floor,
        rep_span: spec.rep_span,
        boundary: spec.boundary,
        tail: spec.tail,
    }
}

fn hit<T>(what: &str, out: LoadOutcome<T>) -> Result<T, String> {
    match out {
        LoadOutcome::Hit(v) => Ok(*v),
        LoadOutcome::Miss => Err(format!("{what}: not in the store")),
        LoadOutcome::Reject(why) | LoadOutcome::IoError(why) => Err(format!("{what}: {why}")),
    }
}

/// A replay job of the probe: one sweep point.
struct Point<'a> {
    label: String,
    program: &'a Resolved,
    backend: Backend,
}

enum Backend {
    Trips(trips_sim::TripsConfig),
    Ooo(trips_ooo::OooConfig),
}

/// A program's artifacts, resolved from the warm store through the
/// session (untimed), plus the live-point sets the probe loaded.
struct Resolved {
    compiled: std::sync::Arc<trips_compiler::CompiledProgram>,
    risc: std::sync::Arc<trips_engine::RiscArtifacts>,
    log: std::sync::Arc<trips_isa::TraceLog>,
    trace: std::sync::Arc<trips_risc::RiscTrace>,
    trips_plan: Option<std::sync::Arc<trips_engine::PhasePlan>>,
    ooo_plan: Option<std::sync::Arc<trips_engine::PhasePlan>>,
    live: BTreeMap<u64, LivePointSet>,
}

/// Probes the warm store at `dir`: every container is read, loaded, and
/// saved again into a fresh store at `save_dir`; then every point is
/// replayed. `reference` holds the workload's reference rows; each
/// replay's estimate is checked against its row.
pub fn probe(
    w: Workload,
    dir: &Path,
    save_dir: &Path,
    reference: &BTreeMap<String, String>,
) -> Result<Probe, String> {
    let threads = crate::machine::nproc();
    let spec = w.spec(threads);
    let gcc = CompileOptions::gcc_ref();
    let session =
        Session::with_store(TraceStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?);
    let store = session.store().expect("the session was built with a store");
    let resave = TraceStore::open(save_dir).map_err(|e| format!("{}: {e}", save_dir.display()))?;
    let err = |e: trips_engine::EngineError| e.to_string();
    let mut probe = Probe::default();
    let mut programs = Vec::new();
    for name in PROGRAMS {
        let wl = workload_of(name)?;
        let compiled = session
            .compiled(&wl, Scale::Ref, &spec.opts, false)
            .map_err(err)?;
        let risc = session.risc_program(&wl, Scale::Ref, &gcc).map_err(err)?;
        let log = session
            .trace(
                &wl,
                Scale::Ref,
                &spec.opts,
                false,
                spec.mem,
                spec.sim_budget,
            )
            .map_err(err)?;
        let trace = session
            .risc_trace(&wl, Scale::Ref, &gcc, spec.mem, spec.risc_budget)
            .map_err(err)?;
        let (trips_spec, ooo_spec) = (PhaseSpec::trips(PhaseK::Auto), PhaseSpec::ooo(PhaseK::Auto));
        let (trips_plan, ooo_plan) = if w.phased {
            (
                Some(
                    session
                        .trips_phase_plan(
                            &wl,
                            Scale::Ref,
                            &spec.opts,
                            false,
                            spec.mem,
                            spec.sim_budget,
                            &trips_spec,
                        )
                        .map_err(err)?,
                ),
                Some(
                    session
                        .ooo_phase_plan(
                            &wl,
                            Scale::Ref,
                            &gcc,
                            spec.mem,
                            spec.risc_budget,
                            &ooo_spec,
                        )
                        .map_err(err)?,
                ),
            )
        } else {
            (None, None)
        };
        let tid = TraceId {
            workload: name.to_string(),
            scale: "ref".into(),
            opts_sig: opts_sig(&spec.opts),
            hand: false,
            code_sig: code_sig(&compiled),
            mem_size: spec.mem as u64,
            max_blocks: spec.sim_budget,
        };
        let rid = RiscTraceId {
            workload: name.to_string(),
            scale: "ref".into(),
            opts_sig: opts_sig(&gcc),
            code_sig: risc_code_sig(&risc),
            mem_size: spec.mem as u64,
            max_steps: spec.risc_budget,
        };
        let (tkey, rkey) = (tid.stable_hash(), rid.stable_hash());
        let mut containers = vec![Container::Trace(tid), Container::Risc(rid)];
        if w.phased {
            containers.push(Container::Bbv(bbv_id(tkey, &trips_spec)));
            containers.push(Container::Bbv(bbv_id(rkey, &ooo_spec)));
        }
        if w.live_points {
            for (plan, key, sigs, core) in [
                (
                    &trips_plan,
                    tkey,
                    spec.configs
                        .iter()
                        .map(|c| trips_cfg_sig(&c.cfg))
                        .collect::<Vec<_>>(),
                    KIND_BLOCK_TRACE,
                ),
                (
                    &ooo_plan,
                    rkey,
                    vec![ooo_cfg_sig(&trips_ooo::core2())],
                    KIND_RISC_TRACE,
                ),
            ] {
                let plan = plan.as_ref().expect("live points are phased");
                if plan.covers_everything() {
                    continue;
                }
                for cfg_sig in sigs {
                    containers.push(Container::Live(LivePointId {
                        parent_key: key,
                        plan_sig: plan_sig(plan),
                        cfg_sig,
                        core,
                    }));
                }
            }
        }
        let mut live = BTreeMap::new();
        for c in &containers {
            let path = match c {
                Container::Trace(id) => store.path_for(id),
                Container::Risc(id) => store.path_for_risc(id),
                Container::Bbv(id) => store.path_for_bbv(id),
                Container::Live(id) => store.path_for_livepoint(id),
            };
            let bytes = {
                let _span = obs::span("perf.fs_read");
                std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?
            };
            probe.bytes += bytes.len() as u64;
            probe.containers += 1;
            drop(bytes);
            let what = format!("{name} container {}", path.display());
            let loaded = {
                let _span = obs::span("perf.store_load");
                match c {
                    Container::Trace(id) => Loaded::Trace(hit(&what, store.load(id))?),
                    Container::Risc(id) => Loaded::Risc(hit(&what, store.load_risc(id))?),
                    Container::Bbv(id) => Loaded::Bbv(hit(&what, store.load_bbv(id))?),
                    Container::Live(id) => Loaded::Live(hit(&what, store.load_livepoint(id))?),
                }
            };
            let saved = {
                let _span = obs::span("perf.store_save");
                match (c, &loaded) {
                    (Container::Trace(id), Loaded::Trace(v)) => resave.save(id, v),
                    (Container::Risc(id), Loaded::Risc(v)) => resave.save_risc(id, v),
                    (Container::Bbv(id), Loaded::Bbv(v)) => resave.save_bbv(id, v),
                    (Container::Live(id), Loaded::Live(v)) => resave.save_livepoint(id, v),
                    _ => unreachable!("each container loads as its own kind"),
                }
            };
            saved.map_err(|e| format!("{what}: save: {e}"))?;
            if let (Container::Live(id), Loaded::Live(set)) = (c, loaded) {
                live.insert(id.cfg_sig, set);
            }
        }
        programs.push((
            name,
            Resolved {
                compiled,
                risc,
                log,
                trace,
                trips_plan,
                ooo_plan,
                live,
            },
        ));
    }
    let files = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .filter(|e| e.path().is_file())
        .count() as u64;
    if files != probe.containers {
        return Err(format!(
            "store holds {files} containers but the probe derived {} keys",
            probe.containers
        ));
    }

    let mut points = Vec::new();
    for (name, r) in &programs {
        for b in &spec.backends {
            match b {
                BackendSpec::Trips => {
                    for c in &spec.configs {
                        points.push(Point {
                            label: format!("{name}/trips/{}", c.name),
                            program: r,
                            backend: Backend::Trips(c.cfg.clone()),
                        });
                    }
                }
                BackendSpec::Ooo(n) => points.push(Point {
                    label: format!("{name}/{n}/-"),
                    program: r,
                    backend: Backend::Ooo(match n.as_str() {
                        "core2" => trips_ooo::core2(),
                        "p4" => trips_ooo::pentium4(),
                        _ => trips_ooo::pentium3(),
                    }),
                }),
                other => return Err(format!("probe has no replay for {other:?}")),
            }
        }
    }
    let before = counters();
    let results = parallel_map(points, threads, |p| replay_point(&p, w.live_points));
    let d = delta(&before, &counters());
    probe.tsim_events = d[TRIPS_EVENTS];
    probe.ooo_events = d[OOO_EVENTS];
    for res in results {
        let (label, est, windows, cost) = res?;
        probe.windows += windows;
        probe.cost.absorb(&cost);
        let want = reference.get(&label).and_then(|row| row.split(',').nth(12));
        if want != Some(est.to_string().as_str()) {
            probe.mismatches.push(format!(
                "{label}: probe est_cycles {est} (reference {want:?})"
            ));
        }
    }
    Ok(probe)
}

/// Replays one point through the timing core's public entry points:
/// window by window from its restored checkpoints when the workload runs
/// live-points and the plan skips work, else the whole stream. Returns
/// the label, the cycle estimate, the windows replayed and the replay's
/// cost attribution.
fn replay_point(
    p: &Point<'_>,
    live_points: bool,
) -> Result<(String, u64, u64, obs::RowCost), String> {
    // Window jobs of a sweep run on nested pool threads outside any row's
    // cost scope, so the probe opens its own around each replay.
    let scope = obs::cost::begin_row();
    let (est, windows) = replay_point_in_scope(p, live_points)?;
    Ok((p.label.clone(), est, windows, scope.finish()))
}

fn replay_point_in_scope(p: &Point<'_>, live_points: bool) -> Result<(u64, u64), String> {
    let r = p.program;
    let e = |e: &dyn std::fmt::Display| format!("{}: {e}", p.label);
    match &p.backend {
        Backend::Trips(cfg) => {
            let plan = r.trips_plan.as_deref();
            if let (true, Some(plan)) = (live_points, plan.filter(|p| !p.covers_everything())) {
                let set = &r.live[&trips_cfg_sig(cfg)];
                let LivePointStates::Trips(snaps) = &set.states else {
                    return Err(e(&"live-point set of the wrong core"));
                };
                let mut windows = Vec::new();
                for (window, snap) in plan.windows.iter().zip(snaps) {
                    let _span = obs::span("perf.replay_trips_window");
                    windows.push(
                        trips_sim::replay_trips_window(&r.compiled, cfg, &r.log, window, snap)
                            .map_err(|x| e(&x))?,
                    );
                }
                let res =
                    trips_sim::assemble_trips_phased(&r.log, plan, &windows).map_err(|x| e(&x))?;
                return Ok((res.stats.est_cycles, windows.len() as u64));
            }
            let mode = plan.map_or(ReplayMode::Full, |p| ReplayMode::Phased(p.clone()));
            let _span = obs::span("perf.replay_trips");
            let res = trips_sim::timing::replay_trace_mode(&r.compiled, cfg, &r.log, &mode)
                .map_err(|x| e(&x))?;
            Ok((res.stats.est_cycles, 0))
        }
        Backend::Ooo(cfg) => {
            let plan = r.ooo_plan.as_deref();
            if let (true, Some(plan)) = (live_points, plan.filter(|p| !p.covers_everything())) {
                let set = &r.live[&ooo_cfg_sig(cfg)];
                let LivePointStates::Ooo(snaps) = &set.states else {
                    return Err(e(&"live-point set of the wrong core"));
                };
                let mut windows = Vec::new();
                for (window, snap) in plan.windows.iter().zip(snaps) {
                    let _span = obs::span("perf.replay_ooo_window");
                    windows.push(
                        trips_ooo::replay_ooo_window(&r.risc.program, &r.trace, cfg, window, snap)
                            .map_err(|x| e(&x))?,
                    );
                }
                let res =
                    trips_ooo::assemble_ooo_phased(&r.trace, plan, &windows).map_err(|x| e(&x))?;
                return Ok((res.stats.est_cycles, windows.len() as u64));
            }
            let mode = plan.map_or(ReplayMode::Full, |p| ReplayMode::Phased(p.clone()));
            let _span = obs::span("perf.replay_ooo");
            let res = trips_ooo::run_timed_trace_mode(&r.risc.program, &r.trace, cfg, &mode)
                .map_err(|x| e(&x))?;
            Ok((res.stats.est_cycles, 0))
        }
    }
}
