//! Recovery contract under deterministic fault injection: with a seeded
//! `trips-chaos` plan armed, every sweep point resolves to an `ok` or
//! `retried` row (never an abort), corrupt containers are quarantined
//! with their evidence preserved (never unlinked), a read-error storm
//! trips the circuit breaker into memory-only degradation, and `fsck`
//! converges — a second pass over a repaired store finds nothing left to
//! do. With a zero-rate plan armed, every injection point is
//! behavior-preserving.
//!
//! Chaos arming is process-global, so this file lives in its own test
//! binary and every test (installing or not) serializes on one lock.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use proptest::prelude::*;
use trips_compiler::CompileOptions;
use trips_engine::cache::{code_sig, opts_sig};
use trips_engine::chaos::{self, FaultPlan, Profile};
use trips_engine::store::BREAKER_TRIP_AFTER;
use trips_engine::sweep::to_csv;
use trips_engine::{
    run_sweep, BackendSpec, LoadOutcome, PhaseK, PhaseSpec, ReplayMode, Session, SweepRow,
    SweepSpec, TraceStore,
};
use trips_isa::{TraceId, TraceLog, TraceMeta};
use trips_workloads::{by_name, Scale};

mod tier_series;

const MEM: usize = 1 << 22;
const BUDGET: u64 = 1_000_000;

/// Serializes every test in this binary: the armed plan is process
/// state, and even chaos-off tests must not run while another test has
/// faults firing.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// RAII guard: holds the lock, arms (or disarms) the layer, and always
/// disarms on drop so a panicking test cannot leak faults into the next.
struct Armed(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Armed {
    fn none() -> Armed {
        let g = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        chaos::disarm();
        Armed(g)
    }

    fn with(plan: FaultPlan) -> Armed {
        let g = CHAOS_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        chaos::install(plan);
        Armed(g)
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        chaos::disarm();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "chaos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A real capture of `vadd` plus its store identity, captured once per
/// process (chaos is disarmed while the caller holds the lock, so the
/// capture is clean).
fn captured_vadd() -> (TraceId, TraceLog) {
    static CACHE: OnceLock<(TraceId, TraceLog)> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let opts = CompileOptions::o1();
            let w = by_name("vadd").unwrap();
            let compiled = trips_compiler::compile(&(w.build)(Scale::Test), &opts).unwrap();
            let meta = TraceMeta {
                workload: "vadd".into(),
                scale: "test".into(),
                opts_sig: opts_sig(&opts),
            };
            let log =
                TraceLog::capture(&compiled.trips, &compiled.opt_ir, MEM, BUDGET, meta).unwrap();
            let id = TraceId {
                workload: "vadd".into(),
                scale: "test".into(),
                opts_sig: opts_sig(&opts),
                hand: false,
                code_sig: code_sig(&compiled),
                mem_size: MEM as u64,
                max_blocks: BUDGET,
            };
            (id, log)
        })
        .clone()
}

/// The 4-backend demo sweep the acceptance criteria run under fault
/// seeds: one recorded stream shared by three replay consumers.
fn demo_spec() -> SweepSpec {
    SweepSpec {
        workloads: vec!["vadd".into()],
        configs: Vec::new(),
        backends: vec![
            BackendSpec::Isa,
            BackendSpec::Risc,
            BackendSpec::Ooo("core2".into()),
            BackendSpec::Ooo("p3".into()),
        ],
        threads: 1,
        ..SweepSpec::default()
    }
}

/// The deterministic column prefix (1..=15, through `status`): everything
/// before the wall-clock and cost-attribution columns.
fn stable_rows(rows: &[SweepRow]) -> Vec<String> {
    to_csv(rows)
        .lines()
        .map(|l| l.split(',').take(15).collect::<Vec<_>>().join(","))
        .collect()
}

#[test]
fn zero_rate_plan_is_behavior_preserving() {
    let _g = Armed::none();
    let off = run_sweep(&demo_spec(), &Session::new()).unwrap();
    assert!(off.errors.is_empty(), "{:?}", off.errors);

    chaos::install(FaultPlan::new(0xDEAD_BEEF, "zero", Profile::zero()));
    assert!(chaos::enabled());
    let on = run_sweep(&demo_spec(), &Session::new()).unwrap();
    assert!(on.errors.is_empty(), "{:?}", on.errors);

    assert_eq!(
        stable_rows(&off.rows),
        stable_rows(&on.rows),
        "armed-but-inert chaos must not perturb any deterministic column"
    );
    assert!(on.rows.iter().all(|r| r.status == "ok"));
}

#[test]
fn seeded_fault_sweep_resolves_every_row_ok_or_retried() {
    // A pinned seed under the `ci` profile (CI's chaos job pins its own
    // seed for the CLI path): injects a forced job panic plus I/O
    // faults, and the sweep must absorb all of it — no abort, no failed
    // rows, and the measurement columns identical to a clean run.
    let clean = {
        let _g = Armed::none();
        run_sweep(&demo_spec(), &Session::new()).unwrap()
    };
    let _g = Armed::with(FaultPlan::new(3, "ci", Profile::ci()));
    let dir = tmp_dir("ci-sweep");
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    let report = run_sweep(&demo_spec(), &session).unwrap();

    assert_eq!(report.rows.len(), 4);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    for row in &report.rows {
        assert!(
            row.status == "ok" || row.status == "retried",
            "no row may fail under the pinned seed: {row:?}"
        );
        assert!(row.cycles > 0, "{row:?}");
    }
    assert!(
        report.rows.iter().any(|r| r.status == "retried"),
        "panic_budget=1 forces at least one retried row"
    );
    // Measurement columns (not the status column — a retry is visible
    // there by design) match the clean run: faults never corrupt data.
    let strip = |rows: &[SweepRow]| -> Vec<String> {
        stable_rows(rows)
            .iter()
            .map(|l| l.split(',').take(14).collect::<Vec<_>>().join(","))
            .collect()
    };
    assert_eq!(strip(&clean.rows), strip(&report.rows));
}

#[test]
fn bitflipped_container_is_quarantined_with_reason_never_unlinked() {
    let _g = Armed::with(FaultPlan::new(
        7,
        "bitflip",
        Profile {
            bitflip_ppm: 1_000_000,
            ..Profile::zero()
        },
    ));
    let dir = tmp_dir("bitflip");
    let (id, log) = captured_vadd();
    let store = TraceStore::open(&dir).unwrap();
    store.save(&id, &log).unwrap();
    let path = store.path_for(&id);
    let corrupted = std::fs::read(&path).unwrap();

    // The full-rate post-rename bitflip corrupted the payload; the write
    // itself succeeded, so only a verified load can catch it.
    chaos::disarm();
    match store.load(&id) {
        LoadOutcome::Reject(why) => assert!(why.contains("hash"), "{why}"),
        other => panic!("expected a reject, got {other:?}"),
    }
    assert!(!path.exists(), "rejected container must leave the hot path");
    let qpath = dir.join("quarantine").join(path.file_name().unwrap());
    assert_eq!(
        std::fs::read(&qpath).unwrap(),
        corrupted,
        "quarantine must preserve the evidence byte-for-byte, never unlink it"
    );
    let reason_path = dir.join("quarantine").join(format!(
        "{}.reason",
        path.file_name().unwrap().to_string_lossy()
    ));
    let reason = std::fs::read_to_string(&reason_path).unwrap();
    assert!(reason.contains("hash"), "sidecar names the cause: {reason}");

    // A fresh save restores service over the vacated key.
    store.save(&id, &log).unwrap();
    match store.load(&id) {
        LoadOutcome::Hit(back) => assert_eq!(*back, log),
        other => panic!("recapture must restore service, got {other:?}"),
    }
    let s = store.stats().unwrap();
    assert_eq!((s.quarantined, s.containers), (1, 1), "{s:?}");
    assert!(s.quarantine_bytes > 0);
}

#[test]
fn persistent_write_failure_surfaces_after_bounded_retries() {
    let _g = Armed::with(FaultPlan::new(
        11,
        "enospc",
        Profile {
            enospc_ppm: 1_000_000,
            ..Profile::zero()
        },
    ));
    let dir = tmp_dir("enospc");
    let (id, log) = captured_vadd();
    let store = TraceStore::open(&dir).unwrap();
    let before = trips_obs::counter("store_retries_total").get();
    assert!(store.save(&id, &log).is_err(), "full device must surface");
    assert!(
        trips_obs::counter("store_retries_total").get() >= before + 2,
        "each save retries with backoff before giving up"
    );
    // No debris: the failed attempts left neither temp files nor a
    // partial container.
    let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(entries.is_empty(), "debris: {entries:?}");
    // The device recovers -> the same store serves again (breaker not yet
    // tripped by a single failed save).
    chaos::disarm();
    store.save(&id, &log).unwrap();
    assert!(matches!(store.load(&id), LoadOutcome::Hit(_)));
}

#[test]
fn io_failure_storm_trips_the_breaker_and_degrades_to_memory_tiers() {
    // Every read AND every write fails: with nothing resetting the
    // consecutive-failure counter, two requests (one failed load + one
    // failed save each) reach BREAKER_TRIP_AFTER = 4 and latch the
    // breaker open. The remaining requests must skip the disk entirely —
    // and every request still succeeds from the capture tier.
    let _g = Armed::with(FaultPlan::new(
        13,
        "iostorm",
        Profile {
            read_err_ppm: 1_000_000,
            enospc_ppm: 1_000_000,
            ..Profile::zero()
        },
    ));
    let dir = tmp_dir("breaker");
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    let w = by_name("vadd").unwrap();
    for i in 0..(BREAKER_TRIP_AFTER + 2) {
        let log = session
            .trace(
                &w,
                Scale::Test,
                &CompileOptions::o1(),
                false,
                MEM,
                BUDGET - i,
            )
            .unwrap();
        assert!(!log.seq.is_empty());
    }
    let st = session.cache_stats();
    assert_eq!(
        st.disk_io_errors,
        BREAKER_TRIP_AFTER / 2,
        "only pre-trip requests reach the disk: {st:?}"
    );
    assert!(
        st.degraded > 0,
        "post-trip consults count degradation: {st:?}"
    );
    assert_eq!(st.store_writes, 0, "no write ever landed: {st:?}");
    assert_eq!(
        st.captures,
        BREAKER_TRIP_AFTER + 2,
        "all rows captured fresh"
    );
}

#[test]
fn read_errors_count_into_each_tiers_own_io_error_series() {
    // An I/O-read plan that fails every container read: each of the
    // four disk tiers (trace, RISC stream, phase plan, live-point set)
    // meets an I/O error, recaptures, and writes back (no write faults,
    // so the successful saves keep the breaker closed). Each tier's
    // `*_disk_io_errors` field must equal its own series.
    let _g = Armed::with(FaultPlan::new(
        13,
        "io",
        Profile {
            read_err_ppm: 1_000_000,
            ..Profile::zero()
        },
    ));
    let dir = tmp_dir("io-tiers");
    let before = tier_series::series_now();
    let session = Session::with_store(TraceStore::open(&dir).unwrap());
    session.set_live_points(1);
    let w = by_name("vadd").unwrap();
    let opts = CompileOptions::o1();
    let spec = PhaseSpec {
        interval: 8,
        warmup: 4,
        k: PhaseK::Auto,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    };
    let plan = session
        .trips_phase_plan(&w, Scale::Test, &opts, false, MEM, BUDGET, &spec)
        .unwrap();
    let mode = ReplayMode::Phased((*plan).clone());
    let cfg = trips_sim::TripsConfig::prototype();
    session
        .replayed(&w, Scale::Test, &opts, false, &cfg, MEM, BUDGET, &mode)
        .unwrap();
    session
        .risc_trace(&w, Scale::Test, &opts, MEM, BUDGET)
        .unwrap();
    let st = session.cache_stats();
    assert_eq!(
        (
            st.disk_io_errors,
            st.risc_disk_io_errors,
            st.phase_disk_io_errors,
            st.livepoint_disk_io_errors
        ),
        (1, 1, 1, 1),
        "every tier's one load must fail with an I/O error: {st:?}"
    );
    assert_eq!(st.degraded, 0, "saves succeed, so the breaker stays closed");
    tier_series::assert_fields_match_series(&st, &before);
}

#[test]
fn fsck_repairs_debris_quarantines_damage_and_converges() {
    let _g = Armed::none();
    let dir = tmp_dir("fsck");
    let (id, log) = captured_vadd();
    let store = TraceStore::open(&dir).unwrap();
    store.save(&id, &log).unwrap();

    // One bit-flipped container (under a foreign key so the good one
    // stays), one truncated-mid-header file, one orphaned temp file.
    let mut bytes = std::fs::read(store.path_for(&id)).unwrap();
    let mid = bytes.len() - 9;
    bytes[mid] ^= 0x10;
    std::fs::write(dir.join("00000000000000aa.trace"), &bytes).unwrap();
    std::fs::write(dir.join("00000000000000bb.trace"), &bytes[..17]).unwrap();
    std::fs::write(dir.join(".tmp-deadbeef-1-0"), b"half a write").unwrap();

    let r1 = store.fsck().unwrap();
    assert_eq!(
        (r1.scanned, r1.ok, r1.quarantined, r1.repaired_tmp),
        (3, 1, 2, 1),
        "{r1:?}"
    );
    assert_eq!(r1.quarantine_containers, 2);

    // Convergence: a second pass finds a clean store and nothing to do.
    let r2 = store.fsck().unwrap();
    assert_eq!(
        (r2.scanned, r2.ok, r2.quarantined, r2.repaired_tmp),
        (1, 1, 0, 0),
        "fsck must converge: {r2:?}"
    );
    assert_eq!(r2.quarantine_containers, 2, "evidence persists");
    // The good container still serves.
    assert!(matches!(store.load(&id), LoadOutcome::Hit(_)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash consistency: an arbitrary torn write (any proper prefix of
    /// a container) or an arbitrary single-bit flip is never served —
    /// and one fsck pass leaves a store a second pass finds clean.
    #[test]
    fn torn_or_flipped_containers_are_never_served_and_fsck_converges(
        cut_frac in 0usize..1000,
        flip in any::<u32>(),
    ) {
        let _g = Armed::none();
        let dir = tmp_dir("prop");
        let (id, log) = captured_vadd();
        let store = TraceStore::open(&dir).unwrap();
        store.save(&id, &log).unwrap();
        let path = store.path_for(&id);
        let full = std::fs::read(&path).unwrap();

        // Torn write: any proper prefix must reject (and be quarantined),
        // never decode into a wrong trace.
        let cut = cut_frac * (full.len() - 1) / 999;
        std::fs::write(&path, &full[..cut]).unwrap();
        match store.load(&id) {
            LoadOutcome::Reject(_) => {}
            other => prop_assert!(false, "torn write served: {other:?}"),
        }
        prop_assert!(!path.exists());

        // Single-bit flip anywhere in the container: same guarantee,
        // this time discovered by fsck rather than a load. A flip in the
        // version field reads as a cleanly versioned-out container —
        // `stale`, prune's domain — but is still never counted `ok`.
        std::fs::write(&path, &full).unwrap();
        let mut bytes = full.clone();
        let at = (flip as usize) % bytes.len();
        bytes[at] ^= 1 << (flip % 8);
        std::fs::write(&path, &bytes).unwrap();
        let r1 = store.fsck().unwrap();
        prop_assert_eq!(r1.ok, 0);
        prop_assert_eq!(r1.quarantined + r1.stale, 1);
        let r2 = store.fsck().unwrap();
        prop_assert_eq!(r2.ok, 0);
        prop_assert_eq!(r2.quarantined, 0, "fsck must converge");
        match store.load(&id) {
            LoadOutcome::Miss | LoadOutcome::Reject(_) => {}
            other => prop_assert!(false, "flipped container served: {other:?}"),
        }
    }
}
