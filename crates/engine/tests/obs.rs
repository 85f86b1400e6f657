//! Observability must be invisible in the measurements: an instrumented
//! sweep and a bare one produce byte-identical deterministic columns, and
//! the spans/metrics/cost the instrumented run emits must be coherent.
//!
//! Everything lives in one `#[test]` because the span sink is
//! process-global: the bare sweep has to run before `enable_trace`.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, PoisonError};

use trips_compiler::CompileOptions;
use trips_engine::sweep::to_csv;
use trips_engine::{
    run_sweep, BackendSpec, CacheStats, ConfigVariant, PhaseK, PhaseSpec, ReplayMode, Session,
    SweepSpec, TraceStore,
};
use trips_workloads::{by_name, Scale};

mod tier_series;

/// Serializes the tests in this binary: metrics are process-global, so a
/// test reading series deltas must not overlap another test's sessions.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// CSV rows truncated to the 15 deterministic columns (through `status`;
/// wall_ms and the RowCost columns after it are timing-dependent).
fn stable_rows(csv: &str) -> Vec<String> {
    csv.lines()
        .skip(1)
        .map(|l| l.split(',').take(15).collect::<Vec<_>>().join(","))
        .collect()
}

fn spec() -> SweepSpec {
    SweepSpec {
        workloads: vec!["vadd".into()],
        threads: 2,
        ..SweepSpec::default()
    }
}

#[test]
fn obs_is_invisible_in_rows_and_coherent_in_telemetry() {
    let _serial = serial();
    // --- Bare sweep: no trace sink installed. -------------------------
    let session = Session::new();
    let bare = run_sweep(&spec(), &session).expect("bare sweep");
    assert_eq!(bare.rows.len(), 2, "1 workload x 2 configs");

    // Cost attribution on a fresh session: exactly one row won the
    // capture race (the other waited on the in-flight OnceLock and read
    // from memory), and every full-replay row spent detailed time.
    let tiers: Vec<&str> = bare.rows.iter().map(|r| r.cost.tier.as_str()).collect();
    assert_eq!(
        tiers.iter().filter(|t| **t == "capture").count(),
        1,
        "tiers: {tiers:?}"
    );
    for row in &bare.rows {
        assert!(row.cost.detailed_ns > 0, "full replay must time in detail");
        if row.cost.tier == "capture" {
            assert!(row.cost.capture_ns > 0);
        }
    }
    assert!(bare.cost_totals.capture_ns > 0);
    assert!(bare.cost_totals.detailed_ns > 0);

    // Same session again: every artifact (including the replay result)
    // is memoized, so no simulation nanoseconds are spent at all.
    let memo = run_sweep(&spec(), &session).expect("memoized sweep");
    for row in &memo.rows {
        assert_eq!(row.cost.tier, "memo");
        assert_eq!(row.cost.capture_ns, 0);
        assert_eq!(row.cost.detailed_ns, 0);
    }
    assert_eq!(
        stable_rows(&to_csv(&bare.rows)),
        stable_rows(&to_csv(&memo.rows))
    );

    // --- Instrumented sweep: journal every span. ----------------------
    let journal = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs-journal.jsonl");
    trips_obs::enable_trace(&journal).expect("install trace sink");
    let traced = run_sweep(&spec(), &Session::new()).expect("traced sweep");
    // A cold then a warm store-backed sweep: container saves and loads
    // land in the journal split into their encode / read / verify /
    // decode parts.
    let store_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("obs-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    for _ in 0..2 {
        let store = TraceStore::open(&store_dir).expect("open store");
        let rows = run_sweep(&spec(), &Session::with_store(store))
            .expect("store-backed sweep")
            .rows;
        assert_eq!(
            stable_rows(&to_csv(&bare.rows)),
            stable_rows(&to_csv(&rows))
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    trips_obs::flush_trace();

    // The measurements are byte-identical with tracing on.
    assert_eq!(
        stable_rows(&to_csv(&bare.rows)),
        stable_rows(&to_csv(&traced.rows)),
        "tracing must not perturb a single measurement column"
    );

    // The journal folds into a self-profile that attributes the run.
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let records = trips_obs::report::parse_journal(&text).expect("journal parses");
    let profile = trips_obs::fold_report(&records);
    let labels: Vec<&str> = profile.labels.iter().map(|l| l.label.as_str()).collect();
    for expected in [
        "sweep.run",
        "sweep.point",
        "pool.worker",
        "session.replay_trips",
        "store.save",
        "store.encode",
        "store.load",
        "store.read",
        "store.verify",
        "store.decode",
    ] {
        assert!(
            labels.contains(&expected),
            "missing {expected} in {labels:?}"
        );
    }
    assert!(
        profile.coverage >= 0.95,
        "span coverage {:.3} below the acceptance bar",
        profile.coverage
    );

    // The metrics registry carries the headline series.
    let snap = trips_obs::snapshot_text();
    for series in [
        "session_captures",
        "session_disk_hits",
        "pool_jobs_total",
        "pool_steals_total",
        "pool_worker_busy_ns",
        "store_read_bytes_total",
        "replay_events_total{core=\"trips\"}",
    ] {
        assert!(snap.contains(series), "missing {series} in snapshot");
    }
    assert!(
        trips_obs::counter("replay_events_total{core=\"trips\"}").get() > 0,
        "trips replay loop must count its events"
    );
}

/// One store-backed session over vadd and autocor: TRIPS and core2
/// points, both phased under plans short enough to skip work, with the
/// live-point tier on, so every disk tier is consulted.
fn phased_live_pass(store_dir: &std::path::Path) -> CacheStats {
    const MEM: usize = 1 << 22;
    let session = Session::with_store(TraceStore::open(store_dir).expect("open store"));
    session.set_live_points(1);
    let opts = CompileOptions::o1();
    let trips_spec = PhaseSpec {
        interval: 8,
        warmup: 4,
        k: PhaseK::Auto,
        floor: 0,
        rep_span: 4,
        boundary: 1,
        tail: 1,
    };
    let ooo_spec = PhaseSpec {
        interval: 256,
        warmup: 64,
        ..trips_spec
    };
    let trips_cfg = trips_sim::TripsConfig::prototype();
    let core2 = trips_ooo::core2();
    for name in ["vadd", "autocor"] {
        let w = by_name(name).expect("bundled workload");
        let plan = session
            .trips_phase_plan(&w, Scale::Test, &opts, false, MEM, 1_000_000, &trips_spec)
            .expect("trips plan");
        assert!(
            !plan.covers_everything(),
            "{name}: trips plan must skip work"
        );
        let mode = ReplayMode::Phased((*plan).clone());
        session
            .replayed(
                &w,
                Scale::Test,
                &opts,
                false,
                &trips_cfg,
                MEM,
                1_000_000,
                &mode,
            )
            .expect("trips replay");
        let plan = session
            .ooo_phase_plan(&w, Scale::Test, &opts, MEM, 400_000_000, &ooo_spec)
            .expect("ooo plan");
        assert!(!plan.covers_everything(), "{name}: ooo plan must skip work");
        let mode = ReplayMode::Phased((*plan).clone());
        session
            .ooo_replayed(&w, Scale::Test, &opts, &core2, MEM, 400_000_000, &mode)
            .expect("ooo replay");
    }
    session.cache_stats()
}

#[test]
fn every_disk_tier_counter_matches_its_metric_series_cold_and_warm() {
    let _serial = serial();
    let store_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("obs-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    let before = tier_series::series_now();
    let cold = phased_live_pass(&store_dir);
    tier_series::assert_fields_match_series(&cold, &before);
    assert!(
        cold.captures > 0 && cold.risc_captures > 0 && cold.phase_fits > 0,
        "the cold pass must produce every artifact: {cold:?}"
    );
    assert!(cold.livepoint_captures > 0, "{cold:?}");

    let before = tier_series::series_now();
    let warm = phased_live_pass(&store_dir);
    tier_series::assert_fields_match_series(&warm, &before);
    assert_eq!(
        (
            warm.captures,
            warm.risc_captures,
            warm.phase_fits,
            warm.livepoint_captures
        ),
        (0, 0, 0, 0),
        "a warm store must serve every tier from disk: {warm:?}"
    );
    for (tier, hits) in [
        ("trace", warm.disk_hits),
        ("risc", warm.risc_disk_hits),
        ("phase", warm.phase_disk_hits),
        ("livepoint", warm.livepoint_disk_hits),
    ] {
        assert!(
            hits > 0,
            "the warm {tier} tier never hit the disk: {warm:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn warm_live_point_rows_count_their_window_jobs_at_two_threads() {
    // With two threads the window jobs run on spawned pool workers, which
    // have no row cost scope of their own: their restore and replay time
    // must still land in the row that asked for them.
    let _serial = serial();
    let store_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("obs-window-cost-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    // `conv` at Ref scale classifies under the default phase specs of
    // both cores, so each row's plan has several windows.
    let spec = SweepSpec {
        workloads: vec!["conv".into()],
        scale: Scale::Ref,
        configs: vec![ConfigVariant::prototype()],
        backends: vec![BackendSpec::Trips, BackendSpec::Ooo("core2".into())],
        phase: Some(PhaseK::Auto),
        live_points: true,
        threads: 2,
        ..SweepSpec::default()
    };
    let sweep = || {
        let session = Session::with_store(TraceStore::open(&store_dir).expect("open store"));
        let report = run_sweep(&spec, &session).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        (report.rows, session.cache_stats())
    };
    let (_, cold) = sweep();
    assert!(cold.livepoint_captures > 0, "{cold:?}");
    let (rows, warm) = sweep();
    assert_eq!(warm.livepoint_captures, 0, "{warm:?}");
    assert!(warm.livepoint_disk_hits > 0, "{warm:?}");
    let live: Vec<_> = rows.iter().filter(|r| r.phase_k > 0).collect();
    assert_eq!(live.len(), 2, "both cores must take the live-point path");
    for r in live {
        assert!(
            r.cost.detailed_ns > 0 && r.cost.checkpoint_restore_ns > 0,
            "{} {}: window job time missing from the row: {:?}",
            r.workload,
            r.backend,
            r.cost
        );
    }
    let _ = std::fs::remove_dir_all(&store_dir);
}

#[test]
fn a_row_blocked_on_another_rows_capture_books_the_wait() {
    // On a cold session both TRIPS configs need the same conv capture;
    // at two threads one row usually blocks on the other's in-flight
    // capture. That wait is the row's wall-clock too, so its cost columns
    // must still cover most of `wall_ms` (before the wait had a column,
    // the blocked row accounted for ~13% of its wall-clock).
    let _serial = serial();
    let spec = SweepSpec {
        workloads: vec!["conv".into()],
        scale: Scale::Ref,
        backends: vec![BackendSpec::Trips, BackendSpec::Ooo("core2".into())],
        phase: Some(PhaseK::Auto),
        live_points: true,
        threads: 2,
        ..SweepSpec::default()
    };
    let report = run_sweep(&spec, &Session::new()).unwrap();
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let trips: Vec<_> = report
        .rows
        .iter()
        .filter(|r| r.backend == "trips")
        .collect();
    assert_eq!(trips.len(), 2, "prototype and improved");
    for r in trips {
        let covered_ms = r.cost.attributed_ns() as f64 / 1e6;
        assert!(
            covered_ms >= 0.5 * r.wall_ms,
            "{}/{}: cost columns cover {covered_ms:.1} of {:.1} ms: {:?}",
            r.backend,
            r.config,
            r.wall_ms,
            r.cost
        );
    }
    assert_eq!(
        report.cost_totals.memo_wait_ns,
        report.rows.iter().map(|r| r.cost.memo_wait_ns).sum::<u64>()
    );
}
