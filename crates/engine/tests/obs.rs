//! Observability must be invisible in the measurements: an instrumented
//! sweep and a bare one produce byte-identical deterministic columns, and
//! the spans/metrics/cost the instrumented run emits must be coherent.
//!
//! Everything lives in one `#[test]` because the span sink is
//! process-global: the bare sweep has to run before `enable_trace`.

use std::path::PathBuf;

use trips_engine::sweep::to_csv;
use trips_engine::{run_sweep, Session, SweepSpec, TraceStore};

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
