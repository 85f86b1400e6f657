//! The session's four disk tiers (trace, RISC stream, phase plan,
//! live-point set): every `CacheStats` field of each, paired with the
//! `session_*` metric series that must count the same events. Shared by
//! the observability and fault-injection suites.

use trips_engine::CacheStats;

/// Every disk-tier field of `st`, each next to the series it mirrors.
pub fn tier_series(st: &CacheStats) -> [(&'static str, u64); 24] {
    [
        ("session_captures", st.captures),
        ("session_disk_hits", st.disk_hits),
        ("session_disk_misses", st.disk_misses),
        ("session_disk_rejects", st.disk_rejects),
        ("session_disk_io_errors", st.disk_io_errors),
        ("session_store_writes", st.store_writes),
        ("session_risc_captures", st.risc_captures),
        ("session_risc_disk_hits", st.risc_disk_hits),
        ("session_risc_disk_misses", st.risc_disk_misses),
        ("session_risc_disk_rejects", st.risc_disk_rejects),
        ("session_risc_disk_io_errors", st.risc_disk_io_errors),
        ("session_risc_store_writes", st.risc_store_writes),
        ("session_phase_fits", st.phase_fits),
        ("session_phase_disk_hits", st.phase_disk_hits),
        ("session_phase_disk_misses", st.phase_disk_misses),
        ("session_phase_disk_rejects", st.phase_disk_rejects),
        ("session_phase_disk_io_errors", st.phase_disk_io_errors),
        ("session_phase_store_writes", st.phase_store_writes),
        ("session_livepoint_captures", st.livepoint_captures),
        ("session_livepoint_disk_hits", st.livepoint_disk_hits),
        ("session_livepoint_disk_misses", st.livepoint_disk_misses),
        ("session_livepoint_disk_rejects", st.livepoint_disk_rejects),
        (
            "session_livepoint_disk_io_errors",
            st.livepoint_disk_io_errors,
        ),
        ("session_livepoint_store_writes", st.livepoint_store_writes),
    ]
}

/// The current value of every tier series, in [`tier_series`] order.
pub fn series_now() -> Vec<u64> {
    tier_series(&CacheStats::default())
        .iter()
        .map(|(name, _)| trips_obs::counter(name).get())
        .collect()
}

/// Asserts that every tier field of `st` (one session's counts) equals
/// the growth of its series since `before` was read.
pub fn assert_fields_match_series(st: &CacheStats, before: &[u64]) {
    let now = series_now();
    for (((name, field), old), new) in tier_series(st).iter().zip(before).zip(&now) {
        assert_eq!(
            *field,
            new - old,
            "CacheStats field for {name} disagrees with its series: {st:?}"
        );
    }
}
