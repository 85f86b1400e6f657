//! Golden OoO replay statistics: the exact [`OooStats`] the Core 2,
//! Pentium 4 and Pentium 3 models produce on two bundled workloads at test
//! scale — full replay, one interval-sampled plan, and one hand-made phase
//! plan (through both the plain phased replay and the live-point capture
//! pass) — plus the byte length and hash of every captured snapshot.
//!
//! The other OoO tests compare replay paths with each other; this file pins
//! the values themselves, so a change that moves one cycle on any path (or
//! one byte of a live-point) fails here even when every path moves alike.
use trips_ooo::{
    core2, pentium3, pentium4, run_ooo_phased_capture, run_timed_trace, run_timed_trace_mode,
    OooConfig, OooStats,
};
use trips_risc::{RProgram, RiscTrace, RiscTraceMeta};
use trips_sample::{PhasePlan, PhaseWindow, ReplayMode, SamplePlan};

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn render(s: &OooStats) -> String {
    format!(
        "cycles={} est_cycles={} insts={} total_insts={} sampled={} branches={} \
         br_mispredicts={} ras_mispredicts={} l1_accesses={} l1_misses={} l2_misses={}",
        s.cycles,
        s.est_cycles,
        s.insts,
        s.total_insts,
        s.sampled,
        s.branches,
        s.br_mispredicts,
        s.ras_mispredicts,
        s.l1_accesses,
        s.l1_misses,
        s.l2_misses,
    )
}

/// A phase plan over `total` units: the two boundary windows, one interior
/// representative with a timed warmup, weighted over the middle.
fn phase_plan(total: u64) -> PhasePlan {
    let edge = total / 8;
    let warm = total / 3;
    let detail = warm + total / 20;
    let end = detail + total / 10;
    let window = |warm_start, detail_start, end, weight_units| PhaseWindow {
        warm_start,
        detail_start,
        end,
        weight_units,
    };
    PhasePlan {
        interval: edge,
        total_units: total,
        k: 1,
        windows: vec![
            window(0, 0, edge, edge),
            window(warm, detail, end, total - 2 * edge),
            window(total - edge, total - edge, total, edge),
        ],
        assignments: vec![],
    }
}

fn workload(name: &str) -> (RProgram, RiscTrace) {
    let w = trips_workloads::by_name(name).unwrap();
    let ir = (w.build)(trips_workloads::Scale::Test);
    let rp = trips_risc::compile_program(&ir).unwrap();
    let trace = RiscTrace::capture(&rp, &ir, 1 << 22, u64::MAX, RiscTraceMeta::default()).unwrap();
    (rp, trace)
}

fn configs() -> [(&'static str, OooConfig); 3] {
    [
        ("core2", core2()),
        ("pentium4", pentium4()),
        ("pentium3", pentium3()),
    ]
}

fn runs() -> Vec<String> {
    let mut out = Vec::new();
    for name in ["bzip2", "cacheb"] {
        let (rp, trace) = workload(name);
        let total = trace.header.dynamic_insts;
        let sampled = ReplayMode::Sampled(SamplePlan::new(64, 64, 512).unwrap());
        let plan = phase_plan(total);
        plan.validate().unwrap();
        for (cname, cfg) in configs() {
            let key = format!("{name}/{cname}");
            let full = run_timed_trace(&rp, &trace, &cfg).unwrap().stats;
            out.push(format!("{key} full: {}", render(&full)));
            let s = run_timed_trace_mode(&rp, &trace, &cfg, &sampled)
                .unwrap()
                .stats;
            out.push(format!("{key} sampled: {}", render(&s)));
            let phased = run_timed_trace_mode(&rp, &trace, &cfg, &ReplayMode::Phased(plan.clone()))
                .unwrap()
                .stats;
            out.push(format!("{key} phased: {}", render(&phased)));
            let (captured, snaps) = run_ooo_phased_capture(&rp, &trace, &cfg, &plan).unwrap();
            out.push(format!("{key} captured: {}", render(&captured.stats)));
            let bytes: Vec<(usize, u64)> = snaps
                .iter()
                .map(|s| {
                    let b = serde::bin::to_bytes(s);
                    (b.len(), fnv(&b))
                })
                .collect();
            out.push(format!("{key} snapshots: {bytes:?}"));
        }
    }
    out
}

#[test]
fn ooo_replay_stats_and_livepoint_bytes_match_the_golden_table() {
    let got = runs();
    let want: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(got.len(), want.len(), "{}", got.join("\n"));
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "OoO replay statistics or snapshot bytes drifted");
    }
}

/// Captured from the per-path replay loops this file was written against.
const GOLDEN: &str = r#"bzip2/core2 full: cycles=25955 est_cycles=25955 insts=71631 total_insts=71631 sampled=false branches=6240 br_mispredicts=198 ras_mispredicts=0 l1_accesses=12392 l1_misses=29 l2_misses=29
bzip2/core2 sampled: cycles=4422 est_cycles=27804 insts=10752 total_insts=71631 sampled=true branches=955 br_mispredicts=32 ras_mispredicts=0 l1_accesses=1755 l1_misses=8 l2_misses=8
bzip2/core2 phased: cycles=9210 est_cycles=25668 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=13 l2_misses=13
bzip2/core2 captured: cycles=9210 est_cycles=25668 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=13 l2_misses=13
bzip2/core2 snapshots: [(620, 12363893476362382289), (16038, 10169245583441797771), (20497, 2468372657469987867)]
bzip2/pentium4 full: cycles=40380 est_cycles=40380 insts=71631 total_insts=71631 sampled=false branches=6240 br_mispredicts=198 ras_mispredicts=0 l1_accesses=12392 l1_misses=29 l2_misses=29
bzip2/pentium4 sampled: cycles=6538 est_cycles=39257 insts=10752 total_insts=71631 sampled=true branches=955 br_mispredicts=32 ras_mispredicts=0 l1_accesses=1755 l1_misses=8 l2_misses=8
bzip2/pentium4 phased: cycles=14297 est_cycles=39576 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=13 l2_misses=13
bzip2/pentium4 captured: cycles=14297 est_cycles=39576 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=13 l2_misses=13
bzip2/pentium4 snapshots: [(684, 15338210326741816235), (18996, 9071189670649303532), (26431, 12582878299223628005)]
bzip2/pentium3 full: cycles=31689 est_cycles=31689 insts=71631 total_insts=71631 sampled=false branches=6240 br_mispredicts=198 ras_mispredicts=0 l1_accesses=12392 l1_misses=57 l2_misses=57
bzip2/pentium3 sampled: cycles=4961 est_cycles=31959 insts=10752 total_insts=71631 sampled=true branches=955 br_mispredicts=32 ras_mispredicts=0 l1_accesses=1755 l1_misses=15 l2_misses=15
bzip2/pentium3 phased: cycles=11167 est_cycles=31461 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=24 l2_misses=24
bzip2/pentium3 captured: cycles=11167 est_cycles=31461 insts=25069 total_insts=71631 sampled=true branches=2179 br_mispredicts=72 ras_mispredicts=0 l1_accesses=4299 l1_misses=24 l2_misses=24
bzip2/pentium3 snapshots: [(508, 13830441448970895225), (21176, 14045789719674201177), (19508, 5557616502297105005)]
cacheb/core2 full: cycles=5830 est_cycles=5830 insts=12309 total_insts=12309 sampled=false branches=1026 br_mispredicts=5 ras_mispredicts=0 l1_accesses=1028 l1_misses=65 l2_misses=65
cacheb/core2 sampled: cycles=2513 est_cycles=6261 insts=3392 total_insts=12309 sampled=true branches=283 br_mispredicts=3 ras_mispredicts=0 l1_accesses=284 l1_misses=62 l2_misses=62
cacheb/core2 phased: cycles=3138 est_cycles=5792 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=65 l2_misses=65
cacheb/core2 captured: cycles=3138 est_cycles=5792 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=65 l2_misses=65
cacheb/core2 snapshots: [(620, 12363893476362382289), (5573, 12796750410467253217), (8728, 6704080712835370118)]
cacheb/pentium4 full: cycles=8053 est_cycles=8053 insts=12309 total_insts=12309 sampled=false branches=1026 br_mispredicts=5 ras_mispredicts=0 l1_accesses=1028 l1_misses=65 l2_misses=65
cacheb/pentium4 sampled: cycles=3654 est_cycles=7064 insts=3392 total_insts=12309 sampled=true branches=283 br_mispredicts=3 ras_mispredicts=0 l1_accesses=284 l1_misses=62 l2_misses=62
cacheb/pentium4 phased: cycles=4479 est_cycles=7133 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=65 l2_misses=65
cacheb/pentium4 captured: cycles=4479 est_cycles=7133 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=65 l2_misses=65
cacheb/pentium4 snapshots: [(684, 15338210326741816235), (5547, 17307210052855723025), (8706, 12723177817770900892)]
cacheb/pentium3 full: cycles=8817 est_cycles=8817 insts=12309 total_insts=12309 sampled=false branches=1026 br_mispredicts=5 ras_mispredicts=0 l1_accesses=1028 l1_misses=129 l2_misses=129
cacheb/pentium3 sampled: cycles=2804 est_cycles=9020 insts=3392 total_insts=12309 sampled=true branches=283 br_mispredicts=3 ras_mispredicts=0 l1_accesses=284 l1_misses=74 l2_misses=74
cacheb/pentium3 phased: cycles=3184 est_cycles=6170 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=75 l2_misses=75
cacheb/pentium3 captured: cycles=3184 est_cycles=6170 insts=4306 total_insts=12309 sampled=true branches=359 br_mispredicts=3 ras_mispredicts=0 l1_accesses=361 l1_misses=75 l2_misses=75
cacheb/pentium3 snapshots: [(508, 13830441448970895225), (7034, 1284828291080310924), (10515, 13851626367917984411)]"#;
