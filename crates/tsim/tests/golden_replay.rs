//! Golden replay statistics: the exact counters full TRIPS replays produce
//! for a small counted loop (three optimization levels × two machine
//! configurations) and for four memory-bound bundled workloads, plus a
//! sampled and a phased replay's counters and live-point snapshot bytes.
//! The timing model's contention bookkeeping (operand network link claims,
//! bank ports, the per-block dataflow scratch) may be reimplemented for
//! speed, but never at the cost of one cycle: any change that moves a
//! single contention cycle fails here.
use trips_compiler::{compile, CompileOptions};
use trips_ir::{IntCc, Operand, ProgramBuilder};
use trips_isa::TraceLog;
use trips_sample::{PhasePlan, PhaseWindow};
use trips_sim::{
    replay_trace, replay_trace_mode, replay_trace_phased_capture, ReplayMode, SamplePlan, SimStats,
    TripsConfig,
};

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

/// The pinned fields of one run, rendered as one line.
fn render(s: &SimStats) -> String {
    let mut hist: Vec<(String, [u64; 6])> = s
        .opn
        .hist
        .iter()
        .map(|(c, h)| (format!("{c:?}"), *h))
        .collect();
    hist.sort();
    format!(
        "cycles={} blocks={} packets={} hops={} contention={} bank_conflicts={} \
         l1d_misses={} load_flushes={} window_inst_cycles={} hist={hist:?}",
        s.cycles,
        s.blocks,
        s.opn.packets,
        s.opn.total_hops,
        s.opn.contention_cycles,
        s.bank_conflict_cycles,
        s.l1d_misses,
        s.load_flushes,
        s.window_inst_cycles,
    )
}

fn runs() -> Vec<(String, String)> {
    let p = sum_program(3000);
    let mut out = Vec::new();
    for (oname, opts) in [
        ("O0", CompileOptions::o0()),
        ("O1", CompileOptions::o1()),
        ("O2", CompileOptions::o2()),
    ] {
        let compiled = compile(&p, &opts).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 20,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        for (cname, cfg) in [
            ("prototype", TripsConfig::prototype()),
            ("improved_predictor", TripsConfig::improved_predictor()),
        ] {
            let r = replay_trace(&compiled, &cfg, &log).unwrap();
            assert_eq!(r.return_value, (0..3000).sum::<i64>() as u64);
            out.push((format!("{oname}/{cname}"), render(&r.stats)));
        }
    }
    out
}

/// Memory-bound bundled workloads at test scale, so the data-tile bank
/// ports, the DRAM channel claims and the load-wait flushes are pinned
/// too (the counted loop above never touches memory): `bzip2` and
/// `equake` contend for banks, `cacheb` misses to DRAM on most loads,
/// and `vpr` takes load-order violation flushes. The small L1D
/// matches the benchmark sweep's `l1d_bytes=8192` point.
fn memory_runs() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for name in ["bzip2", "vpr", "cacheb", "equake"] {
        let w = trips_workloads::by_name(name).unwrap();
        let p = (w.build)(trips_workloads::Scale::Test);
        let compiled = compile(&p, &CompileOptions::o2()).unwrap();
        let log = TraceLog::capture(
            &compiled.trips,
            &compiled.opt_ir,
            1 << 22,
            u64::MAX,
            Default::default(),
        )
        .unwrap();
        let mut small = TripsConfig::prototype();
        small.l1d_bytes = 8192;
        small.dispatch_interval = 8;
        for (cname, cfg) in [("prototype", TripsConfig::prototype()), ("l1d8k", small)] {
            let r = replay_trace(&compiled, &cfg, &log).unwrap();
            out.push((format!("{name}/{cname}"), render(&r.stats)));
        }
    }
    out
}

/// Values produced by the hash-set claim-set implementation of the timing
/// core; any reimplementation must reproduce them exactly.
const GOLDEN: &[(&str, &str)] = &[
    (
        "O0/prototype",
        r#"cycles=18590 blocks=3002 packets=30006 hops=21007 contention=3005 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=987725 hist=[("EtEt", [12001, 0, 0, 0, 0, 0]), ("EtGt", [0, 0, 3001, 1, 0, 0]), ("EtRt", [1, 15002, 0, 0, 0, 0])]"#,
    ),
    (
        "O0/improved_predictor",
        r#"cycles=18590 blocks=3002 packets=30006 hops=21007 contention=3005 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=987725 hist=[("EtEt", [12001, 0, 0, 0, 0, 0]), ("EtGt", [0, 0, 3001, 1, 0, 0]), ("EtRt", [1, 15002, 0, 0, 0, 0])]"#,
    ),
    (
        "O1/prototype",
        r#"cycles=12612 blocks=1502 packets=40516 hops=34513 contention=4526 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=2552880 hist=[("EtEt", [18007, 7503, 1500, 1, 0, 0]), ("EtGt", [0, 0, 2, 1499, 1, 0]), ("EtRt", [1, 4503, 7498, 1, 0, 0])]"#,
    ),
    (
        "O1/improved_predictor",
        r#"cycles=12612 blocks=1502 packets=40516 hops=34513 contention=4526 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=2552880 hist=[("EtEt", [18007, 7503, 1500, 1, 0, 0]), ("EtGt", [0, 0, 2, 1499, 1, 0]), ("EtRt", [1, 4503, 7498, 1, 0, 0])]"#,
    ),
    (
        "O2/prototype",
        r#"cycles=11840 blocks=752 packets=39772 hops=41269 contention=9688 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=4362545 hist=[("EtEt", [15757, 11257, 4, 1, 0, 0]), ("EtGt", [0, 0, 2, 0, 750, 0]), ("EtRt", [1, 2251, 5252, 3747, 749, 1])]"#,
    ),
    (
        "O2/improved_predictor",
        r#"cycles=11840 blocks=752 packets=39772 hops=41269 contention=9688 bank_conflicts=0 l1d_misses=0 load_flushes=0 window_inst_cycles=4362545 hist=[("EtEt", [15757, 11257, 4, 1, 0, 0]), ("EtGt", [0, 0, 2, 0, 750, 0]), ("EtRt", [1, 2251, 5252, 3747, 749, 1])]"#,
    ),
    (
        "bzip2/prototype",
        r#"cycles=38890 blocks=2042 packets=146722 hops=168123 contention=86884 bank_conflicts=1586 l1d_misses=16 load_flushes=0 window_inst_cycles=14509393 hist=[("EtDt", [0, 1812, 6756, 7536, 3936, 1560]), ("EtEt", [56744, 42154, 7713, 2784, 0, 672]), ("EtGt", [0, 0, 97, 385, 768, 792]), ("EtRt", [0, 4393, 3908, 3247, 697, 768])]"#,
    ),
    (
        "bzip2/l1d8k",
        r#"cycles=38911 blocks=2042 packets=146722 hops=168123 contention=89791 bank_conflicts=1588 l1d_misses=16 load_flushes=0 window_inst_cycles=13691580 hist=[("EtDt", [0, 1812, 6756, 7536, 3936, 1560]), ("EtEt", [56744, 42154, 7713, 2784, 0, 672]), ("EtGt", [0, 0, 97, 385, 768, 792]), ("EtRt", [0, 4393, 3908, 3247, 697, 768])]"#,
    ),
    (
        "vpr/prototype",
        r#"cycles=26331 blocks=564 packets=40779 hops=47204 contention=4450 bank_conflicts=128 l1d_misses=62 load_flushes=3 window_inst_cycles=9965606 hist=[("EtDt", [0, 936, 1684, 2240, 1366, 1036]), ("EtEt", [17589, 9162, 1741, 261, 84, 0]), ("EtGt", [0, 0, 46, 4, 267, 247]), ("EtRt", [0, 1412, 1162, 942, 555, 45])]"#,
    ),
    (
        "vpr/l1d8k",
        r#"cycles=28114 blocks=564 packets=40779 hops=47204 contention=4368 bank_conflicts=128 l1d_misses=206 load_flushes=3 window_inst_cycles=10674498 hist=[("EtDt", [0, 936, 1684, 2240, 1366, 1036]), ("EtEt", [17589, 9162, 1741, 261, 84, 0]), ("EtGt", [0, 0, 46, 4, 267, 247]), ("EtRt", [0, 1412, 1162, 942, 555, 45])]"#,
    ),
    (
        "cacheb/prototype",
        r#"cycles=12473 blocks=262 packets=28221 hops=36126 contention=5228 bank_conflicts=0 l1d_misses=64 load_flushes=0 window_inst_cycles=8755699 hist=[("EtDt", [0, 128, 384, 640, 512, 384]), ("EtEt", [12839, 6402, 1530, 520, 2, 2]), ("EtGt", [0, 0, 4, 2, 0, 256]), ("EtRt", [0, 266, 774, 1026, 1784, 766])]"#,
    ),
    (
        "cacheb/l1d8k",
        r#"cycles=15504 blocks=262 packets=28221 hops=36126 contention=5692 bank_conflicts=0 l1d_misses=1024 load_flushes=0 window_inst_cycles=11046401 hist=[("EtDt", [0, 128, 384, 640, 512, 384]), ("EtEt", [12839, 6402, 1530, 520, 2, 2]), ("EtGt", [0, 0, 4, 2, 0, 256]), ("EtRt", [0, 266, 774, 1026, 1784, 766])]"#,
    ),
    (
        "equake/prototype",
        r#"cycles=15015 blocks=522 packets=28170 hops=32982 contention=5870 bank_conflicts=567 l1d_misses=78 load_flushes=0 window_inst_cycles=4176992 hist=[("EtDt", [0, 564, 1300, 1172, 788, 304]), ("EtEt", [12678, 4793, 1312, 397, 216, 288]), ("EtGt", [0, 0, 97, 289, 4, 132]), ("EtRt", [0, 1150, 1218, 893, 575, 0])]"#,
    ),
    (
        "equake/l1d8k",
        r#"cycles=15191 blocks=522 packets=28170 hops=32982 contention=5204 bank_conflicts=560 l1d_misses=160 load_flushes=0 window_inst_cycles=4265476 hist=[("EtDt", [0, 564, 1300, 1172, 788, 304]), ("EtEt", [12678, 4793, 1312, 397, 216, 288]), ("EtGt", [0, 0, 97, 289, 4, 132]), ("EtRt", [0, 1150, 1218, 893, 575, 0])]"#,
    ),
];

#[test]
fn full_replay_stats_match_the_golden_table() {
    let got: Vec<(String, String)> = runs().into_iter().chain(memory_runs()).collect();
    assert_eq!(got.len(), GOLDEN.len());
    for ((key, line), (gkey, gline)) in got.iter().zip(GOLDEN) {
        assert_eq!(key, gkey);
        assert_eq!(line, gline, "{key}: replay statistics drifted");
    }
}

/// FNV-1a over a byte string.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The discarded-counter (timed warmup) path and the live-point snapshot
/// bytes, pinned on `bzip2`: a sampled replay's stats, and a phased
/// capture's stats plus the length and hash of every snapshot it wrote.
#[test]
fn sampled_stats_and_livepoint_bytes_match_the_golden_values() {
    let w = trips_workloads::by_name("bzip2").unwrap();
    let p = (w.build)(trips_workloads::Scale::Test);
    let compiled = compile(&p, &CompileOptions::o2()).unwrap();
    let log = TraceLog::capture(
        &compiled.trips,
        &compiled.opt_ir,
        1 << 22,
        u64::MAX,
        Default::default(),
    )
    .unwrap();
    let mut cfg = TripsConfig::prototype();
    cfg.l1d_bytes = 8192;
    let plan = SamplePlan::new(8, 8, 32).unwrap();
    let sampled = replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan))
        .unwrap()
        .stats;
    let total = log.seq.len() as u64;
    let window = |warm_start, detail_start, end, weight_units| PhaseWindow {
        warm_start,
        detail_start,
        end,
        weight_units,
    };
    let phased = PhasePlan {
        interval: 400,
        total_units: total,
        k: 1,
        windows: vec![
            window(0, 0, 400, 400),
            window(800, 900, 1100, total - 800),
            window(total - 400, total - 400, total, 400),
        ],
        assignments: vec![],
    };
    phased.validate().unwrap();
    let (captured, snaps) = replay_trace_phased_capture(&compiled, &cfg, &log, &phased).unwrap();
    let snap_bytes: Vec<(usize, u64)> = snaps
        .iter()
        .map(|s| {
            let b = serde::bin::to_bytes(s);
            (b.len(), fnv(&b))
        })
        .collect();
    let got = format!(
        "sampled: est_cycles={} {}\nphased: est_cycles={} {}\nsnapshots={snap_bytes:?}",
        sampled.est_cycles,
        render(&sampled),
        captured.stats.est_cycles,
        render(&captured.stats),
    );
    assert_eq!(
        got, GOLDEN_SAMPLED,
        "sampled/phased statistics or snapshot bytes drifted"
    );
}

/// Captured alongside [`GOLDEN`].
const GOLDEN_SAMPLED: &str = r#"sampled: est_cycles=39783 cycles=13617 blocks=600 packets=44012 hops=50121 contention=25070 bank_conflicts=422 l1d_misses=8 load_flushes=0 window_inst_cycles=4824429 hist=[("EtDt", [0, 566, 2011, 2319, 1158, 446]), ("EtEt", [16997, 12822, 2263, 827, 0, 208]), ("EtGt", [0, 0, 28, 109, 202, 261]), ("EtRt", [0, 1294, 1171, 928, 199, 203])]
phased: est_cycles=38706 cycles=20498 blocks=1000 packets=71556 hops=81733 contention=40954 bank_conflicts=759 l1d_misses=10 load_flushes=0 window_inst_cycles=7334631 hist=[("EtDt", [0, 884, 3301, 3654, 1896, 764]), ("EtEt", [27816, 20440, 3760, 1338, 0, 322]), ("EtGt", [0, 0, 47, 188, 373, 392]), ("EtRt", [0, 2160, 1927, 1571, 351, 372])]
snapshots=[(295509, 2404797272403792701), (403858, 15060842910716545928), (444836, 8470962270311820051)]"#;
