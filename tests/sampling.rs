//! Sampled-replay invariants, end to end:
//!
//! * **Fast-forward fidelity** — property test: advancing a recorded-stream
//!   cursor with [`TraceCursor::fast_forward`] and then stepping reaches
//!   exactly the machine-visible state step-by-step walking reaches, for
//!   arbitrary programs and skip points.
//! * **Sample-everything degeneracy** — a plan whose window covers the
//!   whole period is *bit-identical* to [`ReplayMode::Full`] on every
//!   timing backend (TRIPS and all three OoO reference platforms).
//! * **Accuracy** — the interval-sampled IPC estimate stays within the
//!   documented bounds of full replay on bundled workloads at Ref scale
//!   (the full-set gate runs in the `sampled-accuracy` CI job; see the
//!   `#[ignore]`d tests).
//! * **Speedup** — sampled replay of the largest bundled workload
//!   (`bzip2`) is ≥ 5× faster than full replay (ignored by default:
//!   wall-clock assertions belong in the release-built CI job).

use proptest::prelude::*;
use trips::compiler::CompileOptions;
use trips::engine::Session;
use trips::ooo;
use trips::risc::{compile_program, EventSource, RiscTrace, RiscTraceMeta};
use trips::sample::{ReplayMode, SamplePlan};
use trips::sim;
use trips::workloads::{by_name, Scale};

const MEM: usize = 1 << 20;

/// A program whose event stream exercises every replay construct — loops
/// (conditional branches both ways), calls/returns, loads and stores —
/// with a data-dependent branch pattern so different `seed`s change the
/// recorded stream shape.
fn stream_program(iters: i64, seed: i64) -> trips::ir::Program {
    use trips::ir::{IntCc, Opcode, Operand, ProgramBuilder};
    let mut pb = ProgramBuilder::new();
    let buf = pb.data_mut().alloc_i64s("buf", &[3, 1, 4, 1, 5, 9, 2, 6]);
    let body_f = pb.declare("body", 2);
    let mut f = pb.func("body", 2);
    let e = f.entry();
    let odd = f.block();
    let even = f.block();
    let done = f.block();
    f.switch_to(e);
    let x = f.param(0);
    let slot = f.and(x, 7i64);
    let a = f.shl(slot, 3i64);
    let addr = f.add(f.param(1), a);
    let v = f.load_i64(addr, 0);
    let bit = f.and(x, 1i64);
    f.branch(bit, odd, even);
    f.switch_to(odd);
    let v2 = f.add(v, x);
    f.store_i64(v2, addr, 0);
    f.jump(done);
    f.switch_to(even);
    f.jump(done);
    f.switch_to(done);
    f.ret(Some(Operand::reg(v)));
    f.finish();

    let mut m = pb.func("main", 0);
    let e = m.entry();
    let body = m.block();
    let done = m.block();
    m.switch_to(e);
    let acc = m.iconst(0);
    let x = m.iconst(seed);
    let i = m.iconst(0);
    m.jump(body);
    m.switch_to(body);
    // LCG step drives the data-dependent branches inside `body`.
    m.ibin_to(Opcode::Mul, x, x, 1103515245i64);
    m.ibin_to(Opcode::Add, x, x, 12345i64);
    let arg = m.shr(x, 16i64);
    let r = m.call(body_f, &[Operand::reg(arg), Operand::imm(buf as i64)]);
    m.ibin_to(Opcode::Add, acc, acc, r);
    m.ibin_to(Opcode::Add, i, i, 1i64);
    let c = m.icmp(IntCc::Lt, i, iters);
    m.branch(c, body, done);
    m.switch_to(done);
    m.ret(Some(Operand::reg(acc)));
    m.finish();
    pb.finish("main").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn fast_forward_then_step_matches_step_by_step(
        iters in 2i64..40,
        seed in 1i64..1_000_000,
        skip_frac in 0u32..110,
    ) {
        let ir = stream_program(iters, seed);
        let rp = compile_program(&ir).unwrap();
        let trace = RiscTrace::capture(&rp, &ir, MEM, 1_000_000, RiscTraceMeta::default())
            .unwrap();
        let total = trace.header.dynamic_insts;
        // Skip points cover the whole stream, its ends, and past-the-end.
        let skip = total * u64::from(skip_frac) / 100;

        let mut walked = trace.cursor(&rp);
        let mut stepped = 0;
        while stepped < skip && walked.next_event().unwrap().is_some() {
            stepped += 1;
        }
        let mut jumped = trace.cursor(&rp);
        prop_assert_eq!(jumped.fast_forward(skip).unwrap(), skip.min(total));
        // The machine-visible state after a fast-forward is the event
        // stream it produces from there on, plus the final return value.
        loop {
            let a = walked.next_event().unwrap();
            let b = jumped.next_event().unwrap();
            prop_assert_eq!(a, b, "divergence after skipping {}", skip);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!(walked.return_value(), jumped.return_value());
    }
}

#[test]
fn sample_everything_is_bit_identical_on_every_backend() {
    let w = by_name("autocor").unwrap();
    let session = Session::new();
    // Plans that measure every unit, in both degenerate shapes.
    let covering = [
        SamplePlan::new(0, 64, 64).unwrap(),
        SamplePlan::new(0, 1, 1).unwrap(),
    ];

    // TRIPS block-trace replay.
    let compiled = session
        .compiled(&w, Scale::Test, &CompileOptions::o2(), false)
        .unwrap();
    let log = session
        .trace(
            &w,
            Scale::Test,
            &CompileOptions::o2(),
            false,
            MEM,
            1_000_000,
        )
        .unwrap();
    let cfg = sim::TripsConfig::prototype();
    let full = sim::replay_trace(&compiled, &cfg, &log).unwrap();
    for plan in covering {
        let covered =
            sim::replay_trace_mode(&compiled, &cfg, &log, &ReplayMode::Sampled(plan)).unwrap();
        assert_eq!(covered.stats, full.stats, "trips, plan {plan}");
        assert_eq!(covered.return_value, full.return_value);
        assert!(!covered.stats.sampled);
    }

    // All three OoO reference platforms over the recorded RISC stream.
    let art = session
        .risc_program(&w, Scale::Test, &CompileOptions::gcc_ref())
        .unwrap();
    let stream = session
        .risc_trace(
            &w,
            Scale::Test,
            &CompileOptions::gcc_ref(),
            MEM,
            400_000_000,
        )
        .unwrap();
    for ocfg in [ooo::core2(), ooo::pentium4(), ooo::pentium3()] {
        let full = ooo::run_timed_trace(&art.program, &stream, &ocfg).unwrap();
        for plan in covering {
            let covered =
                ooo::run_timed_trace_mode(&art.program, &stream, &ocfg, &ReplayMode::Sampled(plan))
                    .unwrap();
            assert_eq!(covered.stats, full.stats, "{}, plan {plan}", ocfg.name);
            assert_eq!(covered.return_value, full.return_value);
        }
    }
}

/// A fast subset of the accuracy gate that runs under tier-1 `cargo test`:
/// three Ref-scale workloads, both backends, documented bounds.
#[test]
fn sampled_ipc_tracks_full_replay_on_ref_workloads() {
    let rows = trips::experiments::runner::sample_accuracy(
        &["autocor", "routelookup", "vadd"].map(|n| by_name(n).unwrap()),
        Scale::Ref,
    );
    assert_eq!(rows.len(), 6);
    for r in &rows {
        // The OoO bound tightened from 5% to 4% when window metering
        // moved to the issue-attributed smoothed clock (worst measured
        // workload: 3.24%).
        let bound = if r.backend == "trips" { 0.02 } else { 0.04 };
        assert!(
            r.rel_err <= bound,
            "{}/{}: sampled {:.4} vs full {:.4} ({:+.2}%)",
            r.workload,
            r.backend,
            r.sampled_ipc,
            r.full_ipc,
            r.rel_err * 100.0
        );
        assert!(
            r.detailed_frac < 1.0,
            "{}/{} must actually sample",
            r.workload,
            r.backend
        );
    }
}

/// The full accuracy gate (every simple benchmark plus the two largest
/// bundled streams): TRIPS within 2% per workload, OoO within 4% per
/// workload (tightened from 5% by the issue-attributed window clock) and
/// 2% in aggregate. Run by the `sampled-accuracy` CI job in release
/// (`cargo test --release -- --ignored`).
#[test]
#[ignore = "release-built CI gate (slow under the debug profile)"]
fn sampled_accuracy_gate_full_set() {
    let mut ws = trips::workloads::simple();
    ws.push(by_name("bzip2").unwrap());
    ws.push(by_name("equake").unwrap());
    let rows = trips::experiments::runner::sample_accuracy(&ws, Scale::Ref);
    let mut sum = std::collections::HashMap::new();
    for r in &rows {
        let bound = if r.backend == "trips" { 0.02 } else { 0.04 };
        assert!(
            r.rel_err <= bound,
            "{}/{}: {:+.2}% exceeds {:.0}%",
            r.workload,
            r.backend,
            r.rel_err * 100.0,
            bound * 100.0
        );
        let e = sum.entry(r.backend.clone()).or_insert((0.0f64, 0u32));
        e.0 += (r.sampled_ipc - r.full_ipc) / r.full_ipc.max(1e-12);
        e.1 += 1;
    }
    for (backend, (total, n)) in sum {
        let mean = total / f64::from(n);
        assert!(
            mean.abs() <= 0.02,
            "{backend}: aggregate sampled-vs-full IPC off by {:+.2}%",
            mean * 100.0
        );
    }
    // Sampling must actually engage on the long streams.
    assert!(
        rows.iter().any(|r| r.detailed_frac < 0.5),
        "no workload sampled below 50% detail"
    );
}

/// The speedup gate: sampled TRIPS replay of the largest bundled workload
/// (`bzip2`, ~65k blocks at Ref scale) under the sparse plan is ≥ 5×
/// faster than full replay. Run by the `sampled-accuracy` CI job in
/// release.
#[test]
#[ignore = "wall-clock assertion; run release via the sampled-accuracy CI job"]
fn sampled_replay_is_5x_faster_on_the_largest_workload() {
    use std::time::Instant;
    let w = by_name("bzip2").unwrap();
    let session = Session::new();
    let compiled = session
        .compiled(&w, Scale::Ref, &CompileOptions::o2(), false)
        .unwrap();
    let log = session
        .trace(
            &w,
            Scale::Ref,
            &CompileOptions::o2(),
            false,
            1 << 22,
            1_000_000,
        )
        .unwrap();
    let cfg = sim::TripsConfig::prototype();
    let mode = ReplayMode::Sampled(trips::experiments::runner::speedup_plan());
    // Warm both paths once, then take the best of three to damp CI noise.
    let full = sim::replay_trace(&compiled, &cfg, &log).unwrap().stats;
    let sampled = sim::replay_trace_mode(&compiled, &cfg, &log, &mode)
        .unwrap()
        .stats;
    let best = |f: &dyn Fn()| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let tf = best(&|| {
        let _ = sim::replay_trace(&compiled, &cfg, &log).unwrap();
    });
    let ts = best(&|| {
        let _ = sim::replay_trace_mode(&compiled, &cfg, &log, &mode).unwrap();
    });
    let speedup = tf / ts;
    let err = (sampled.est_cycles as f64 - full.cycles as f64).abs() / full.cycles as f64;
    assert!(
        speedup >= 5.0,
        "sampled replay only {speedup:.1}x faster (full {tf:.3}s vs sampled {ts:.3}s)"
    );
    assert!(
        err < 0.02,
        "largest-workload estimate off by {:.2}%",
        err * 100.0
    );
    assert!(sampled.sampled && sampled.detailed_frac() < 0.2);
}
