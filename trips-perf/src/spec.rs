//! The three benchmark workloads and the seeded shuffle of their sweeps.

use trips_compiler::CompileOptions;
use trips_engine::sweep::{BackendSpec, ConfigVariant, SweepSpec};
use trips_engine::PhaseK;
use trips_sim::TripsConfig;
use trips_workloads::Scale;

/// The program set every workload sweeps: two long phased streams (mcf
/// irregular-memory) and two below the phase floor.
pub const PROGRAMS: [&str; 4] = ["bzip2", "mcf", "autocor", "fft"];

/// One named benchmark workload: a sweep over a warm store of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Phase-classified sampling (`phase = auto`).
    pub phased: bool,
    /// Live-point checkpoints for the phased points.
    pub live_points: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "warm-phased",
        phased: true,
        live_points: false,
    },
    Workload {
        name: "warm-livepoints",
        phased: true,
        live_points: true,
    },
    Workload {
        name: "warm-full",
        phased: false,
        live_points: false,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The sweep in its canonical order, on `threads` workers.
    pub fn spec(&self, threads: usize) -> SweepSpec {
        let (configs, ooo): (Vec<ConfigVariant>, &[&str]) = if self.phased {
            (
                vec![ConfigVariant::prototype(), ConfigVariant::improved()],
                &["core2"],
            )
        } else {
            let base = TripsConfig::prototype();
            let mut configs = vec![ConfigVariant::prototype()];
            for (axis, value) in [("l1d_bytes", "8192"), ("dispatch_interval", "8")] {
                configs.extend(ConfigVariant::axis(&base, axis, &[value]).expect("valid axis"));
            }
            (configs, &["core2", "p4", "p3"])
        };
        let mut backends = vec![BackendSpec::Trips];
        backends.extend(ooo.iter().map(|n| BackendSpec::Ooo((*n).to_string())));
        SweepSpec {
            workloads: PROGRAMS.iter().map(|p| (*p).to_string()).collect(),
            scale: Scale::Ref,
            opts: CompileOptions::o1(),
            configs,
            backends,
            phase: self.phased.then_some(PhaseK::Auto),
            live_points: self.live_points,
            threads,
            ..SweepSpec::default()
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn shuffle<T>(xs: &mut [T], state: &mut u64) {
    for i in (1..xs.len()).rev() {
        let j = (splitmix(state) % (i as u64 + 1)) as usize;
        xs.swap(i, j);
    }
}

/// Reorders the workloads, backends and configs of `spec` from `(seed,
/// rep)`. Only the order changes — which point the pool schedules first
/// and which one pays a first-touch decode — never the set of points.
pub fn shuffled(mut spec: SweepSpec, seed: u64, rep: u64) -> SweepSpec {
    let mut state = seed ^ rep.wrapping_mul(0xd605_bbb5_8c8a_bd19);
    shuffle(&mut spec.workloads, &mut state);
    shuffle(&mut spec.backends, &mut state);
    shuffle(&mut spec.configs, &mut state);
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::sorted_rows;
    use trips_engine::{run_sweep, Session};

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let spec = WORKLOADS[2].spec(1);
        let a = shuffled(spec.clone(), 7, 0);
        let b = shuffled(spec.clone(), 7, 0);
        assert_eq!(a.workloads, b.workloads);
        assert_eq!(a.backends, b.backends);
        let mut names = a.workloads.clone();
        names.sort();
        let mut want = spec.workloads.clone();
        want.sort();
        assert_eq!(names, want);
        let orders: std::collections::BTreeSet<Vec<String>> = (0..16)
            .map(|rep| shuffled(spec.clone(), 7, rep).workloads)
            .collect();
        assert!(
            orders.len() > 1,
            "sixteen reps never reordered the workloads"
        );
    }

    #[test]
    fn shuffle_leaves_sorted_rows_unchanged() {
        // Test scale keeps this fast; the phased spec exercises both cores.
        let mut spec = WORKLOADS[0].spec(2);
        spec.scale = Scale::Test;
        spec.workloads = vec!["vadd".into(), "autocor".into(), "fft".into()];
        let base = sorted_rows(&run_sweep(&spec, &Session::new()).unwrap().rows);
        for seed in [1, 2, 3] {
            let s = shuffled(spec.clone(), seed, 0);
            let rows = sorted_rows(&run_sweep(&s, &Session::new()).unwrap().rows);
            assert_eq!(rows, base, "seed {seed} changed the sorted rows");
        }
    }
}
