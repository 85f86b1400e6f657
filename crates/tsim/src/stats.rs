//! Aggregate statistics produced by one simulation run — the counters behind
//! Figures 6, 8, 9, 11, 12 and Table 3.

use crate::opn::OpnStats;
use crate::predictor::PredictorStats;
use serde::{Deserialize, Serialize};
use trips_isa::IsaStats;
use trips_sample::SampleSummary;

/// Everything the experiments need from a timing run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct SimStats {
    /// Total cycles (commit time of the last block).
    pub cycles: u64,
    /// Dynamic blocks committed.
    pub blocks: u64,
    /// ISA-level composition (from the functional oracle).
    pub isa: IsaStats,
    /// Next-block predictor accounting.
    pub predictor: PredictorStats,
    /// Operand-network traffic profile.
    pub opn: OpnStats,
    /// I-cache accesses/misses.
    pub icache_accesses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// L1 data accesses.
    pub l1d_accesses: u64,
    /// L1 data misses.
    pub l1d_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses (DRAM fills).
    pub l2_misses: u64,
    /// Load-dependence violations (block flushes).
    pub load_flushes: u64,
    /// Pipeline flushes from mispredictions.
    pub mispredict_flushes: u64,
    /// Σ over blocks of fetched-instructions × residency-cycles (window
    /// occupancy integral, Figure 6).
    pub window_inst_cycles: u128,
    /// Bytes moved L1↔processor (loads + stores hitting L1).
    pub l1_bytes: u64,
    /// Bytes moved L2→L1 (L1 miss fills).
    pub l2_bytes: u64,
    /// Bytes moved memory→L2.
    pub dram_bytes: u64,
    /// Cycles lost to data-bank conflicts.
    pub bank_conflict_cycles: u64,
    /// Whether this run interval-sampled the stream (see
    /// [`trips_sample::SamplePlan`]). When false, `est_cycles == cycles`
    /// and `detailed_units == total_units == blocks`.
    pub sampled: bool,
    /// Dynamic blocks in the replayed stream (timed + warmed + skipped).
    pub total_units: u64,
    /// Dynamic blocks timed in detail (equals [`SimStats::blocks`]).
    pub detailed_units: u64,
    /// Whole-run cycle estimate: measured cycles extrapolated over the
    /// stream (`cycles × total_units / detailed_units`); equals `cycles`
    /// for full runs.
    pub est_cycles: u64,
}

/// Deserialization is only needed for the experiment tooling's own output,
/// which re-reads serialized stats; OpnStats uses a map keyed by enum.
impl<'de> Deserialize<'de> for SimStats {
    fn deserialize<D>(_: D) -> Result<Self, D::Error>
    where
        D: serde::Deserializer<'de>,
    {
        Err(serde::de::Error::custom(
            "SimStats deserialization is not supported",
        ))
    }
}

impl SimStats {
    /// Adds another replay's *measured* (detailed-window) counters into
    /// this one, field-wise — the reduction step of live-point parallel
    /// replay, where each plan window is measured by an independent
    /// restored replay and the per-window deltas sum to exactly what one
    /// sequential replay accumulates. Clock-derived fields (`cycles`,
    /// `est_cycles`, `total_units`, `detailed_units`, `sampled`) and the
    /// functional `isa` composition are *not* summed; the assembler sets
    /// them from the schedule summary.
    pub fn absorb_measured(&mut self, w: &SimStats) {
        self.blocks += w.blocks;
        self.predictor.absorb(&w.predictor);
        self.opn.absorb(&w.opn);
        self.icache_accesses += w.icache_accesses;
        self.icache_misses += w.icache_misses;
        self.l1d_accesses += w.l1d_accesses;
        self.l1d_misses += w.l1d_misses;
        self.l2_accesses += w.l2_accesses;
        self.l2_misses += w.l2_misses;
        self.load_flushes += w.load_flushes;
        self.mispredict_flushes += w.mispredict_flushes;
        self.window_inst_cycles += w.window_inst_cycles;
        self.l1_bytes += w.l1_bytes;
        self.l2_bytes += w.l2_bytes;
        self.dram_bytes += w.dram_bytes;
        self.bank_conflict_cycles += w.bank_conflict_cycles;
    }

    /// Sets the clock-derived fields from a sampling schedule's summary:
    /// the measured-window cycles (timed warmup advanced the clock but is
    /// not part of the sample) and their whole-run extrapolation.
    pub(crate) fn apply_summary(&mut self, s: &SampleSummary) {
        debug_assert_eq!(s.measured_units, self.blocks);
        self.sampled = true;
        self.detailed_units = self.blocks;
        self.total_units = s.total_units;
        self.cycles = s.measured_cycles.max(u64::from(self.blocks > 0));
        self.est_cycles = s.est_cycles.max(self.cycles);
    }

    /// The cycle count IPC rates divide by: the whole-run estimate. The
    /// `isa` numerators always cover the *entire* functional stream, so a
    /// sampled run must divide by the extrapolated [`SimStats::est_cycles`];
    /// for full runs the two are equal and this is exactly `cycles`.
    fn cycle_basis(&self) -> u64 {
        if self.sampled {
            self.est_cycles
        } else {
            self.cycles
        }
    }

    /// Fraction of stream units timed in detail (1.0 for full runs).
    pub fn detailed_frac(&self) -> f64 {
        if self.total_units == 0 {
            1.0
        } else {
            self.detailed_units as f64 / self.total_units as f64
        }
    }

    /// Instructions-per-cycle over *executed* instructions (Figure 9's bar
    /// height; composition shares split it into the stacked categories).
    pub fn ipc_executed(&self) -> f64 {
        if self.cycle_basis() == 0 {
            0.0
        } else {
            self.isa.executed as f64 / self.cycle_basis() as f64
        }
    }

    /// IPC over useful instructions only.
    pub fn ipc_useful(&self) -> f64 {
        if self.cycle_basis() == 0 {
            0.0
        } else {
            self.isa.useful as f64 / self.cycle_basis() as f64
        }
    }

    /// IPC over fetched instructions (includes fetched-not-executed).
    pub fn ipc_fetched(&self) -> f64 {
        if self.cycle_basis() == 0 {
            0.0
        } else {
            self.isa.fetched as f64 / self.cycle_basis() as f64
        }
    }

    /// Average total instructions resident in the window (Figure 6).
    pub fn avg_window_insts(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.window_inst_cycles as f64 / self.cycles as f64
        }
    }

    /// Average *useful* instructions in the window (Table 3's rightmost
    /// column), scaling the occupancy by the useful fraction.
    pub fn avg_window_useful(&self) -> f64 {
        if self.isa.fetched == 0 {
            0.0
        } else {
            self.avg_window_insts() * self.isa.useful as f64 / self.isa.fetched as f64
        }
    }

    /// Events per 1000 useful instructions (Table 3 normalization).
    ///
    /// Event counters only accumulate in *measured* units, while the
    /// functional `useful` count covers the whole stream — so under
    /// sampling the denominator is scaled down to the measured fraction
    /// (a no-op for full runs), keeping the rate an unbiased whole-run
    /// estimate instead of deflating it by `detailed_frac`.
    pub fn per_kilo_useful(&self, events: u64) -> f64 {
        let useful = self.isa.useful as f64 * self.detailed_frac();
        if useful == 0.0 {
            0.0
        } else {
            events as f64 * 1000.0 / useful
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut s = SimStats {
            cycles: 100,
            ..Default::default()
        };
        s.isa.executed = 400;
        s.isa.useful = 200;
        s.isa.fetched = 800;
        s.window_inst_cycles = 40_000;
        assert!((s.ipc_executed() - 4.0).abs() < 1e-9);
        assert!((s.ipc_useful() - 2.0).abs() < 1e-9);
        assert!((s.avg_window_insts() - 400.0).abs() < 1e-9);
        assert!((s.avg_window_useful() - 100.0).abs() < 1e-9);
        assert!((s.per_kilo_useful(10) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_rates_use_the_extrapolated_basis() {
        let mut s = SimStats {
            cycles: 100,
            sampled: true,
            total_units: 1000,
            detailed_units: 100,
            est_cycles: 1000,
            ..Default::default()
        };
        // The functional numerators cover the whole stream, so IPC divides
        // by the extrapolated estimate, not the detailed-window cycles.
        s.isa.executed = 4000;
        assert!((s.ipc_executed() - 4.0).abs() < 1e-9);
        assert!((s.detailed_frac() - 0.1).abs() < 1e-9);
        // Event counters are measured-units-only too: 5 events over the
        // measured tenth of 2000 useful insts is 25/kilo, not 2.5/kilo.
        s.isa.useful = 2000;
        assert!((s.per_kilo_useful(5) - 25.0).abs() < 1e-9);
        // A full run's fields degenerate to the classic rates.
        let full = SimStats::default();
        assert_eq!(full.detailed_frac(), 1.0);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc_executed(), 0.0);
        assert_eq!(s.avg_window_insts(), 0.0);
    }
}
