//! # trips-sample
//!
//! SMARTS/SimPoint-style interval sampling plans, shared by every timing
//! core in the workspace.
//!
//! Trace replay decouples functional execution from timing, but a full
//! replay still *times every recorded event*, so a sweep point stays O(trace
//! length). A [`SamplePlan`] makes a point sublinear: the recorded stream is
//! cut into fixed-size periods, and within each period the timing core
//!
//! 1. **fast-forwards** the leading units with *functional warming* —
//!    caches, predictors and dependence tables observe every unit, but the
//!    pipeline model never runs and no cycles are accounted;
//! 2. runs the next `warmup_units` through the **detailed model with the
//!    counters discarded** (timed warmup) — this refills the in-flight
//!    state functional warming cannot express (outstanding misses, queue
//!    backpressure, in-order retirement horizons), which otherwise makes
//!    every measurement window start on an implausibly idle machine; and
//! 3. **measures** the final `detailed_units` in full detail.
//!
//! Putting the measured window at the *end* of the period means
//! measurement always follows both kinds of warming, so long-lived state
//! (cache tags, predictor tables) *and* short-lived state (pipeline
//! occupancy) are representative when counting starts.
//!
//! Two exceptions to the periodic schedule, both handled by the
//! [`Sampler`] driver: the **first two periods** and the **final two
//! periods** are measured in full. Program startup is a transient —
//! compulsory cache misses, untrained predictors, dependence tables still
//! learning — and teardown phases (reductions, result stores) are
//! another; a periodic schedule whose windows all sit in period interiors
//! would observe neither, biasing every estimate fast. Measuring the
//! boundary strata exactly turns each transient into its own stratum.
//!
//! Whole-run cycles are then estimated stratified ([`Sampler::finish`]):
//! the boundary periods contribute their cycles at weight one, and the
//! middle windows are pooled — `est = first + mid_cycles × mid_extent /
//! mid_units + last`. With one window per mini-period the pooled rate is
//! an unbiased average over every mini-period, and pooling keeps single
//! outlier windows (one DRAM burst in a short window) from being scaled
//! up on their own.
//!
//! The *unit* is whatever the consuming timing core iterates over: TRIPS
//! block-trace replay samples over dynamic blocks (`TraceLog::seq`
//! entries), the out-of-order reference models over dynamic instructions
//! (`RiscTrace` events). The plan itself is agnostic — the [`Sampler`]
//! turns it into a deterministic schedule over any stream.
//!
//! [`ReplayMode`] is the knob threaded through the replay entry points:
//! `Full` is the bit-exact everything-timed path, `Sampled(plan)` the
//! interval-sampled one, and `Phased(plan)` the phase-classified one. A
//! plan whose detailed window covers the whole period
//! ([`SamplePlan::covers_everything`]) normalizes to `Full`, so "sample
//! everything" is *bit-identical* to full replay by construction.
//!
//! ## Phase-classified plans
//!
//! Systematic sampling spends detailed windows uniformly across the
//! stream regardless of program phase behavior. A [`PhasePlan`]
//! (SimPoint-style) instead cuts the stream into fixed-size intervals,
//! clusters the intervals by behavioral similarity offline (basic-block
//! vectors + k-means, fitted by the `trips-phase` crate), and measures
//! **one representative interval per cluster** — extrapolating each
//! cluster's cycles by its population weight. Phase-repetitive streams
//! need far fewer detailed units this way: each phase is timed once and
//! weighted, instead of being re-measured every period. The
//! [`PhasedSampler`] realizes a fitted plan over a replay; [`Schedule`]
//! unifies the two drivers so the timing cores carry one sampled path.

use serde::{Deserialize, Serialize};
use std::fmt;

pub mod sparse;

/// Low-discrepancy offset for period `k` in `0..=slack`: the golden-ratio
/// (Weyl) sequence. Deterministic like a hash, but consecutive periods'
/// offsets spread evenly across the range instead of clumping, so even a
/// stream with only a handful of periods gets well-stratified window
/// placements ([`Sampler::advance`]).
fn weyl_offset(k: u64, slack: u64) -> u64 {
    // k · φ⁻¹ in 0.64 fixed point, scaled to 0..=slack. `slack + 1`
    // cannot overflow: slack < period ≤ MAX_PERIOD.
    let frac = k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ((u128::from(frac) * u128::from(slack + 1)) >> 64) as u64
}

/// What a sampled replay does with one stream unit (see [`Sampler::advance`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Fast-forward with functional warming: caches/predictors observe the
    /// unit, no cycle accounting.
    Warm,
    /// Detailed-model timed warmup: the pipeline model runs, the counters
    /// are discarded.
    TimedWarm,
    /// Full detailed measurement.
    Detailed,
}

/// A systematic interval-sampling plan over a recorded stream.
///
/// Nominally, every period of `period` units carries one window of
/// `warmup_units` timed (counter-discarded) pipeline warmup followed by
/// `detailed_units` of measurement; everything else is fast-forwarded
/// with functional warming. The [`Sampler`] realizes the plan with
/// variable-length mini-periods and jittered window placement (resonance
/// control), keeping the same average rates. Invariants (enforced by
/// [`SamplePlan::new`]): `detailed_units ≥ 1`, `period ≥ 1`,
/// `warmup_units + detailed_units ≤ period`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplePlan {
    /// Timed-warmup units immediately before each measured window.
    pub warmup_units: u64,
    /// Measured units at the end of each period.
    pub detailed_units: u64,
    /// Total units per sampling period.
    pub period: u64,
}

impl SamplePlan {
    /// Largest accepted `period`. Far beyond any real stream (periods are
    /// stream *subdivisions*), and small enough that the schedule
    /// arithmetic (`2 × period` boundary strata, `3/2 × period`
    /// mini-periods, `slack + 1` draws) can never overflow.
    pub const MAX_PERIOD: u64 = 1 << 48;

    /// Builds a validated plan.
    ///
    /// # Errors
    /// A description of the violated invariant.
    pub fn new(warmup_units: u64, detailed_units: u64, period: u64) -> Result<SamplePlan, String> {
        if detailed_units == 0 {
            return Err("detailed_units must be at least 1".into());
        }
        if period == 0 {
            return Err("period must be at least 1".into());
        }
        if period > Self::MAX_PERIOD {
            return Err(format!(
                "period {period} exceeds the maximum {}",
                Self::MAX_PERIOD
            ));
        }
        match warmup_units.checked_add(detailed_units) {
            Some(used) if used <= period => Ok(SamplePlan {
                warmup_units,
                detailed_units,
                period,
            }),
            _ => Err(format!(
                "warmup ({warmup_units}) + detailed ({detailed_units}) exceed the period ({period})"
            )),
        }
    }

    /// Parses the CLI grammar `warmup,detailed,period` (e.g. `64,64,256`).
    ///
    /// # Errors
    /// A description of the malformed field or violated invariant.
    pub fn parse(s: &str) -> Result<SamplePlan, String> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != 3 {
            return Err(format!(
                "expected `warmup,detailed,period` (three comma-separated counts), got `{s}`"
            ));
        }
        let field = |at: usize, name: &str| -> Result<u64, String> {
            parts[at]
                .trim()
                .parse::<u64>()
                .map_err(|_| format!("{name} `{}` is not a count", parts[at]))
        };
        SamplePlan::new(
            field(0, "warmup")?,
            field(1, "detailed")?,
            field(2, "period")?,
        )
    }

    /// True when every unit is measured in detail — such a plan degenerates
    /// to full replay, and [`ReplayMode::plan`] normalizes it away so the
    /// result is bit-identical to [`ReplayMode::Full`].
    #[must_use]
    pub fn covers_everything(&self) -> bool {
        self.detailed_units >= self.period
    }

    /// The fraction of stream units a full period measures in detail.
    #[must_use]
    pub fn planned_detail_frac(&self) -> f64 {
        self.detailed_units as f64 / self.period as f64
    }
}

impl fmt::Display for SamplePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{},{}",
            self.warmup_units, self.detailed_units, self.period
        )
    }
}

/// One measured region of a [`PhasePlan`]: a timed-warmup prefix
/// (`[warm_start, detail_start)`) followed by a detailed measured span
/// (`[detail_start, end)`), representing `weight_units` stream units (its
/// cluster's total population, or its own length for boundary windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhaseWindow {
    /// First timed-warmup unit (equals `detail_start` when no warmup fits).
    pub warm_start: u64,
    /// First measured unit.
    pub detail_start: u64,
    /// First unit past the measured span.
    pub end: u64,
    /// Stream units this window's measured rate stands for.
    pub weight_units: u64,
}

impl PhaseWindow {
    /// Measured units in this window.
    #[must_use]
    pub fn detailed_units(&self) -> u64 {
        self.end - self.detail_start
    }
}

/// A fitted phase-classification sampling plan over one recorded stream.
///
/// The stream is cut into `interval`-unit intervals; the first and last
/// intervals are always measured in full at weight one (startup and
/// teardown transients, mirroring the systematic [`Sampler`]'s boundary
/// strata), and each interior cluster contributes one representative
/// window weighted by its population. Unlike a [`SamplePlan`], a
/// `PhasePlan` is specific to the stream it was fitted to
/// ([`PhasePlan::total_units`]); replaying it against a different-length
/// stream is an error, not a silent misestimate.
///
/// Invariants (produced by `trips-phase::fit_plan`, checked by
/// [`PhasePlan::validate`]): windows are sorted and disjoint, spans lie in
/// `[0, total_units)`, and the weights sum to exactly `total_units`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PhasePlan {
    /// Stream units per classification interval.
    pub interval: u64,
    /// Length of the stream the plan was fitted to.
    pub total_units: u64,
    /// Clusters the interior intervals were grouped into.
    pub k: u32,
    /// Measured windows, sorted by position, pairwise disjoint.
    pub windows: Vec<PhaseWindow>,
    /// Per-interval cluster assignment (`assignments[i]` for the interval
    /// starting at `i × interval`); the boundary intervals carry the
    /// pseudo-clusters `k` (startup) and `k + 1` (teardown).
    pub assignments: Vec<u32>,
}

impl PhasePlan {
    /// True when every stream unit falls in a measured span — the plan
    /// degenerates to full replay and [`ReplayMode::phase`] normalizes it
    /// away, so "measure every interval" (k ≥ interval count) is
    /// bit-identical to [`ReplayMode::Full`].
    #[must_use]
    pub fn covers_everything(&self) -> bool {
        let measured: u64 = self.windows.iter().map(PhaseWindow::detailed_units).sum();
        measured >= self.total_units
    }

    /// Total units measured in detail across all windows.
    #[must_use]
    pub fn detailed_units(&self) -> u64 {
        self.windows.iter().map(PhaseWindow::detailed_units).sum()
    }

    /// Structural validity: ordered disjoint windows inside the stream,
    /// weights summing to the stream extent.
    ///
    /// # Errors
    /// A description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut prev_end = 0u64;
        let mut weight = 0u64;
        for (i, w) in self.windows.iter().enumerate() {
            if w.warm_start > w.detail_start || w.detail_start >= w.end {
                return Err(format!("window {i} is not well-formed: {w:?}"));
            }
            if w.warm_start < prev_end {
                return Err(format!("window {i} overlaps its predecessor"));
            }
            if w.end > self.total_units {
                return Err(format!(
                    "window {i} ends at {} past the stream ({})",
                    w.end, self.total_units
                ));
            }
            prev_end = w.end;
            weight = weight
                .checked_add(w.weight_units)
                .ok_or_else(|| "weights overflow".to_string())?;
        }
        if weight != self.total_units {
            return Err(format!(
                "weights sum to {weight}, stream has {} units",
                self.total_units
            ));
        }
        Ok(())
    }
}

impl fmt::Display for PhasePlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "phase(k={}, interval={}, windows={}, detail={}/{})",
            self.k,
            self.interval,
            self.windows.len(),
            self.detailed_units(),
            self.total_units
        )
    }
}

/// How a replay entry point should treat the recorded stream.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum ReplayMode {
    /// Time every recorded unit (bit-exact; the pre-sampling behavior).
    #[default]
    Full,
    /// Interval-sample per the plan.
    Sampled(SamplePlan),
    /// Phase-classified sampling per the fitted plan.
    Phased(PhasePlan),
}

impl ReplayMode {
    /// The effective systematic plan: `None` for [`ReplayMode::Full`],
    /// for sampled plans that cover everything, and for phased modes (see
    /// [`ReplayMode::phase`]), so callers branching on this get the
    /// bit-exact full path whenever the plan changes nothing.
    #[must_use]
    pub fn plan(&self) -> Option<&SamplePlan> {
        match self {
            ReplayMode::Sampled(p) if !p.covers_everything() => Some(p),
            _ => None,
        }
    }

    /// The effective phase plan: `None` unless this is a phased mode whose
    /// plan leaves something unmeasured (covering plans normalize to the
    /// full path, exactly like covering [`SamplePlan`]s).
    #[must_use]
    pub fn phase(&self) -> Option<&PhasePlan> {
        match self {
            ReplayMode::Phased(p) if !p.covers_everything() => Some(p),
            _ => None,
        }
    }

    /// True when this mode times every unit (including normalized covering
    /// plans of either kind).
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.plan().is_none() && self.phase().is_none()
    }

    /// Builds the mode an optional plan implies.
    #[must_use]
    pub fn from_plan(plan: Option<SamplePlan>) -> ReplayMode {
        match plan {
            Some(p) => ReplayMode::Sampled(p),
            None => ReplayMode::Full,
        }
    }

    /// The schedule driver this mode implies for a stream of
    /// `total_units`: `None` for the bit-exact full path (including
    /// covering plans of either kind), a [`Schedule`] otherwise.
    ///
    /// # Errors
    /// A phased plan fitted to a different stream length — replaying it
    /// elsewhere would silently misweight every cluster, so it is
    /// rejected instead.
    pub fn schedule(&self, total_units: u64) -> Result<Option<Schedule>, String> {
        if let Some(plan) = self.plan() {
            return Ok(Some(Schedule::Sampled(Sampler::new(*plan, total_units))));
        }
        if let Some(plan) = self.phase() {
            if plan.total_units != total_units {
                return Err(format!(
                    "phase plan was fitted to a {}-unit stream, replaying {} units",
                    plan.total_units, total_units
                ));
            }
            return Ok(Some(Schedule::Phased(PhasedSampler::new(plan.clone()))));
        }
        Ok(None)
    }
}

/// Extrapolates detailed-window cycles over the whole stream:
/// `detailed_cycles × total_units / detailed_units`, in 128-bit
/// intermediate precision. Degenerate inputs (nothing measured, or the
/// whole stream measured) return `detailed_cycles` unchanged.
#[must_use]
pub fn extrapolate_cycles(detailed_cycles: u64, total_units: u64, detailed_units: u64) -> u64 {
    if detailed_units == 0 || total_units <= detailed_units {
        return detailed_cycles;
    }
    let est = u128::from(detailed_cycles) * u128::from(total_units) / u128::from(detailed_units);
    u64::try_from(est).unwrap_or(u64::MAX)
}

/// Which stratum a measured unit belongs to (see [`Sampler`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stratum {
    /// The fully measured startup stratum (leading periods).
    First,
    /// Steady-state measurement windows in the middle of the stream.
    Mid,
    /// The fully measured final period (teardown transient).
    Last,
}

/// What one sampled replay measured (see [`Sampler::finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// Stream units walked.
    pub total_units: u64,
    /// Units measured in detail (all strata).
    pub measured_units: u64,
    /// Cycles those measured units took (all strata).
    pub measured_cycles: u64,
    /// The stratified whole-run cycle estimate: boundary periods at weight
    /// one, steady-state windows extrapolated over the middle.
    pub est_cycles: u64,
}

/// The per-replay schedule driver of a [`SamplePlan`]: a timing core walks
/// its recorded stream, asks [`Sampler::advance`] what to do with each
/// unit, and reports its monotonic clock (commit or retirement time) as
/// it goes.
///
/// The sampler owns the whole schedule:
///
/// * the first two periods and the final two periods are measured in
///   full — the startup and teardown transient strata;
/// * the middle is tiled with **variable-length mini-periods** (between
///   `period/2` and `3·period/2` units, drawn from a deterministic
///   golden-ratio sequence), each carrying one
///   `[timed-warm × w][measure × d]` window at an offset drawn the same
///   way. Fixed-length periods at a fixed in-window offset *resonate*
///   with loop structure — a window that always lands on the same slice
///   of an iteration pattern samples that slice, not the program — while
///   the low-discrepancy draws spread placements evenly and remain pure
///   functions of position, so replays stay exactly reproducible.
///
/// [`Sampler::finish`] folds the bookkeeping into the stratified
/// whole-run estimate. Centralizing all of this here keeps the two timing
/// cores' sampled paths structurally identical.
#[derive(Debug, Clone)]
pub struct Sampler {
    plan: SamplePlan,
    total: u64,
    /// First unit past the startup stratum.
    head_end: u64,
    /// First unit of the teardown stratum.
    tail_start: u64,
    pos: u64,
    window_mark: Option<u64>,
    window_units: u64,
    window_stratum: Stratum,
    strata: [(u64, u64); 3], // (cycles, units) per Stratum
    /// End of the current mid-region mini-period.
    mini_end: u64,
    /// Timed-warm start of the current mini-period's window (`u64::MAX`
    /// when no window fits).
    mini_win: u64,
    /// Mini-periods begun (the low-discrepancy draw index).
    minis: u64,
}

impl Sampler {
    /// A sampler for one replay of a stream of `total_units` units. The
    /// boundary strata span two nominal periods each; a stream too short
    /// to leave a middle between them is simply measured in full (and
    /// therefore estimated exactly).
    #[must_use]
    pub fn new(plan: SamplePlan, total_units: u64) -> Sampler {
        let bound = 2 * plan.period;
        let (head_end, tail_start) = if total_units > 2 * bound {
            (bound, total_units - bound)
        } else {
            (total_units, total_units)
        };
        Sampler {
            plan,
            total: total_units,
            head_end,
            tail_start,
            pos: 0,
            window_mark: None,
            window_units: 0,
            window_stratum: Stratum::First,
            strata: [(0, 0); 3],
            mini_end: 0,
            mini_win: u64::MAX,
            minis: 0,
        }
    }

    fn stratum_of(&self, unit: u64) -> Stratum {
        if unit < self.head_end {
            Stratum::First
        } else if unit >= self.tail_start {
            Stratum::Last
        } else {
            Stratum::Mid
        }
    }

    fn close_window(&mut self, clock: u64) {
        if let Some(mark) = self.window_mark.take() {
            let bucket = &mut self.strata[self.window_stratum as usize];
            bucket.0 += clock - mark;
            bucket.1 += self.window_units;
            self.window_units = 0;
        }
    }

    /// Starts the mini-period beginning at `unit`: draws its length and
    /// its window placement from the golden-ratio sequence.
    fn begin_mini(&mut self, unit: u64) {
        self.minis += 1;
        let p = self.plan.period;
        let timed = self.plan.warmup_units + self.plan.detailed_units;
        let len = (p / 2 + weyl_offset(self.minis * 2, p)).max(timed);
        self.mini_end = (unit + len).min(self.tail_start);
        let span = self.mini_end - unit;
        self.mini_win = if span >= timed {
            unit + weyl_offset(self.minis * 2 + 1, span - timed)
        } else {
            // The sliver before the tail stratum is too small to host a
            // window; it is covered by the pooled mid extrapolation.
            u64::MAX
        };
    }

    /// The phase of the next stream unit. `clock` is the replay's current
    /// monotonic cycle count (commit/retirement time); the sampler uses it
    /// to meter measurement windows.
    pub fn advance(&mut self, clock: u64) -> Phase {
        let unit = self.pos;
        self.pos += 1;
        let stratum = self.stratum_of(unit);
        let phase = if stratum == Stratum::Mid {
            if unit >= self.mini_end {
                self.begin_mini(unit);
            }
            let w = self.plan.warmup_units;
            let d = self.plan.detailed_units;
            if unit < self.mini_win || unit >= self.mini_win + w + d {
                Phase::Warm
            } else if unit < self.mini_win + w {
                Phase::TimedWarm
            } else {
                Phase::Detailed
            }
        } else {
            Phase::Detailed
        };
        if phase == Phase::Detailed {
            // Windows never span strata: a boundary period abutting a
            // steady window closes one bucket and opens the next.
            if self.window_mark.is_some() && self.window_stratum != stratum {
                self.close_window(clock);
            }
            if self.window_mark.is_none() {
                self.window_mark = Some(clock);
                self.window_stratum = stratum;
            }
            self.window_units += 1;
        } else {
            self.close_window(clock);
        }
        phase
    }

    /// Closes the final window at `clock` and produces the stratified
    /// estimate: the boundary periods (startup and teardown transients)
    /// count their measured cycles exactly, and the pooled steady-state
    /// windows are extrapolated over the middle of the stream. A stream
    /// with no measurable middle is therefore estimated *exactly*.
    #[must_use]
    pub fn finish(mut self, clock: u64) -> SampleSummary {
        self.close_window(clock);
        let [first, mid, last] = self.strata;
        let measured_units = first.1 + mid.1 + last.1;
        let measured_cycles = first.0 + mid.0 + last.0;
        let mid_extent = self.tail_start.saturating_sub(self.head_end);
        let est_cycles = if mid.1 > 0 {
            first
                .0
                .saturating_add(extrapolate_cycles(mid.0, mid_extent, mid.1))
                .saturating_add(last.0)
        } else if measured_units >= self.total {
            measured_cycles
        } else {
            // Nothing sampled in the middle (stream barely longer than two
            // periods): scale the boundary rate over the gap.
            extrapolate_cycles(measured_cycles, self.total, measured_units)
        };
        SampleSummary {
            total_units: self.total,
            measured_units,
            measured_cycles,
            est_cycles,
        }
    }
}

/// The per-replay schedule driver of a [`PhasePlan`]: the phased
/// counterpart of [`Sampler`], consumed through the same
/// [`Schedule::advance`]/[`Schedule::finish`] surface.
///
/// Units outside every window fast-forward with functional warming; a
/// window's warmup prefix runs the detailed model with discarded counters
/// (exactly like the systematic sampler's timed warmup); the measured
/// span is metered on the replay's monotonic clock. [`PhasedSampler::finish`]
/// extrapolates each window's measured cycles over its cluster's
/// population: `est = Σ window_cycles × weight_units / window_units`.
/// Boundary windows have `weight == units`, so the startup and teardown
/// transients contribute exactly.
#[derive(Debug, Clone)]
pub struct PhasedSampler {
    plan: PhasePlan,
    pos: u64,
    /// Index of the first window not yet past.
    widx: usize,
    window_mark: Option<u64>,
    window_units: u64,
    /// Closed windows: (cycles, measured units, weight units).
    closed: Vec<(u64, u64, u64)>,
}

impl PhasedSampler {
    /// A sampler realizing `plan` over one replay of its stream.
    #[must_use]
    pub fn new(plan: PhasePlan) -> PhasedSampler {
        let n = plan.windows.len();
        PhasedSampler {
            plan,
            pos: 0,
            widx: 0,
            window_mark: None,
            window_units: 0,
            closed: Vec::with_capacity(n),
        }
    }

    fn close_window(&mut self, clock: u64, weight: u64) {
        if let Some(mark) = self.window_mark.take() {
            self.closed.push((clock - mark, self.window_units, weight));
            self.window_units = 0;
        }
    }

    /// The phase of the next stream unit; `clock` is the replay's current
    /// monotonic cycle count.
    pub fn advance(&mut self, clock: u64) -> Phase {
        let unit = self.pos;
        self.pos += 1;
        // Step past windows that ended before this unit, closing the
        // accounting of whichever one was open.
        while let Some(w) = self.plan.windows.get(self.widx) {
            if unit < w.end {
                break;
            }
            let weight = w.weight_units;
            self.close_window(clock, weight);
            self.widx += 1;
        }
        let Some(w) = self.plan.windows.get(self.widx) else {
            return Phase::Warm;
        };
        if unit < w.warm_start {
            Phase::Warm
        } else if unit < w.detail_start {
            Phase::TimedWarm
        } else {
            if self.window_mark.is_none() {
                self.window_mark = Some(clock);
            }
            self.window_units += 1;
            Phase::Detailed
        }
    }

    /// Closes the final window at `clock` and produces the
    /// population-weighted whole-run estimate.
    #[must_use]
    pub fn finish(mut self, clock: u64) -> SampleSummary {
        if let Some(w) = self.plan.windows.get(self.widx) {
            let weight = w.weight_units;
            self.close_window(clock, weight);
        }
        phased_summary(self.plan.total_units, &self.closed)
    }
}

/// The [`PhasedSampler::finish`] math over explicit per-window
/// measurements: extrapolate each `(cycles, measured units, weight units)`
/// triple by its population and sum, in window order.
///
/// A truncated replay (stream shorter than the plan's extent is rejected
/// upstream, but a window that measured nothing keeps its weight out of
/// the estimate) never divides by zero.
fn phased_summary(total_units: u64, closed: &[(u64, u64, u64)]) -> SampleSummary {
    let mut measured_units = 0u64;
    let mut measured_cycles = 0u64;
    let mut est: u128 = 0;
    for &(cycles, units, weight) in closed {
        measured_units += units;
        measured_cycles += cycles;
        if units > 0 {
            est += u128::from(cycles) * u128::from(weight) / u128::from(units);
        }
    }
    SampleSummary {
        total_units,
        measured_units,
        measured_cycles,
        est_cycles: u64::try_from(est).unwrap_or(u64::MAX).max(measured_cycles),
    }
}

/// Assembles independently measured phase windows into the whole-run
/// summary a sequential [`PhasedSampler`] drive of `plan` would have
/// produced — the reduction step of live-point parallel replay. `measured`
/// holds one `(cycles, measured units)` pair per plan window, in window
/// order; each is weighted by its window's population, and the math (and
/// the sampling telemetry it bumps) is shared with
/// [`PhasedSampler::finish`], so the two paths cannot drift.
///
/// # Errors
/// The measurement count does not match the plan's window count.
pub fn assemble_phased(plan: &PhasePlan, measured: &[(u64, u64)]) -> Result<SampleSummary, String> {
    if measured.len() != plan.windows.len() {
        return Err(format!(
            "{} window measurements for a {}-window plan",
            measured.len(),
            plan.windows.len()
        ));
    }
    let closed: Vec<(u64, u64, u64)> = measured
        .iter()
        .zip(&plan.windows)
        .map(|(&(cycles, units), w)| (cycles, units, w.weight_units))
        .collect();
    let summary = phased_summary(plan.total_units, &closed);
    trips_obs::counter("sample_measured_units_total{kind=\"phase\"}").inc(summary.measured_units);
    trips_obs::counter("sample_stream_units_total{kind=\"phase\"}").inc(summary.total_units);
    Ok(summary)
}

/// The unified schedule driver behind a sampled [`ReplayMode`]: both
/// timing cores walk their stream, call [`Schedule::advance`] per unit and
/// [`Schedule::finish`] at the end, without caring whether the windows are
/// systematic ([`Sampler`]) or phase-classified ([`PhasedSampler`]).
#[derive(Debug, Clone)]
pub enum Schedule {
    /// Systematic interval sampling.
    Sampled(Sampler),
    /// Phase-classified sampling.
    Phased(PhasedSampler),
}

impl Schedule {
    /// The phase of the next stream unit (see [`Sampler::advance`]).
    pub fn advance(&mut self, clock: u64) -> Phase {
        match self {
            Schedule::Sampled(s) => s.advance(clock),
            Schedule::Phased(p) => p.advance(clock),
        }
    }

    /// Closes the schedule and produces the whole-run estimate.
    #[must_use]
    pub fn finish(self, clock: u64) -> SampleSummary {
        let kind = match &self {
            Schedule::Sampled(_) => "interval",
            Schedule::Phased(_) => "phase",
        };
        let summary = match self {
            Schedule::Sampled(s) => s.finish(clock),
            Schedule::Phased(p) => p.finish(clock),
        };
        // One registry touch per replay: how much of each stream the
        // sampling schedules actually measured, per schedule kind.
        match kind {
            "interval" => {
                trips_obs::counter("sample_measured_units_total{kind=\"interval\"}")
                    .inc(summary.measured_units);
                trips_obs::counter("sample_stream_units_total{kind=\"interval\"}")
                    .inc(summary.total_units);
            }
            _ => {
                trips_obs::counter("sample_measured_units_total{kind=\"phase\"}")
                    .inc(summary.measured_units);
                trips_obs::counter("sample_stream_units_total{kind=\"phase\"}")
                    .inc(summary.total_units);
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_are_enforced() {
        assert!(SamplePlan::new(0, 0, 4).is_err());
        assert!(SamplePlan::new(0, 1, 0).is_err());
        assert!(SamplePlan::new(3, 2, 4).is_err());
        assert!(SamplePlan::new(u64::MAX, 1, u64::MAX).is_err());
        // Periods past MAX_PERIOD would overflow the schedule arithmetic
        // (2x boundary strata, 3/2x mini-periods); they are rejected, and
        // the largest accepted period drives a sampler without panicking.
        assert!(SamplePlan::new(0, 1, SamplePlan::MAX_PERIOD + 1).is_err());
        let huge = SamplePlan::new(0, 1, SamplePlan::MAX_PERIOD).unwrap();
        let mut s = Sampler::new(huge, 10);
        for _ in 0..10 {
            let _ = s.advance(0);
        }
        assert_eq!(s.finish(70).est_cycles, 70);
        assert!(SamplePlan::new(2, 2, 4).is_ok());
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let p = SamplePlan::parse("64,32,256").unwrap();
        assert_eq!(
            p,
            SamplePlan {
                warmup_units: 64,
                detailed_units: 32,
                period: 256
            }
        );
        assert_eq!(SamplePlan::parse(&p.to_string()).unwrap(), p);
        assert!(SamplePlan::parse("64,32").is_err());
        assert!(SamplePlan::parse("a,b,c").is_err());
        assert!(SamplePlan::parse("4,8,8").is_err());
    }

    /// Collects the full phase schedule a sampler produces over a stream
    /// (clock irrelevant to placement: a constant works).
    fn schedule(plan: SamplePlan, total: u64) -> Vec<Phase> {
        let mut s = Sampler::new(plan, total);
        (0..total).map(|_| s.advance(0)).collect()
    }

    #[test]
    fn schedule_is_structurally_sound_and_jittered() {
        let plan = SamplePlan::new(2, 3, 8).unwrap();
        let total = 512;
        let phases = schedule(plan, total);
        // Boundary strata: two periods at each end, measured end to end.
        assert!(phases[..16].iter().all(|&x| x == Phase::Detailed));
        assert!(phases[496..].iter().all(|&x| x == Phase::Detailed));
        // The middle consists of warm stretches and contiguous
        // [timed-warm × 2][measure × 3] windows — timed warmup always
        // immediately precedes measurement, and windows never touch.
        let mut at = 16;
        let mut windows = 0;
        while at < 496 {
            match phases[at] {
                Phase::Warm => at += 1,
                Phase::TimedWarm => {
                    assert_eq!(
                        &phases[at..at + 5],
                        &[
                            Phase::TimedWarm,
                            Phase::TimedWarm,
                            Phase::Detailed,
                            Phase::Detailed,
                            Phase::Detailed,
                        ],
                        "window at {at} must be contiguous, warmup first"
                    );
                    windows += 1;
                    at += 5;
                }
                Phase::Detailed => panic!("measurement without timed warmup at {at}"),
            }
        }
        // Mini-periods average one window per nominal period.
        let mid_periods = (496 - 16) / 8;
        assert!(
            windows >= mid_periods / 2 && windows <= mid_periods * 2,
            "{windows} windows for {mid_periods} nominal periods"
        );
        // The schedule is deterministic and the jitter actually moves
        // windows: window start offsets are not all congruent mod the
        // nominal period.
        assert_eq!(phases, schedule(plan, total));
        let starts: std::collections::HashSet<u64> = {
            let mut v = std::collections::HashSet::new();
            let mut i = 16;
            while i < 496 {
                if phases[i] == Phase::TimedWarm {
                    v.insert(i as u64 % 8);
                    i += 5;
                } else {
                    i += 1;
                }
            }
            v
        };
        assert!(starts.len() > 1, "window placement must vary: {starts:?}");
    }

    /// Drives a sampler over a synthetic stream where every unit costs
    /// `cost` cycles *when timed* (warm units don't advance the clock),
    /// returning the summary.
    fn drive(plan: SamplePlan, total: u64, cost: u64) -> SampleSummary {
        let mut s = Sampler::new(plan, total);
        let mut clock = 0;
        for _ in 0..total {
            match s.advance(clock) {
                Phase::Warm => {}
                Phase::TimedWarm | Phase::Detailed => clock += cost,
            }
        }
        s.finish(clock)
    }

    #[test]
    fn sampler_measures_boundaries_and_extrapolates_the_middle() {
        let plan = SamplePlan::new(2, 2, 8).unwrap();
        // 160 units: 16-unit boundary strata at each end measured in
        // full, the 128-unit middle sampled by mini-period windows.
        let s = drive(plan, 160, 10);
        assert_eq!(s.total_units, 160);
        assert!(
            s.measured_units > 32 && s.measured_units < 160,
            "boundaries plus some windows: {}",
            s.measured_units
        );
        // Uniform cost ⇒ the stratified estimate is exact.
        assert_eq!(s.est_cycles, 160 * 10);
    }

    #[test]
    fn sampler_is_exact_on_streams_without_a_middle() {
        let plan = SamplePlan::new(2, 2, 8).unwrap();
        for total in [1, 5, 8, 9, 16, 32] {
            let s = drive(plan, total, 7);
            assert_eq!(s.measured_units, total, "total {total}");
            assert_eq!(s.est_cycles, total * 7, "total {total}");
        }
    }

    #[test]
    fn sampler_captures_boundary_transients_exactly() {
        // Expensive start and end, cheap middle: the strata keep the
        // transients at weight one.
        let plan = SamplePlan::new(2, 2, 8).unwrap();
        let total = 160u64;
        let mut s = Sampler::new(plan, total);
        let mut clock = 0;
        let mut truth = 0;
        for unit in 0..total {
            let cost = if (16..144).contains(&unit) { 10 } else { 100 };
            truth += cost;
            match s.advance(clock) {
                Phase::Warm => {}
                Phase::TimedWarm | Phase::Detailed => clock += cost,
            }
        }
        let sum = s.finish(clock);
        assert_eq!(sum.est_cycles, truth, "uniform-middle stream is exact");
    }

    #[test]
    fn covering_plans_normalize_to_full() {
        let covering = SamplePlan::new(0, 8, 8).unwrap();
        assert!(covering.covers_everything());
        assert_eq!(ReplayMode::Sampled(covering).plan(), None);
        assert_eq!(ReplayMode::Full.plan(), None);
        let sampling = SamplePlan::new(0, 4, 8).unwrap();
        assert_eq!(ReplayMode::Sampled(sampling).plan(), Some(&sampling));
        assert_eq!(
            ReplayMode::from_plan(Some(sampling)),
            ReplayMode::Sampled(sampling)
        );
        assert_eq!(ReplayMode::from_plan(None), ReplayMode::Full);
    }

    /// A hand-built plan: 40-unit stream, 8-unit intervals, head/tail
    /// boundary windows plus one representative (interval 2) standing for
    /// the three interior intervals.
    fn tiny_phase_plan() -> PhasePlan {
        PhasePlan {
            interval: 8,
            total_units: 40,
            k: 1,
            windows: vec![
                PhaseWindow {
                    warm_start: 0,
                    detail_start: 0,
                    end: 8,
                    weight_units: 8,
                },
                PhaseWindow {
                    warm_start: 14,
                    detail_start: 16,
                    end: 24,
                    weight_units: 24,
                },
                PhaseWindow {
                    warm_start: 30,
                    detail_start: 32,
                    end: 40,
                    weight_units: 8,
                },
            ],
            assignments: vec![1, 0, 0, 0, 2],
        }
    }

    #[test]
    fn phase_plan_validates_and_displays() {
        let plan = tiny_phase_plan();
        plan.validate().unwrap();
        assert!(!plan.covers_everything());
        assert_eq!(plan.detailed_units(), 24);
        assert!(plan.to_string().contains("k=1"));
        // Broken invariants are caught.
        let mut bad = plan.clone();
        bad.windows[1].weight_units = 5;
        assert!(bad.validate().is_err(), "weights must sum to the stream");
        let mut bad = plan.clone();
        bad.windows[1].warm_start = 7;
        assert!(bad.validate().is_err(), "windows must not overlap");
        let mut bad = plan;
        bad.windows[2].end = 41;
        assert!(bad.validate().is_err(), "windows must fit the stream");
    }

    #[test]
    fn phased_sampler_schedules_warmup_and_windows() {
        let plan = tiny_phase_plan();
        let mut s = PhasedSampler::new(plan);
        let phases: Vec<Phase> = (0..40).map(|_| s.advance(0)).collect();
        for (unit, phase) in phases.iter().enumerate() {
            let want = match unit {
                0..=7 | 16..=23 | 32..=39 => Phase::Detailed,
                14 | 15 | 30 | 31 => Phase::TimedWarm,
                _ => Phase::Warm,
            };
            assert_eq!(*phase, want, "unit {unit}");
        }
    }

    #[test]
    fn phased_estimate_weights_clusters_by_population() {
        // Uniform 10-cycle units: every window measures rate 10, so the
        // weighted estimate reproduces the whole stream exactly.
        let plan = tiny_phase_plan();
        let mut s = PhasedSampler::new(plan.clone());
        let mut clock = 0;
        for _ in 0..40 {
            match s.advance(clock) {
                Phase::Warm => {}
                Phase::TimedWarm | Phase::Detailed => clock += 10,
            }
        }
        let sum = s.finish(clock);
        assert_eq!(sum.total_units, 40);
        assert_eq!(sum.measured_units, 24);
        assert_eq!(sum.est_cycles, 400);
        // Phase-dependent cost: the representative's rate is scaled by its
        // cluster population, the boundaries count at weight one.
        let mut s = PhasedSampler::new(plan);
        let mut clock = 0;
        let mut truth = 0u64;
        for unit in 0u64..40 {
            let cost = if (8..32).contains(&unit) { 7 } else { 100 };
            truth += cost;
            match s.advance(clock) {
                Phase::Warm => {}
                Phase::TimedWarm | Phase::Detailed => clock += cost,
            }
        }
        let sum = s.finish(clock);
        assert_eq!(sum.est_cycles, truth, "uniform-per-phase stream is exact");
    }

    #[test]
    fn assemble_phased_matches_sequential_finish() {
        // Independently measured per-window pairs (the parallel replay's
        // view) must assemble into exactly the summary a sequential drive
        // produces, for a phase-dependent cost model.
        let plan = tiny_phase_plan();
        let cost = |u: u64| if u.is_multiple_of(3) { 12 } else { 5 };
        let mut s = PhasedSampler::new(plan.clone());
        let mut clock = 0;
        for unit in 0..plan.total_units {
            match s.advance(clock) {
                Phase::Warm => {}
                Phase::TimedWarm | Phase::Detailed => clock += cost(unit),
            }
        }
        let sequential = s.finish(clock);
        let measured: Vec<(u64, u64)> = plan
            .windows
            .iter()
            .map(|w| ((w.detail_start..w.end).map(cost).sum(), w.detailed_units()))
            .collect();
        assert_eq!(assemble_phased(&plan, &measured), Ok(sequential));
        assert!(assemble_phased(&plan, &measured[1..]).is_err());
    }

    #[test]
    fn covering_phase_plans_normalize_to_full() {
        // Every interval measured: detailed spans tile the stream.
        let covering = PhasePlan {
            interval: 8,
            total_units: 16,
            k: 2,
            windows: vec![
                PhaseWindow {
                    warm_start: 0,
                    detail_start: 0,
                    end: 8,
                    weight_units: 8,
                },
                PhaseWindow {
                    warm_start: 8,
                    detail_start: 8,
                    end: 16,
                    weight_units: 8,
                },
            ],
            assignments: vec![0, 1],
        };
        covering.validate().unwrap();
        assert!(covering.covers_everything());
        let mode = ReplayMode::Phased(covering);
        assert!(mode.phase().is_none());
        assert!(mode.is_full());
        assert!(mode.schedule(16).unwrap().is_none());
        // A real plan drives a phased schedule, but only over the stream
        // it was fitted to.
        let plan = tiny_phase_plan();
        let mode = ReplayMode::Phased(plan.clone());
        assert_eq!(mode.phase(), Some(&plan));
        assert!(!mode.is_full());
        assert!(matches!(mode.schedule(40), Ok(Some(Schedule::Phased(_)))));
        assert!(mode.schedule(39).is_err(), "foreign stream length rejected");
        // Sampled modes route through the same surface.
        let sampled = ReplayMode::Sampled(SamplePlan::new(2, 2, 8).unwrap());
        assert!(matches!(
            sampled.schedule(100),
            Ok(Some(Schedule::Sampled(_)))
        ));
        assert!(ReplayMode::Full.schedule(100).unwrap().is_none());
    }

    #[test]
    fn extrapolation_is_exact_and_total() {
        assert_eq!(extrapolate_cycles(100, 1000, 100), 1000);
        assert_eq!(extrapolate_cycles(7, 7, 7), 7);
        assert_eq!(extrapolate_cycles(5, 3, 0), 5);
        assert_eq!(extrapolate_cycles(0, 1000, 10), 0);
        // 128-bit intermediate: no overflow on huge cycle counts.
        assert_eq!(extrapolate_cycles(u64::MAX / 2, 4, 2), u64::MAX - 1,);
    }

    #[test]
    fn steady_state_detail_rate_tracks_the_plan() {
        let plan = SamplePlan::new(16, 16, 128).unwrap();
        let phases = schedule(plan, 128 * 130);
        // Census over the mid region only (boundary strata are fully
        // measured by design): the realized detail rate stays near the
        // planned 1/8 despite variable mini-periods.
        let mid = &phases[256..128 * 130 - 256];
        let detailed = mid.iter().filter(|&&x| x == Phase::Detailed).count();
        let rate = detailed as f64 / mid.len() as f64;
        let planned = plan.planned_detail_frac();
        assert!(
            (rate - planned).abs() < planned * 0.25,
            "realized detail rate {rate:.4} vs planned {planned:.4}"
        );
    }
}
