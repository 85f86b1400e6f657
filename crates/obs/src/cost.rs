//! Per-row cost attribution: where did *this* sweep point's wall-clock
//! and I/O go?
//!
//! The sweep's `measure()` opens a [`RowScope`] on the worker thread; the
//! session, store, pool, and timing-core instrumentation then call the
//! free functions here ([`add_ns`], [`add_store_read`], [`set_tier`], …)
//! which update the thread-local collector — or do nothing when no scope
//! is active, so library users outside a sweep pay one thread-local read.
//! Closing the scope yields the finished [`RowCost`].
//!
//! Timings are collected *only* here, never inside memoized or persisted
//! artifacts: a memoized replay hit legitimately reports zero
//! capture/warm/detailed nanos for a row (its `tier` says `memo`), which
//! is exactly the attribution story — the row's wall-clock went to the
//! cache lookup, not to simulation.

use std::cell::RefCell;
use std::time::Instant;

/// Cost categories a row's wall-clock is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostKind {
    /// Building artifacts: compile, functional capture, RISC recording.
    Capture,
    /// Phase-classification fitting (BBV projection + k-means).
    Fit,
    /// Functional warming segments of a sampled replay (incl. timed warm).
    Warm,
    /// Detailed (timed) simulation segments.
    Detailed,
    /// Extrapolating sampled windows to a whole-run estimate.
    Extrapolate,
    /// Capturing + persisting live-point checkpoints at window boundaries.
    CheckpointSave,
    /// Restoring a live-point checkpoint into a timing core.
    CheckpointRestore,
    /// Blocked on another row's in-flight production of a shared
    /// artifact (a compile, a capture, a fit).
    MemoWait,
}

/// Per-row cost detail attached to every `SweepRow`.
///
/// `tier` records the deepest artifact tier this row's streams touched:
/// `memo` (in-memory replay-result hit) < `mem` (in-memory stream hit) <
/// `disk` (trace-store hit) < `capture` (functional execution ran);
/// `-` when nothing was recorded.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RowCost {
    /// Deepest artifact tier touched: `-`, `memo`, `mem`, `disk`, `capture`.
    pub tier: String,
    /// Nanoseconds compiling / capturing / recording streams.
    pub capture_ns: u64,
    /// Nanoseconds fitting phase plans.
    pub fit_ns: u64,
    /// Nanoseconds in functional-warming replay segments.
    pub warm_ns: u64,
    /// Nanoseconds in detailed (timed) replay segments.
    pub detailed_ns: u64,
    /// Nanoseconds extrapolating sampled windows.
    pub extrapolate_ns: u64,
    /// Nanoseconds capturing + persisting live-point checkpoints.
    pub checkpoint_save_ns: u64,
    /// Nanoseconds restoring live-point checkpoints.
    pub checkpoint_restore_ns: u64,
    /// Nanoseconds the point sat in the pool queue before a worker ran it.
    pub queue_ns: u64,
    /// Bytes read from the trace store on behalf of this row.
    pub store_read_bytes: u64,
    /// Bytes written to the trace store on behalf of this row.
    pub store_write_bytes: u64,
    /// Nanoseconds blocked on another row's in-flight production of an
    /// artifact this row needs.
    pub memo_wait_ns: u64,
}

impl Default for RowCost {
    fn default() -> Self {
        RowCost {
            tier: "-".to_string(),
            capture_ns: 0,
            fit_ns: 0,
            warm_ns: 0,
            detailed_ns: 0,
            extrapolate_ns: 0,
            checkpoint_save_ns: 0,
            checkpoint_restore_ns: 0,
            queue_ns: 0,
            store_read_bytes: 0,
            store_write_bytes: 0,
            memo_wait_ns: 0,
        }
    }
}

fn tier_rank(tier: &str) -> u8 {
    match tier {
        "memo" => 1,
        "mem" => 2,
        "disk" => 3,
        "capture" => 4,
        _ => 0,
    }
}

impl RowCost {
    /// Sum of all attributed nanoseconds (excludes queue wait, which
    /// overlaps other rows' work rather than adding to it).
    pub fn attributed_ns(&self) -> u64 {
        self.capture_ns
            + self.fit_ns
            + self.warm_ns
            + self.detailed_ns
            + self.extrapolate_ns
            + self.checkpoint_save_ns
            + self.checkpoint_restore_ns
            + self.memo_wait_ns
    }

    /// Accumulate another row's cost into this one (report roll-ups).
    pub fn absorb(&mut self, other: &RowCost) {
        if tier_rank(&other.tier) > tier_rank(&self.tier) {
            self.tier = other.tier.clone();
        }
        self.capture_ns += other.capture_ns;
        self.fit_ns += other.fit_ns;
        self.warm_ns += other.warm_ns;
        self.detailed_ns += other.detailed_ns;
        self.extrapolate_ns += other.extrapolate_ns;
        self.checkpoint_save_ns += other.checkpoint_save_ns;
        self.checkpoint_restore_ns += other.checkpoint_restore_ns;
        self.queue_ns += other.queue_ns;
        self.store_read_bytes += other.store_read_bytes;
        self.store_write_bytes += other.store_write_bytes;
        self.memo_wait_ns += other.memo_wait_ns;
    }

    /// The row with every wall-clock field zeroed — what determinism
    /// tests compare, since only timings may differ between runs.
    pub fn without_timings(&self) -> RowCost {
        RowCost {
            tier: self.tier.clone(),
            capture_ns: 0,
            fit_ns: 0,
            warm_ns: 0,
            detailed_ns: 0,
            extrapolate_ns: 0,
            checkpoint_save_ns: 0,
            checkpoint_restore_ns: 0,
            queue_ns: 0,
            store_read_bytes: self.store_read_bytes,
            store_write_bytes: self.store_write_bytes,
            memo_wait_ns: 0,
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<RowCost>> = const { RefCell::new(None) };
    static PENDING_QUEUE_NS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Open a cost-collection scope on this thread; the collector starts
/// from [`RowCost::default`] plus any queue latency noted by the pool.
/// Scopes do not nest — opening while one is active resets it.
pub fn begin_row() -> RowScope {
    let cost = RowCost {
        queue_ns: PENDING_QUEUE_NS.with(|p| p.replace(0)),
        ..RowCost::default()
    };
    ACTIVE.with(|a| *a.borrow_mut() = Some(cost));
    RowScope { _priv: () }
}

/// Guard for an open cost-collection scope; [`RowScope::finish`] yields
/// the collected [`RowCost`].
pub struct RowScope {
    _priv: (),
}

impl RowScope {
    /// Close the scope and return what was collected.
    pub fn finish(self) -> RowCost {
        ACTIVE.with(|a| a.borrow_mut().take()).unwrap_or_default()
    }
}

/// True when a cost scope is active on this thread. Instrumentation can
/// use this to skip building segment timers entirely.
#[inline]
pub fn active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Attribute `ns` nanoseconds to `kind` (no-op without an active scope).
#[inline]
pub fn add_ns(kind: CostKind, ns: u64) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            match kind {
                CostKind::Capture => c.capture_ns += ns,
                CostKind::Fit => c.fit_ns += ns,
                CostKind::Warm => c.warm_ns += ns,
                CostKind::Detailed => c.detailed_ns += ns,
                CostKind::Extrapolate => c.extrapolate_ns += ns,
                CostKind::CheckpointSave => c.checkpoint_save_ns += ns,
                CostKind::CheckpointRestore => c.checkpoint_restore_ns += ns,
                CostKind::MemoWait => c.memo_wait_ns += ns,
            }
        }
    });
}

/// Attribute trace-store bytes read (no-op without an active scope).
#[inline]
pub fn add_store_read(bytes: u64) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            c.store_read_bytes += bytes;
        }
    });
}

/// Attribute trace-store bytes written (no-op without an active scope).
#[inline]
pub fn add_store_write(bytes: u64) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            c.store_write_bytes += bytes;
        }
    });
}

/// Record the deepest artifact tier touched; keeps the strongest of the
/// current and new tier (`capture` > `disk` > `mem` > `memo` > `-`).
#[inline]
pub fn set_tier(tier: &str) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            if tier_rank(tier) > tier_rank(&c.tier) {
                c.tier = tier.to_string();
            }
        }
    });
}

/// Folds the cost a job collected in a scope of its own (on a pool worker
/// with no row of its own) into this thread's active row; no-op without
/// one. The row keeps its own queue latency: the job's wait in the pool
/// overlaps the row's wall-clock instead of adding to it.
pub fn absorb_job(job: &RowCost) {
    ACTIVE.with(|a| {
        if let Some(c) = a.borrow_mut().as_mut() {
            let queue_ns = c.queue_ns;
            c.absorb(job);
            c.queue_ns = queue_ns;
        }
    });
}

/// Called by the pool just before running a dequeued job: stashes the
/// job's queue latency for the next [`begin_row`] on this thread.
#[inline]
pub fn note_queue_ns(ns: u64) {
    PENDING_QUEUE_NS.with(|p| p.set(ns));
}

/// Measure a region into `kind` via RAII; checks [`active`] once at
/// construction, so inactive timers never read the clock.
pub struct Timed {
    kind: CostKind,
    start: Option<Instant>,
}

impl Timed {
    /// Start timing a region attributed to `kind`.
    #[inline]
    pub fn start(kind: CostKind) -> Timed {
        Timed {
            kind,
            start: active().then(Instant::now),
        }
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            add_ns(self.kind, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Segment timer for schedule-driven replay loops: attributes contiguous
/// runs of warm / detailed units without reading the clock per unit —
/// only on phase *transitions*. Construct with [`SegmentTimer::new`],
/// call [`SegmentTimer::switch`] when the phase changes, and
/// [`SegmentTimer::finish`] at end of stream.
pub struct SegmentTimer {
    cur: Option<(CostKind, Instant)>,
    enabled: bool,
}

impl SegmentTimer {
    /// A timer that is live only when a cost scope is active.
    #[inline]
    pub fn new() -> SegmentTimer {
        SegmentTimer {
            cur: None,
            enabled: active(),
        }
    }

    /// True when attached to an active cost scope.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Note that the loop is now in a `kind` segment. Cheap when the
    /// kind is unchanged (one enum compare); flushes the previous
    /// segment's elapsed time on change.
    #[inline]
    pub fn switch(&mut self, kind: CostKind) {
        if !self.enabled {
            return;
        }
        match &self.cur {
            Some((k, _)) if *k == kind => {}
            _ => {
                let now = Instant::now();
                if let Some((k, t0)) = self.cur.take() {
                    add_ns(k, now.duration_since(t0).as_nanos() as u64);
                }
                self.cur = Some((kind, now));
            }
        }
    }

    /// Flush the final segment.
    #[inline]
    pub fn finish(mut self) {
        if let Some((k, t0)) = self.cur.take() {
            add_ns(k, t0.elapsed().as_nanos() as u64);
        }
    }
}

impl Default for SegmentTimer {
    fn default() -> Self {
        SegmentTimer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_scope_ignores_all_adds() {
        assert!(!active());
        add_ns(CostKind::Capture, 10);
        add_store_read(10);
        set_tier("capture");
        let scope = begin_row();
        let cost = scope.finish();
        assert_eq!(cost, RowCost::default());
    }

    #[test]
    fn scope_collects_and_ranks_tiers() {
        let scope = begin_row();
        add_ns(CostKind::Capture, 5);
        add_ns(CostKind::Warm, 7);
        add_ns(CostKind::Warm, 3);
        add_store_read(100);
        add_store_write(40);
        set_tier("memo");
        set_tier("disk");
        set_tier("mem"); // weaker: must not downgrade
        let cost = scope.finish();
        assert_eq!(cost.capture_ns, 5);
        assert_eq!(cost.warm_ns, 10);
        assert_eq!(cost.store_read_bytes, 100);
        assert_eq!(cost.store_write_bytes, 40);
        assert_eq!(cost.tier, "disk");
        assert_eq!(cost.attributed_ns(), 15);
        assert!(!active());
    }

    #[test]
    fn queue_latency_flows_into_next_row() {
        note_queue_ns(1234);
        let cost = begin_row().finish();
        assert_eq!(cost.queue_ns, 1234);
        // consumed: the next row starts clean
        let cost = begin_row().finish();
        assert_eq!(cost.queue_ns, 0);
    }

    #[test]
    fn segment_timer_attributes_transitions() {
        let scope = begin_row();
        let mut seg = SegmentTimer::new();
        assert!(seg.enabled());
        seg.switch(CostKind::Warm);
        seg.switch(CostKind::Warm);
        seg.switch(CostKind::Detailed);
        seg.finish();
        let cost = scope.finish();
        // both segments saw >= 0 ns and nothing else was touched
        assert_eq!(cost.capture_ns, 0);
        assert_eq!(cost.fit_ns, 0);
    }

    #[test]
    fn without_timings_keeps_shape_fields() {
        let scope = begin_row();
        add_ns(CostKind::Detailed, 99);
        add_store_read(7);
        set_tier("capture");
        let cost = scope.finish();
        let stable = cost.without_timings();
        assert_eq!(stable.detailed_ns, 0);
        assert_eq!(stable.store_read_bytes, 7);
        assert_eq!(stable.tier, "capture");
    }

    #[test]
    fn a_job_scope_lands_in_the_row_without_its_queue_wait() {
        note_queue_ns(5);
        let row = begin_row();
        // What a window job on a scope-less worker collects.
        let job = std::thread::spawn(|| {
            assert!(!active());
            note_queue_ns(1000);
            let scope = begin_row();
            add_ns(CostKind::Detailed, 30);
            add_ns(CostKind::CheckpointRestore, 4);
            scope.finish()
        })
        .join()
        .unwrap();
        add_ns(CostKind::Detailed, 2);
        absorb_job(&job);
        let cost = row.finish();
        assert_eq!(cost.detailed_ns, 32);
        assert_eq!(cost.checkpoint_restore_ns, 4);
        assert_eq!(cost.queue_ns, 5, "the row keeps its own queue latency");
        absorb_job(&job); // no active scope: nothing to fold into
    }

    #[test]
    fn absorb_rolls_up() {
        let mut total = RowCost::default();
        let a = RowCost {
            capture_ns: 10,
            tier: "disk".to_string(),
            ..RowCost::default()
        };
        let b = RowCost {
            detailed_ns: 20,
            tier: "capture".to_string(),
            ..RowCost::default()
        };
        total.absorb(&a);
        total.absorb(&b);
        assert_eq!(total.capture_ns, 10);
        assert_eq!(total.detailed_ns, 20);
        assert_eq!(total.tier, "capture");
    }
}
