//! Set-associative LRU cache tag arrays and bank-occupancy tracking.
//!
//! Occupancy is exact per cycle: each single-ported resource keeps a
//! `ClaimSet`, a sorted vector of the cycles already granted, which the
//! data-tile banks, L2 banks and DRAM channels here and the operand
//! network's links ([`crate::opn`]) all share.

use serde::{Deserialize, Serialize};
use trips_sample::sparse::{delta_code, delta_decode, SparseWays, EMPTY_WAY};

/// Serializable image of a row of claimed-cycle sets — the banks of a
/// [`BankPorts`], or the directed links of the operand network
/// ([`crate::opn::Opn`]): each set's claims at or after `horizon`,
/// delta-coded ([`trips_sample::sparse::delta_code`]), so identical
/// occupancy always serializes to identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClaimsSnapshot {
    pub(crate) horizon: u64,
    pub(crate) sets: Vec<Vec<u64>>,
}

impl ClaimsSnapshot {
    /// The claims of every set in `sets` at cycle ≥ `horizon`.
    pub(crate) fn capture(sets: &[ClaimSet], horizon: u64) -> ClaimsSnapshot {
        ClaimsSnapshot {
            horizon,
            sets: sets
                .iter()
                .map(|set| delta_code(horizon, set.claims_from(horizon).iter().copied()))
                .collect(),
        }
    }

    /// Replaces every set in `sets` with its image.
    ///
    /// # Errors
    /// The image holds a different number of sets, or a set overflows
    /// the cycle counter.
    pub(crate) fn restore(&self, sets: &mut [ClaimSet]) -> Result<(), String> {
        if sets.len() != self.sets.len() {
            return Err(format!(
                "occupancy image has {} claim sets, the machine has {}",
                self.sets.len(),
                sets.len()
            ));
        }
        let decoded = self
            .sets
            .iter()
            .map(|gaps| delta_decode(self.horizon, gaps).map(ClaimSet))
            .collect::<Result<Vec<_>, _>>()?;
        for (set, claims) in sets.iter_mut().zip(decoded) {
            *set = claims;
        }
        Ok(())
    }
}

/// A set-associative cache model (tags only; data values live in the
/// functional memory).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    line: usize,
    ways: usize,
    /// `(tag, last-use stamp)` per way, set-major (`tags[set * ways +
    /// way]`); empty ways hold [`EMPTY_WAY`].
    tags: Vec<(u64, u64)>,
    stamp: u64,
    /// Accesses and misses.
    pub accesses: u64,
    /// Misses.
    pub misses: u64,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `ways` associativity and
    /// `line`-byte lines. Degenerate geometries (capacity smaller than one
    /// set of lines) are clamped to a single set rather than rejected, so
    /// sweep configurations can shrink caches arbitrarily far.
    pub fn new(bytes: usize, ways: usize, line: usize) -> Cache {
        let sets = (bytes / line / ways).max(1);
        Cache {
            sets,
            line,
            ways,
            tags: vec![EMPTY_WAY; sets * ways],
            stamp: 0,
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`; returns true on hit, filling on miss (allocate on
    /// read and write, write-back ignored — bandwidth is modelled at the
    /// consumer).
    pub fn access(&mut self, addr: u64) -> bool {
        self.stamp += 1;
        self.accesses += 1;
        let lineno = addr / self.line as u64;
        let set = (lineno % self.sets as u64) as usize;
        let tag = lineno / self.sets as u64;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        for way in ways.iter_mut() {
            if way.0 == tag {
                way.1 = self.stamp;
                return true;
            }
        }
        self.misses += 1;
        // Evict LRU.
        let victim = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.1)
            .map(|(i, _)| i)
            .unwrap_or(0);
        ways[victim] = (tag, self.stamp);
        false
    }

    /// Captures the replacement state for a live-point: the valid ways
    /// and the LRU stamp. The accounting counters (`accesses`, `misses`)
    /// are *not* captured — a restored replay baselines them itself, so
    /// live-point snapshots stay pure machine state.
    pub fn snapshot(&self) -> SparseWays {
        SparseWays::capture(&self.tags, self.ways, self.stamp)
    }

    /// Restores replacement state captured by [`Cache::snapshot`],
    /// emptying every way the image does not name.
    ///
    /// # Errors
    /// The image's geometry (sets × ways) differs from this cache's, or
    /// it names ways out of range, unsorted or twice.
    pub fn restore(&mut self, s: &SparseWays) -> Result<(), String> {
        self.stamp = s.restore(&mut self.tags, self.ways)?;
        Ok(())
    }

    /// Miss ratio so far.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A set of claimed cycles on one single-ported resource (a cache bank, a
/// DRAM channel, or a directed operand-network link in [`crate::opn`]),
/// kept as a sorted vector.
///
/// Claims arrive out of order but cluster near the newest one, so the
/// search for a free slot starts at the tail and falls back to bisection,
/// and an insert moves only the few claims above it. The set stays short:
/// once it holds more than [`ClaimSet::PRUNE_LEN`] claims, everything more
/// than [`ClaimSet::PRUNE_KEEP`] cycles below the newest grant is dropped.
/// That rule decides which old cycles count as free again, so it is part
/// of the timing model, not just memory hygiene.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClaimSet(Vec<u64>);

impl ClaimSet {
    /// Claim count above which a grant prunes the set.
    pub(crate) const PRUNE_LEN: usize = 2048;
    /// Cycles below a pruning grant that survive the prune.
    pub(crate) const PRUNE_KEEP: u64 = 1024;

    /// Index of the first claim at or after cycle `t`.
    fn lower_bound(&self, t: u64) -> usize {
        match self.0.last() {
            Some(&last) if last >= t => self.0.partition_point(|&c| c < t),
            _ => self.0.len(),
        }
    }

    /// The first cycle `s ≥ t` with `s..s + span` all unclaimed, and the
    /// index its claims would be inserted at.
    fn first_free(&self, t: u64, span: u64) -> (u64, usize) {
        let mut start = t;
        let mut i = self.lower_bound(t);
        while i < self.0.len() && self.0[i] < start + span {
            start = self.0[i] + 1;
            i += 1;
        }
        (start, i)
    }

    /// Claims the first free run of `span` cycles at or after `t` (see
    /// [`ClaimSet::first_free`]), prunes, and returns the run's start.
    pub(crate) fn claim(&mut self, t: u64, span: u64) -> u64 {
        let (start, i) = self.first_free(t, span);
        if span == 1 {
            self.0.insert(i, start);
        } else {
            self.0.splice(i..i, start..start + span);
        }
        if self.0.len() > Self::PRUNE_LEN {
            self.retain_from(start.saturating_sub(Self::PRUNE_KEEP));
        }
        start
    }

    /// The claims at cycle ≥ `horizon`, ascending.
    pub(crate) fn claims_from(&self, horizon: u64) -> &[u64] {
        &self.0[self.lower_bound(horizon)..]
    }

    /// Drops every claim below `horizon`.
    fn retain_from(&mut self, horizon: u64) {
        let n = self.lower_bound(horizon);
        self.0.drain(..n);
    }
}

/// Tracks single-ported bank occupancy with exact per-cycle claims.
///
/// Requests arrive with out-of-order timestamps (overlapping blocks), so
/// each bank keeps a `ClaimSet` (a sorted vector of claimed cycles)
/// instead of a monotonic next-free-cycle counter.
#[derive(Debug, Clone, Default)]
pub struct BankPorts {
    busy: Vec<ClaimSet>,
    /// Total accesses routed through the banks.
    pub accesses: u64,
    /// Cycles lost to bank conflicts.
    pub conflict_cycles: u64,
}

impl BankPorts {
    /// `n` banks, all free at cycle 0.
    pub fn new(n: usize) -> BankPorts {
        BankPorts {
            busy: vec![ClaimSet::default(); n],
            accesses: 0,
            conflict_cycles: 0,
        }
    }

    /// Reserves `bank` starting at the first free slot ≥ `t`, claiming
    /// `busy` consecutive cycles; returns the actual start time.
    pub fn reserve(&mut self, bank: usize, t: u64, busy: u64) -> u64 {
        self.accesses += 1;
        let start = self.busy[bank].claim(t, busy);
        self.conflict_cycles += start - t;
        start
    }

    /// Captures the claimed-cycle occupancy (counters excluded, as for
    /// [`Cache::snapshot`]), keeping only claims at cycle ≥ `horizon` —
    /// reservation searches start at request times near the current clock,
    /// so claims far enough behind it can never be probed again and would
    /// only bloat the snapshot (see [`crate::opn::Opn::snapshot`]).
    pub fn snapshot(&self, horizon: u64) -> ClaimsSnapshot {
        ClaimsSnapshot::capture(&self.busy, horizon)
    }

    /// Restores occupancy captured by [`BankPorts::snapshot`].
    ///
    /// # Errors
    /// The image holds another bank count, or a claim set overflows the
    /// cycle counter.
    pub fn restore(&mut self, s: &ClaimsSnapshot) -> Result<(), String> {
        s.restore(&mut self.busy)
    }
}

/// The original hash-set claim semantics, kept as the test oracle that
/// [`ClaimSet`], [`BankPorts`] and the operand network are checked
/// against step by step.
#[cfg(test)]
pub(crate) mod oracle {
    use super::ClaimsSnapshot;
    use std::collections::HashSet;
    use trips_sample::sparse::{delta_code, delta_decode};

    /// Claims the first run of `span` free cycles at or after `t` by
    /// probing one cycle at a time, then prunes claims more than 1024
    /// cycles below the grant once the set holds more than 2048.
    pub(crate) fn claim(set: &mut HashSet<u64>, t: u64, span: u64) -> u64 {
        let mut start = t;
        'search: loop {
            for k in 0..span {
                if set.contains(&(start + k)) {
                    start += k + 1;
                    continue 'search;
                }
            }
            break;
        }
        for k in 0..span {
            set.insert(start + k);
        }
        if set.len() > 2048 {
            let horizon = start.saturating_sub(1024);
            set.retain(|&c| c >= horizon);
        }
        start
    }

    /// Sorted claims at or after `horizon`.
    pub(crate) fn sorted_from(set: &HashSet<u64>, horizon: u64) -> Vec<u64> {
        let mut v: Vec<u64> = set.iter().copied().filter(|&c| c >= horizon).collect();
        v.sort_unstable();
        v
    }

    /// The image of hash-set claim sets, as [`ClaimsSnapshot::capture`]
    /// takes it of sorted ones.
    pub(crate) fn image<'a>(
        sets: impl Iterator<Item = &'a HashSet<u64>>,
        horizon: u64,
    ) -> ClaimsSnapshot {
        ClaimsSnapshot {
            horizon,
            sets: sets
                .map(|s| delta_code(horizon, sorted_from(s, horizon)))
                .collect(),
        }
    }

    /// The hash-set claim sets an image holds.
    pub(crate) fn sets_of(s: &ClaimsSnapshot) -> Vec<HashSet<u64>> {
        s.sets
            .iter()
            .map(|gaps| delta_decode(s.horizon, gaps).unwrap().into_iter().collect())
            .collect()
    }

    /// Hash-set bank ports.
    #[derive(Debug, Clone)]
    pub(crate) struct Banks {
        busy: Vec<HashSet<u64>>,
        pub(crate) conflict_cycles: u64,
    }

    impl Banks {
        pub(crate) fn new(n: usize) -> Banks {
            Banks {
                busy: vec![HashSet::new(); n],
                conflict_cycles: 0,
            }
        }

        pub(crate) fn reserve(&mut self, bank: usize, t: u64, busy: u64) -> u64 {
            let start = claim(&mut self.busy[bank], t, busy);
            self.conflict_cycles += start - t;
            start
        }

        pub(crate) fn snapshot(&self, horizon: u64) -> ClaimsSnapshot {
            image(self.busy.iter(), horizon)
        }

        pub(crate) fn restore(&mut self, s: &ClaimsSnapshot) {
            self.busy = sets_of(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TripsConfig;
    use proptest::prelude::*;

    /// Request times for a reservation sequence: a clock advancing two
    /// cycles per request plus up to 200 cycles of jitter, so requests
    /// arrive out of order; one in ten reaches 3000 cycles back, behind
    /// the prune horizon.
    fn request_time(step: usize, jitter: u64, back: u64) -> u64 {
        let t = step as u64 * 2 + jitter;
        if back == 0 {
            t.saturating_sub(3000)
        } else {
            t
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Sorted claim sets reproduce the hash-set bank ports exactly:
        /// granted cycles, conflict cycles and snapshots at every step (of
        /// the claims near the clock, and of every claim each 128 steps),
        /// across the 2048-claim prune, and through snapshot → restore →
        /// continue. Three requests in four go to bank 0, so its set
        /// crosses the prune threshold.
        #[test]
        fn bank_ports_match_the_hash_set_oracle(
            ops in prop::collection::vec((0usize..4, 0u64..200, 1u64..6, 0u64..10), 1600..2000),
            split in 0usize..1600,
            cut in 0u64..4000,
        ) {
            let dram_occupancy = TripsConfig::prototype().dram_occupancy;
            let mut fast = BankPorts::new(2);
            let mut slow = oracle::Banks::new(2);
            let mut resumed: Option<(BankPorts, oracle::Banks)> = None;
            let mut claimed = [0u64; 2];
            for (step, &(sel, jitter, busy, back)) in ops.iter().enumerate() {
                let bank = usize::from(sel == 3);
                let busy = busy.min(dram_occupancy);
                let t = request_time(step, jitter, back);
                if step == split {
                    let horizon = (step as u64 * 2).saturating_sub(cut);
                    let mut f = BankPorts::new(2);
                    f.restore(&fast.snapshot(horizon)).unwrap();
                    let mut o = oracle::Banks::new(2);
                    o.restore(&slow.snapshot(horizon));
                    prop_assert_eq!(f.snapshot(0), o.snapshot(0));
                    resumed = Some((f, o));
                }
                claimed[bank] += busy;
                prop_assert_eq!(fast.reserve(bank, t, busy), slow.reserve(bank, t, busy));
                prop_assert_eq!(fast.conflict_cycles, slow.conflict_cycles);
                let near = if step % 128 == 0 { 0 } else { t.saturating_sub(256) };
                prop_assert_eq!(fast.snapshot(near), slow.snapshot(near), "step {}", step);
                if let Some((f, o)) = resumed.as_mut() {
                    prop_assert_eq!(f.reserve(bank, t, busy), o.reserve(bank, t, busy));
                    prop_assert_eq!(f.conflict_cycles, o.conflict_cycles);
                }
            }
            prop_assert_eq!(fast.snapshot(0), slow.snapshot(0));
            let (f, o) = resumed.expect("split lies inside the run");
            prop_assert_eq!(f.snapshot(0), o.snapshot(0));
            // Bank 0 took more claims than the threshold and was pruned.
            prop_assert!(claimed[0] > ClaimSet::PRUNE_LEN as u64);
            prop_assert!((fast.snapshot(0).sets[0].len() as u64) < claimed[0]);
        }
    }

    /// A live-point image after the trip through bytes a store makes.
    fn through_bytes<T: Serialize + serde::DeserializeOwned>(t: &T) -> T {
        serde::bin::from_bytes(&serde::bin::to_bytes(t)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// A claim set restored from its delta-coded image grants exactly
        /// what the original grants, step by step: the image is taken at
        /// `split` (before or after the first 2048-claim prune), restored
        /// into banks that already hold other claims, and both copies then
        /// serve the rest of the sequence, pruning at least once more. The
        /// horizon never cuts a claim, so the restored set must equal the
        /// original.
        #[test]
        fn claim_sets_resume_exactly_from_their_image(
            ops in prop::collection::vec((0u64..200, 1u64..6, 0u64..10), 2600..3000),
            split in 0usize..2000,
            below in 0u64..5000,
        ) {
            let mut orig = BankPorts::new(1);
            let mut resumed: Option<BankPorts> = None;
            let mut prunes_after_split = 0;
            for (step, &(jitter, busy, back)) in ops.iter().enumerate() {
                let t = request_time(step, jitter, back);
                if step == split {
                    let lowest = orig.busy[0].claims_from(0).first().copied().unwrap_or(0);
                    let img = through_bytes(&orig.snapshot(lowest.saturating_sub(below)));
                    let mut r = BankPorts::new(1);
                    r.reserve(0, 7, 3);
                    r.restore(&img).unwrap();
                    prop_assert_eq!(r.snapshot(0), orig.snapshot(0));
                    resumed = Some(r);
                }
                let len = orig.busy[0].0.len() as u64;
                let granted = orig.reserve(0, t, busy);
                if let Some(r) = resumed.as_mut() {
                    prop_assert_eq!(r.reserve(0, t, busy), granted, "step {}", step);
                    if (orig.busy[0].0.len() as u64) < len + busy {
                        prunes_after_split += 1;
                    }
                }
            }
            prop_assert_eq!(resumed.unwrap().snapshot(0), orig.snapshot(0));
            prop_assert!(prunes_after_split > 0);
        }

        /// A cache restored from its sparse image — into a cache that
        /// already holds other lines — hits and misses exactly as the
        /// original does for the rest of an access sequence.
        #[test]
        fn caches_resume_exactly_from_their_image(
            ops in prop::collection::vec(0u64..256, 300..600),
            split in 0usize..300,
        ) {
            let mut orig = Cache::new(4096, 4, 64);
            let mut resumed: Option<Cache> = None;
            for (step, &line) in ops.iter().enumerate() {
                let addr = line * 64 + line % 64;
                if step == split {
                    let mut r = Cache::new(4096, 4, 64);
                    for a in (0..64).map(|l| (l * 7 + 3) * 64) {
                        r.access(a);
                    }
                    r.restore(&through_bytes(&orig.snapshot())).unwrap();
                    resumed = Some(r);
                }
                let hit = orig.access(addr);
                if let Some(r) = resumed.as_mut() {
                    prop_assert_eq!(r.access(addr), hit, "step {}", step);
                }
            }
            prop_assert_eq!(resumed.unwrap().snapshot(), orig.snapshot());
        }
    }

    #[test]
    fn malformed_images_are_rejected() {
        // A cache image of another geometry.
        let mut c = Cache::new(4096, 4, 64);
        assert!(c.restore(&Cache::new(8192, 4, 64).snapshot()).is_err());
        assert!(c.restore(&Cache::new(4096, 2, 64).snapshot()).is_err());
        // Claim images of another bank count, or that overflow the clock;
        // a rejected image leaves the banks as they were.
        let mut b = BankPorts::new(2);
        b.reserve(1, 5, 2);
        let before = b.snapshot(0);
        assert!(b.restore(&BankPorts::new(3).snapshot(0)).is_err());
        let mut img = before.clone();
        img.horizon = u64::MAX - 1;
        assert!(b.restore(&img).is_err());
        let mut img = before.clone();
        img.sets[0] = vec![1, u64::MAX];
        assert!(b.restore(&img).is_err());
        assert_eq!(b.snapshot(0), before);
    }

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(1024, 2, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63));
        assert!(!c.access(64));
        assert_eq!(c.misses, 2);
        assert_eq!(c.accesses, 4);
    }

    #[test]
    fn lru_eviction() {
        // 2 ways, 1 set of 2 lines: third distinct line evicts the LRU.
        let mut c = Cache::new(128, 2, 64);
        assert!(!c.access(0)); // line A
        assert!(!c.access(64)); // line B  (set count = 1)
        assert!(c.access(0)); // A hits, refreshes
        assert!(!c.access(64 * 2)); // C evicts B
        assert!(c.access(0)); // A still resident
        assert!(!c.access(64)); // B was evicted
    }

    #[test]
    fn bank_conflicts_serialize() {
        let mut b = BankPorts::new(2);
        assert_eq!(b.reserve(0, 10, 3), 10);
        assert_eq!(b.reserve(0, 10, 3), 13); // conflict: pushed back
        assert_eq!(b.reserve(1, 10, 3), 10); // other bank free
        assert_eq!(b.conflict_cycles, 3);
    }

    #[test]
    fn out_of_order_reservations_fill_gaps() {
        // Regression: a request with an earlier timestamp uses the earlier
        // free slot instead of queueing behind a later reservation.
        let mut b = BankPorts::new(1);
        assert_eq!(b.reserve(0, 1000, 1), 1000);
        assert_eq!(b.reserve(0, 10, 1), 10);
        assert_eq!(b.conflict_cycles, 0);
        // And an exact collision still serializes.
        assert_eq!(b.reserve(0, 10, 1), 11);
        assert_eq!(b.conflict_cycles, 1);
    }

    #[test]
    fn degenerate_geometry_clamps_to_one_set() {
        // Capacity below one set's worth of lines: still a working
        // (1-set, fully associative) cache instead of a panic or a
        // zero-set division.
        let mut c = Cache::new(64, 4, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!(
            c.access(64) && c.access(0),
            "both lines fit the 4 ways of the single set"
        );
        // Zero-byte capacity is likewise clamped.
        let mut z = Cache::new(0, 2, 64);
        assert!(!z.access(0));
        assert!(z.access(0));
    }

    #[test]
    fn miss_rate_math() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0);
        c.access(0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-9);
    }
}
