//! Sparse live-point images, shared by both timing cores.
//!
//! A live-point stores only the state a window can touch (Wenisch et
//! al., "Simulation sampling with live-points", ISPASS 2006). Most of a
//! warmed machine is still at its reset value: a sampled stream fills a
//! small share of a large L2, and few predictor entries ever move. Three
//! encodings cover it:
//!
//! * **Tag arrays** ([`SparseWays`]): the valid ways as sorted
//!   `(set, way, tag, stamp)` entries, plus the array's LRU clock.
//! * **Tables** ([`sparse_table`] / [`scatter_table`]): the sorted
//!   `(index, value)` entries that differ from the reset value.
//! * **Sorted cycle sets** ([`delta_code`] / [`delta_decode`]): the gaps
//!   between successive claimed cycles, counted from the snapshot's
//!   horizon, so a run of claims on consecutive cycles costs one small
//!   varint each instead of an absolute cycle number.
//!
//! Every restore fills the reset value first and then scatters the
//! entries, so it is exact on any machine, not only a fresh one. Restores
//! check every index against the live geometry and reject unsorted or
//! duplicate entries with an `Err`; no image, however malformed, panics.

use serde::{Deserialize, Serialize};

/// A tag-array way that holds no line: the reset value of every way.
pub const EMPTY_WAY: (u64, u64) = (u64::MAX, 0);

/// Sparse image of a set-associative tag array, stored set-major as one
/// slice of `(tag, last-use stamp)` ways ([`EMPTY_WAY`] when empty).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SparseWays {
    /// Set count and associativity of the array the image was taken of.
    sets: u32,
    ways: u32,
    /// `(set, way, tag, stamp)` of every non-empty way, sorted by
    /// `(set, way)`.
    lines: Vec<(u32, u32, u64, u64)>,
    /// The array's LRU clock.
    stamp: u64,
}

impl SparseWays {
    /// The image of `tags` (`ways` ways per set) and its LRU clock.
    #[must_use]
    pub fn capture(tags: &[(u64, u64)], ways: usize, stamp: u64) -> SparseWays {
        let lines = tags
            .iter()
            .enumerate()
            .filter(|(_, &w)| w != EMPTY_WAY)
            .map(|(i, &(tag, used))| ((i / ways) as u32, (i % ways) as u32, tag, used))
            .collect();
        SparseWays {
            sets: (tags.len() / ways) as u32,
            ways: ways as u32,
            lines,
            stamp,
        }
    }

    /// Empties every way of `tags` (`ways` ways per set), scatters the
    /// image's lines into it, and returns the LRU clock to resume with.
    ///
    /// # Errors
    /// The image was taken of a different geometry, or names a way out of
    /// range, or lists ways unsorted or twice.
    pub fn restore(&self, tags: &mut [(u64, u64)], ways: usize) -> Result<u64, String> {
        let sets = tags.len() / ways;
        if self.sets as usize != sets || self.ways as usize != ways {
            return Err(format!(
                "tag image is {}x{} ways, the cache is {sets}x{ways}",
                self.sets, self.ways
            ));
        }
        check_sorted(self.lines.iter().map(|l| (l.0, l.1)), "tag image")?;
        if let Some(l) = self
            .lines
            .iter()
            .find(|l| l.0 >= self.sets || l.1 >= self.ways)
        {
            return Err(format!(
                "tag image names set {} way {}, out of range",
                l.0, l.1
            ));
        }
        tags.fill(EMPTY_WAY);
        for &(set, way, tag, used) in &self.lines {
            tags[set as usize * ways + way as usize] = (tag, used);
        }
        Ok(self.stamp)
    }
}

/// The entries of `table` that differ from `reset`, as sorted
/// `(index, value)` pairs.
#[must_use]
pub fn sparse_table<T: Copy + PartialEq>(table: &[T], reset: T) -> Vec<(u32, T)> {
    table
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != reset)
        .map(|(i, &v)| (i as u32, v))
        .collect()
}

/// Fills `table` with `reset` and scatters `entries` (from
/// [`sparse_table`]) into it.
///
/// # Errors
/// An index out of range, or indices unsorted or repeated.
pub fn scatter_table<T: Copy>(
    entries: &[(u32, T)],
    table: &mut [T],
    reset: T,
) -> Result<(), String> {
    check_sorted(entries.iter().map(|e| e.0), "table image")?;
    if let Some(&(i, _)) = entries.last().filter(|e| e.0 as usize >= table.len()) {
        return Err(format!(
            "table image names entry {i} of a {}-entry table",
            table.len()
        ));
    }
    table.fill(reset);
    for &(i, v) in entries {
        table[i as usize] = v;
    }
    Ok(())
}

/// Delta-codes a strictly increasing cycle set whose cycles are all at or
/// after `horizon`: the first entry is the distance from `horizon`, each
/// later one the count of free cycles since the previous claim (so
/// back-to-back claims code as zeros).
#[must_use]
pub fn delta_code(horizon: u64, cycles: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut next = horizon;
    cycles
        .into_iter()
        .map(|c| {
            debug_assert!(c >= next, "cycle set unsorted or below its horizon");
            let gap = c - next;
            next = c.wrapping_add(1);
            gap
        })
        .collect()
}

/// Decodes a cycle set coded by [`delta_code`] from the same `horizon`.
/// The result is strictly increasing by construction.
///
/// # Errors
/// The gaps run past `u64::MAX`.
pub fn delta_decode(horizon: u64, gaps: &[u64]) -> Result<Vec<u64>, String> {
    let mut next = Some(horizon);
    gaps.iter()
        .map(|&gap| {
            let c = next
                .and_then(|n| n.checked_add(gap))
                .ok_or("cycle set image overflows the cycle counter")?;
            next = c.checked_add(1);
            Ok(c)
        })
        .collect()
}

/// Checks that `keys` is strictly increasing.
fn check_sorted<K: Ord + Copy + std::fmt::Debug>(
    keys: impl IntoIterator<Item = K>,
    what: &str,
) -> Result<(), String> {
    let mut prev: Option<K> = None;
    for k in keys {
        if prev.is_some_and(|p| p >= k) {
            return Err(format!("{what} lists {k:?} unsorted or twice"));
        }
        prev = Some(k);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes<T: Serialize>(t: &T) -> Vec<u8> {
        serde::bin::to_bytes(t)
    }

    #[test]
    fn ways_round_trip_into_a_dirty_array() {
        let mut tags = vec![EMPTY_WAY; 4 * 8];
        tags[2 * 4 + 1] = (7, 3);
        tags[5 * 4] = (9, 4);
        tags[5 * 4 + 3] = (u64::MAX, 1); // a tag that reads as empty, but used
        let img = SparseWays::capture(&tags, 4, 4);
        assert_eq!(
            img.lines,
            vec![(2, 1, 7, 3), (5, 0, 9, 4), (5, 3, u64::MAX, 1)]
        );
        let back: SparseWays = serde::bin::from_bytes(&bytes(&img)).unwrap();
        let mut dirty = vec![(1, 1); 4 * 8];
        assert_eq!(back.restore(&mut dirty, 4), Ok(4));
        assert_eq!(dirty, tags);
    }

    #[test]
    fn ways_reject_foreign_geometry_and_bad_entries() {
        let tags = vec![EMPTY_WAY; 2 * 4];
        let mut img = SparseWays::capture(&tags, 2, 0);
        assert!(img.restore(&mut vec![EMPTY_WAY; 2 * 8], 2).is_err());
        assert!(img.restore(&mut vec![EMPTY_WAY; 4 * 4], 4).is_err());
        for lines in [
            vec![(4, 0, 1, 1)],               // set out of range
            vec![(0, 2, 1, 1)],               // way out of range
            vec![(1, 0, 1, 1), (0, 1, 2, 2)], // unsorted
            vec![(1, 1, 1, 1), (1, 1, 2, 2)], // duplicate
        ] {
            img.lines = lines;
            let mut t = tags.clone();
            assert!(img.restore(&mut t, 2).is_err(), "{:?}", img.lines);
        }
    }

    #[test]
    fn tables_keep_only_moved_entries() {
        let mut table = vec![1u8; 64];
        table[3] = 0;
        table[60] = 3;
        let img = sparse_table(&table, 1);
        assert_eq!(img, vec![(3, 0), (60, 3)]);
        let mut dirty = vec![2u8; 64];
        scatter_table(&img, &mut dirty, 1).unwrap();
        assert_eq!(dirty, table);
        assert!(scatter_table(&[(64, 0u8)], &mut dirty, 1).is_err());
        assert!(scatter_table(&[(5, 0u8), (5, 2)], &mut dirty, 1).is_err());
        assert!(scatter_table(&[(6, 0u8), (5, 2)], &mut dirty, 1).is_err());
        // A rejected image leaves the table as it was.
        assert_eq!(dirty, table);
    }

    #[test]
    fn cycle_sets_code_runs_as_zeros() {
        let cycles = [100, 101, 102, 110, u64::MAX];
        let gaps = delta_code(90, cycles);
        assert_eq!(&gaps[..4], &[10, 0, 0, 7]);
        assert_eq!(delta_decode(90, &gaps).unwrap(), cycles);
        assert_eq!(delta_decode(5, &[]).unwrap(), Vec::<u64>::new());
        assert!(delta_decode(u64::MAX - 1, &[0, 0, 0]).is_err());
        assert!(delta_decode(1, &[u64::MAX]).is_err());
    }
}
