//! Reference rows and the per-point correctness check.
//!
//! A row is the sweep CSV's deterministic prefix: columns 1–15, from
//! `workload` through `status`. The reference file keeps those columns for
//! every point of every benchmark workload, plus the full-replay cycles of
//! each sampled point, which bound the estimate error.

use std::collections::BTreeMap;
use trips_engine::sweep::{to_csv, SweepRow};

/// Names of the deterministic columns, in CSV order.
pub const COLUMNS: [&str; 15] = [
    "workload",
    "backend",
    "config",
    "cycles",
    "ipc",
    "blocks",
    "mispredict_flushes",
    "load_flushes",
    "l1d_misses",
    "avg_window",
    "sampled",
    "detailed_frac",
    "est_cycles",
    "phase_k",
    "status",
];

/// The reference rows bundled with the benchmark.
pub const REFERENCE: &str = include_str!("../reference.csv");

/// Columns 1–15 of every row, sorted (so sweep order never matters).
pub fn sorted_rows(rows: &[SweepRow]) -> Vec<String> {
    let mut out: Vec<String> = to_csv(rows)
        .lines()
        .skip(1)
        .map(|l| {
            l.split(',')
                .take(COLUMNS.len())
                .collect::<Vec<_>>()
                .join(",")
        })
        .collect();
    out.sort();
    out
}

/// A row's point label, `workload/backend/config`.
pub fn label(row: &str) -> String {
    row.split(',').take(3).collect::<Vec<_>>().join("/")
}

/// Parsed reference file: rows per benchmark workload, keyed by point
/// label, and full-replay cycles per point label.
#[derive(Debug, Default)]
pub struct Reference {
    pub rows: BTreeMap<String, BTreeMap<String, String>>,
    pub truth: BTreeMap<String, u64>,
}

impl Reference {
    /// Parses `row,<workload>,<15 columns>` and `truth,<label>,<cycles>`
    /// lines; `#` lines are comments.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut r = Reference::default();
        for (n, line) in text.lines().enumerate() {
            let bad = || format!("reference line {}: `{line}`", n + 1);
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, ',');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("row"), Some(workload), Some(row))
                    if row.split(',').count() == COLUMNS.len() =>
                {
                    r.rows
                        .entry(workload.to_string())
                        .or_default()
                        .insert(label(row), row.to_string());
                }
                (Some("truth"), Some(point), Some(cycles)) => {
                    let cycles = cycles.parse().map_err(|_| bad())?;
                    r.truth.insert(point.to_string(), cycles);
                }
                _ => return Err(bad()),
            }
        }
        Ok(r)
    }

    /// Renders the file [`Reference::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# trips-perf reference: sweep CSV columns 1-15 of every point of every\n\
             # workload (`row,<workload>,...`) and the full-replay cycles of every\n\
             # sampled point (`truth,<workload/backend/config>,<cycles>`).\n\
             # Regenerate with `trips-perf --write-reference` from the repository root.\n",
        );
        for (workload, rows) in &self.rows {
            for row in rows.values() {
                out.push_str(&format!("row,{workload},{row}\n"));
            }
        }
        for (point, cycles) in &self.truth {
            out.push_str(&format!("truth,{point},{cycles}\n"));
        }
        out
    }
}

/// Checks sorted rows against the reference rows of one workload. Returns
/// one message per bad point: a failed status, a differing column, a point
/// the reference lacks, or a reference point the sweep did not produce.
pub fn check_rows(want: &BTreeMap<String, String>, got: &[String]) -> Vec<String> {
    let mut bad = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for row in got {
        let point = label(row);
        seen.insert(point.clone());
        let cols: Vec<&str> = row.split(',').collect();
        if cols.get(14) == Some(&"failed") {
            bad.push(format!("{point}: status failed"));
            continue;
        }
        let Some(reference) = want.get(&point) else {
            bad.push(format!("{point}: not in the reference rows"));
            continue;
        };
        let diffs: Vec<String> = cols
            .iter()
            .zip(reference.split(','))
            .zip(COLUMNS)
            // `ok` and `retried` are both successes; the status column
            // only fails a point when it reads `failed` (above).
            .filter(|((g, w), name)| **g != *w && *name != "status")
            .map(|((g, w), name)| format!("{name} {g} (reference {w})"))
            .collect();
        if !diffs.is_empty() {
            bad.push(format!("{point}: {}", diffs.join(", ")));
        }
    }
    for point in want.keys().filter(|p| !seen.contains(*p)) {
        bad.push(format!("{point}: missing from the sweep"));
    }
    bad
}

/// The largest |estimate − full-replay cycles| / full-replay cycles, in
/// percent, over the sampled rows; `Err` names a sampled point without a
/// full-replay reference.
pub fn max_est_err_pct(rows: &[String], truth: &BTreeMap<String, u64>) -> Result<f64, String> {
    let mut worst = 0.0f64;
    for row in rows {
        let cols: Vec<&str> = row.split(',').collect();
        if cols[10] != "true" {
            continue;
        }
        let point = label(row);
        let full = *truth
            .get(&point)
            .ok_or_else(|| format!("{point}: no full-replay reference"))?;
        let est: f64 = cols[12]
            .parse()
            .map_err(|_| format!("{point}: bad est_cycles"))?;
        worst = worst.max((est - full as f64).abs() / full as f64 * 100.0);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: [&str; 2] = [
        "bzip2,trips,prototype,247561,2.3074,15618,844,0,310,253.03,true,0.1432,1500472,4,ok",
        "fft,core2,-,12740,2.3688,0,0,0,0,0.00,false,1.0000,12740,0,ok",
    ];

    fn reference() -> Reference {
        let mut text = String::new();
        for row in ROWS {
            text.push_str(&format!("row,warm-phased,{row}\n"));
        }
        text.push_str("truth,bzip2/trips/prototype,1500223\n");
        Reference::parse(&text).unwrap()
    }

    fn got(rows: &[&str]) -> Vec<String> {
        rows.iter().map(|r| (*r).to_string()).collect()
    }

    #[test]
    fn matching_rows_pass_and_render_round_trips() {
        let r = reference();
        assert!(check_rows(&r.rows["warm-phased"], &got(&ROWS)).is_empty());
        let again = Reference::parse(&r.render()).unwrap();
        assert_eq!(again.rows, r.rows);
        assert_eq!(again.truth, r.truth);
    }

    #[test]
    fn a_perturbed_cycle_count_is_flagged_by_label() {
        let r = reference();
        let perturbed = ROWS[0].replacen("247561", "247562", 1);
        let bad = check_rows(&r.rows["warm-phased"], &got(&[&perturbed, ROWS[1]]));
        assert_eq!(bad.len(), 1);
        assert!(
            bad[0].starts_with("bzip2/trips/prototype: cycles 247562"),
            "{bad:?}"
        );
    }

    #[test]
    fn a_failed_status_is_flagged() {
        let r = reference();
        let failed = "fft,core2,-,0,0.0000,0,0,0,0,0.00,false,0.0000,0,0,failed";
        let bad = check_rows(&r.rows["warm-phased"], &got(&[ROWS[0], failed]));
        assert_eq!(bad, vec!["fft/core2/-: status failed".to_string()]);
    }

    #[test]
    fn a_retried_point_with_reference_columns_passes() {
        let r = reference();
        let retried = ROWS[1].replace(",ok", ",retried");
        assert!(check_rows(&r.rows["warm-phased"], &got(&[ROWS[0], &retried])).is_empty());
    }

    #[test]
    fn missing_and_foreign_points_are_flagged() {
        let r = reference();
        let foreign = ROWS[1].replace("core2", "p4");
        let bad = check_rows(&r.rows["warm-phased"], &got(&[ROWS[0], &foreign]));
        assert_eq!(bad.len(), 2, "{bad:?}");
    }

    #[test]
    fn estimate_error_is_taken_against_full_replay() {
        let r = reference();
        let err = max_est_err_pct(&got(&ROWS), &r.truth).unwrap();
        let want = (1_500_472.0 - 1_500_223.0) / 1_500_223.0 * 100.0;
        assert!((err - want).abs() < 1e-12);
        assert!(max_est_err_pct(&got(&ROWS), &BTreeMap::new()).is_err());
    }
}
