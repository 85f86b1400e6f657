//! Process-global metrics registry: named counters, gauges, and
//! log2-bucketed histograms.
//!
//! Counters and histograms are **sharded**: each holds `SHARDS`
//! cache-line-padded atomic cells, and every thread picks a home shard
//! from its dense ordinal, so concurrent hot-loop increments from the
//! work-stealing pool land on different cache lines instead of
//! serializing on one. Reads ([`Counter::get`], snapshots) sum the shards
//! — they are racy-consistent, which is fine for telemetry.
//!
//! Metric names follow Prometheus conventions and may embed labels
//! directly: `pool_worker_busy_ns{worker="3"}` registers a distinct
//! series per label set. [`snapshot_text`] renders the whole registry in
//! deterministic (sorted) order as Prometheus text exposition, ready for
//! `trips-sweep --metrics` today and the streaming sweep daemon later.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of per-metric shards. A small power of two: enough to spread
/// the sweep pool's workers, cheap to sum at snapshot time.
pub const SHARDS: usize = 16;

/// Number of log2 histogram buckets: bucket `b > 0` counts values in
/// `[2^(b-1), 2^b)`, bucket 0 counts zeros, bucket 64 counts the rest.
pub const BUCKETS: usize = 65;

#[repr(align(64))]
struct PaddedU64(AtomicU64);

#[inline]
fn shard_index() -> usize {
    crate::span::thread_ordinal() as usize % SHARDS
}

/// Monotonically increasing counter, sharded across padded atomics.
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

impl Counter {
    fn new() -> Self {
        Counter {
            shards: std::array::from_fn(|_| PaddedU64(AtomicU64::new(0))),
        }
    }

    /// Add `n` to the calling thread's home shard.
    #[inline]
    pub fn inc(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum of all shards (racy-consistent).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// Last-write-wins gauge holding a `u64`.
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Read the gauge value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistShard {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl HistShard {
    fn new() -> Self {
        HistShard {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// Log2-bucketed histogram of `u64` samples, sharded like [`Counter`].
pub struct Histogram {
    shards: [HistShard; SHARDS],
}

/// Bucket index for a sample: 0 for zero, else `64 - leading_zeros`,
/// capped at [`BUCKETS`]` - 1`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b` (`u64::MAX` for the last).
pub fn bucket_bound(b: usize) -> u64 {
    if b >= 64 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

impl Histogram {
    fn new() -> Self {
        Histogram {
            shards: std::array::from_fn(|_| HistShard::new()),
        }
    }

    /// Record one sample on the calling thread's home shard.
    #[inline]
    pub fn observe(&self, v: u64) {
        let shard = &self.shards[shard_index()];
        shard.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        shard.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples across all shards.
    pub fn count(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .sum()
    }

    /// Sum of all recorded samples across all shards.
    pub fn sum(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.sum.load(Ordering::Relaxed))
            .sum()
    }

    /// Per-bucket counts summed across shards.
    pub fn buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for s in &self.shards {
            for (o, b) in out.iter_mut().zip(s.buckets.iter()) {
                *o += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

fn registry() -> &'static Mutex<BTreeMap<String, Metric>> {
    static REG: OnceLock<Mutex<BTreeMap<String, Metric>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Look up (registering on first use) the counter named `name`.
///
/// Registration takes the registry lock; cache the returned `Arc` outside
/// hot loops. Panics if `name` is already registered as another type.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
    {
        Metric::Counter(c) => Arc::clone(c),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Look up (registering on first use) the gauge named `name`.
///
/// Panics if `name` is already registered as another type.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Gauge(Arc::new(Gauge(AtomicU64::new(0)))))
    {
        Metric::Gauge(g) => Arc::clone(g),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

/// Look up (registering on first use) the histogram named `name`.
///
/// Panics if `name` is already registered as another type.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut reg = registry().lock().unwrap();
    match reg
        .entry(name.to_string())
        .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
    {
        Metric::Histogram(h) => Arc::clone(h),
        _ => panic!("metric {name:?} already registered with a different type"),
    }
}

fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

fn labels(name: &str) -> Option<&str> {
    name.find('{').map(|i| &name[i..])
}

/// Render every registered metric as Prometheus-style text exposition,
/// in sorted name order (deterministic given the same series).
///
/// Each family (the name before any `{labels}`) gets one `# TYPE` line
/// followed by all of its series. Histograms render cumulative
/// `<family>_bucket{<labels>,le="…"}` series, skipping empty buckets to
/// keep snapshots readable, then an `le="+Inf"` bucket equal to the
/// count, then `<family>_sum{<labels>}` and `<family>_count{<labels>}`.
pub fn snapshot_text() -> String {
    let reg = registry().lock().unwrap();
    // Group by family first: `x{…}` sorts after `x_y`, so registry order
    // alone would split a family around its neighbours.
    let mut families: BTreeMap<&str, Vec<(&str, &Metric)>> = BTreeMap::new();
    for (name, metric) in reg.iter() {
        families
            .entry(base_name(name))
            .or_default()
            .push((name, metric));
    }
    let mut out = String::new();
    for (base, series) in families {
        let kind = match series[0].1 {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        };
        out.push_str(&format!("# TYPE {base} {kind}\n"));
        for (name, metric) in series {
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{name} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{name} {}\n", g.get())),
                Metric::Histogram(h) => {
                    let labels = labels(name).unwrap_or("");
                    // The label list without braces, ready for `le` to join.
                    let head = match labels {
                        "" => String::new(),
                        l => format!("{},", &l[1..l.len() - 1]),
                    };
                    let buckets = h.buckets();
                    let mut cum = 0u64;
                    // The last bucket is unbounded: `+Inf` below covers it.
                    for (b, n) in buckets[..BUCKETS - 1].iter().enumerate() {
                        cum += n;
                        if *n == 0 {
                            continue;
                        }
                        let le = bucket_bound(b);
                        out.push_str(&format!("{base}_bucket{{{head}le=\"{le}\"}} {cum}\n"));
                    }
                    let count: u64 = buckets.iter().sum();
                    out.push_str(&format!("{base}_bucket{{{head}le=\"+Inf\"}} {count}\n"));
                    out.push_str(&format!("{base}_sum{labels} {}\n", h.sum()));
                    out.push_str(&format!("{base}_count{labels} {count}\n"));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = counter("test_counter_total");
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.inc(3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4 * 1000 * 3);
    }

    #[test]
    fn histogram_buckets_partition_the_line() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        for b in 1..BUCKETS - 1 {
            // the bound of bucket b is the largest value bucket b holds
            assert_eq!(bucket_of(bucket_bound(b)), b, "bucket {b}");
            assert_eq!(bucket_of(bucket_bound(b) + 1), b + 1, "bucket {b}");
        }
    }

    #[test]
    fn histogram_conserves_count_and_sum() {
        let h = histogram("test_hist_ns");
        for v in [0u64, 1, 7, 8, 1023, 1024, 1 << 40] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1 + 7 + 8 + 1023 + 1024 + (1u64 << 40));
        assert_eq!(h.buckets().iter().sum::<u64>(), h.count());
    }

    #[test]
    fn snapshot_is_deterministic_and_typed() {
        counter("test_snap_b_total").inc(2);
        gauge("test_snap_a").set(9);
        let one = snapshot_text();
        let two = snapshot_text();
        assert_eq!(one, two);
        assert!(one.contains("# TYPE test_snap_a gauge"));
        assert!(one.contains("test_snap_a 9"));
        assert!(one.contains("test_snap_b_total 2"));
        // sorted order: a before b
        let ia = one.find("test_snap_a").unwrap();
        let ib = one.find("test_snap_b_total").unwrap();
        assert!(ia < ib);
    }

    #[test]
    fn labeled_series_are_distinct() {
        gauge("test_worker_busy_ns{worker=\"0\"}").set(5);
        gauge("test_worker_busy_ns{worker=\"1\"}").set(6);
        let snap = snapshot_text();
        assert!(snap.contains("test_worker_busy_ns{worker=\"0\"} 5"));
        assert!(snap.contains("test_worker_busy_ns{worker=\"1\"} 6"));
        // one TYPE line for the shared base name
        assert_eq!(snap.matches("# TYPE test_worker_busy_ns gauge").count(), 1);
    }

    /// One parsed sample line: metric name, label pairs, value.
    type Sample = (String, Vec<(String, String)>, String);

    /// Parses `name{k="v",…} value` by the text-format grammar: a metric
    /// name `[a-zA-Z_:][a-zA-Z0-9_:]*`, an optional brace-enclosed list of
    /// `label="value"` pairs (label names `[a-zA-Z_][a-zA-Z0-9_]*`, values
    /// with `\\`-escapes), one space, and a value token.
    fn parse_sample(line: &str) -> Result<Sample, String> {
        let is_name = |c: char, first: bool| {
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
        };
        let name_end = line
            .char_indices()
            .find(|&(i, c)| !is_name(c, i == 0))
            .map_or(line.len(), |(i, _)| i);
        if name_end == 0 {
            return Err(format!("no metric name in {line:?}"));
        }
        let name = line[..name_end].to_string();
        let mut rest = &line[name_end..];
        let mut labels = Vec::new();
        if let Some(body) = rest.strip_prefix('{') {
            rest = body;
            loop {
                let key_end = rest
                    .char_indices()
                    .find(|&(i, c)| {
                        !(c.is_ascii_alphabetic() || c == '_' || (i > 0 && c.is_ascii_digit()))
                    })
                    .map_or(rest.len(), |(i, _)| i);
                if key_end == 0 {
                    return Err(format!("bad label name in {line:?}"));
                }
                let key = rest[..key_end].to_string();
                rest = rest[key_end..]
                    .strip_prefix("=\"")
                    .ok_or_else(|| format!("label {key} lacks =\" in {line:?}"))?;
                let mut value = String::new();
                let mut chars = rest.char_indices();
                let close = loop {
                    match chars.next() {
                        Some((_, '\\')) => value.push(chars.next().ok_or("dangling escape")?.1),
                        Some((i, '"')) => break i,
                        Some((_, c)) => value.push(c),
                        None => return Err(format!("unterminated label value in {line:?}")),
                    }
                };
                labels.push((key, value));
                rest = &rest[close + 1..];
                if let Some(r) = rest.strip_prefix(',') {
                    rest = r;
                } else if let Some(r) = rest.strip_prefix('}') {
                    rest = r;
                    break;
                } else {
                    return Err(format!("expected , or }} in {line:?}"));
                }
            }
        }
        let value = rest
            .strip_prefix(' ')
            .ok_or_else(|| format!("no space before the value in {line:?}"))?;
        if value.is_empty() || value.contains(' ') {
            return Err(format!("bad value in {line:?}"));
        }
        Ok((name, labels, value.to_string()))
    }

    /// Checks a whole exposition: every sample sits under its family's
    /// single `# TYPE` line, series are unique, and each histogram series
    /// has strictly increasing `le` bounds with non-decreasing cumulative
    /// counts, ending in `+Inf` equal to its `_count`, plus one `_sum`.
    fn check_exposition(text: &str) -> Result<(), String> {
        use std::collections::{BTreeMap, BTreeSet};
        let mut typed: BTreeSet<String> = BTreeSet::new();
        let mut current: Option<(String, String)> = None;
        let mut seen: BTreeSet<String> = BTreeSet::new();
        // Histogram series (family + labels) -> (buckets, sum seen, count).
        type Hist = (Vec<(String, u64)>, bool, Option<u64>);
        let mut hists: BTreeMap<String, Hist> = BTreeMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix('#') {
                let parts: Vec<&str> = rest.split(' ').collect();
                let [_, "TYPE", family, kind] = parts[..] else {
                    return Err(format!("bad comment line {line:?}"));
                };
                if !["counter", "gauge", "histogram"].contains(&kind) {
                    return Err(format!("unknown type in {line:?}"));
                }
                if !typed.insert(family.to_string()) {
                    return Err(format!("second # TYPE for {family}"));
                }
                current = Some((family.to_string(), kind.to_string()));
                continue;
            }
            let (name, labels, value) = parse_sample(line)?;
            let (family, kind) = current
                .as_ref()
                .ok_or_else(|| format!("sample before any # TYPE: {line:?}"))?;
            let key = format!("{name}{labels:?}");
            if !seen.insert(key.clone()) {
                return Err(format!("duplicate series {key}"));
            }
            if kind != "histogram" {
                if &name != family {
                    return Err(format!("{name} sampled under the {family} family"));
                }
                value.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?;
                continue;
            }
            let suffix = name
                .strip_prefix(family.as_str())
                .ok_or_else(|| format!("{name} sampled under the {family} family"))?;
            let plain: Vec<_> = labels.iter().filter(|(k, _)| k != "le").cloned().collect();
            let entry = hists.entry(format!("{family}{plain:?}")).or_default();
            match suffix {
                "_bucket" => {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .ok_or_else(|| format!("bucket without le: {line:?}"))?;
                    let n = value.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?;
                    entry.0.push((le.1.clone(), n));
                }
                "_sum" => {
                    value.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?;
                    entry.1 = true;
                }
                "_count" => {
                    entry.2 = Some(value.parse::<u64>().map_err(|e| format!("{line:?}: {e}"))?);
                }
                _ => return Err(format!("{name} is no histogram sample of {family}")),
            }
        }
        for (series, (buckets, has_sum, count)) in &hists {
            let count = count.ok_or_else(|| format!("{series}: no _count"))?;
            if !has_sum {
                return Err(format!("{series}: no _sum"));
            }
            let (last, finite) = buckets
                .split_last()
                .ok_or_else(|| format!("{series}: no buckets"))?;
            if last.0 != "+Inf" || last.1 != count {
                return Err(format!("{series}: last bucket {last:?}, _count {count}"));
            }
            let mut prev: Option<(u64, u64)> = None;
            for (le, n) in finite {
                let le: u64 = le.parse().map_err(|e| format!("{series}: le {le}: {e}"))?;
                if let Some((ple, pn)) = prev {
                    if le <= ple || *n < pn {
                        return Err(format!("{series}: buckets out of order at le={le}"));
                    }
                }
                if *n > count {
                    return Err(format!("{series}: bucket le={le} exceeds _count"));
                }
                prev = Some((le, *n));
            }
        }
        Ok(())
    }

    #[test]
    fn exposition_follows_the_text_format_grammar() {
        let labeled = histogram("test_expo_rate{core=\"trips\"}");
        for v in [3u64, 100, 100, 70_000] {
            labeled.observe(v);
        }
        histogram("test_expo_rate{core=\"ooo\"}").observe(5);
        let plain = histogram("test_expo_ns");
        plain.observe(0);
        plain.observe(u64::MAX);
        histogram("test_expo_empty");
        // A family whose labeled series sort after a neighbouring family.
        gauge("test_expo_fam").set(1);
        counter("test_expo_fam_total").inc(1);
        gauge("test_expo_fam{k=\"v\"}").set(2);

        let snap = snapshot_text();
        check_exposition(&snap).unwrap_or_else(|e| panic!("{e}\n{snap}"));
        for line in [
            "test_expo_rate_bucket{core=\"trips\",le=\"3\"} 1",
            "test_expo_rate_bucket{core=\"trips\",le=\"127\"} 3",
            "test_expo_rate_bucket{core=\"trips\",le=\"+Inf\"} 4",
            "test_expo_rate_sum{core=\"trips\"} 70203",
            "test_expo_rate_count{core=\"trips\"} 4",
            "test_expo_ns_bucket{le=\"0\"} 1",
            "test_expo_ns_bucket{le=\"+Inf\"} 2",
            "test_expo_ns_count 2",
            "test_expo_empty_bucket{le=\"+Inf\"} 0",
            "test_expo_empty_sum 0",
        ] {
            assert!(
                snap.lines().any(|l| l == line),
                "missing {line:?} in\n{snap}"
            );
        }
        assert_eq!(snap.matches("# TYPE test_expo_rate histogram").count(), 1);
        // Family grouping: both test_expo_fam series follow its TYPE line
        // before the next family's.
        let fam = snap.find("# TYPE test_expo_fam gauge").unwrap();
        let next = snap.find("# TYPE test_expo_fam_total counter").unwrap();
        let labeled_fam = snap.find("test_expo_fam{k=\"v\"} 2").unwrap();
        assert!(fam < labeled_fam && labeled_fam < next);
    }

    #[test]
    fn the_grammar_check_rejects_malformed_expositions() {
        for bad in [
            "x 1",                                                             // no # TYPE
            "# TYPE x counter\n# TYPE x counter\nx 1",                         // two TYPE lines
            "# TYPE x counter\ny 1",                                           // foreign family
            "# TYPE x counter\nx{a=\"1\" 1",                                   // unclosed labels
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1",    // no +Inf
            "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 1", // +Inf != count
            "# TYPE h histogram\nh{core=\"t\",le=\"1\"} 1",                    // old labeled form
        ] {
            assert!(check_exposition(bad).is_err(), "accepted {bad:?}");
        }
    }
}
