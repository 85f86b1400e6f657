//! trips-perf: the sweep engine's benchmark.
//!
//! One process drives the engine through its public API as a closed loop
//! of one client: each repetition builds a fresh `Session` over the
//! workload's warm store and runs one `run_sweep` on every core; the next
//! repetition starts when the previous one ends. Every row of every
//! repetition is checked against the bundled reference rows.
//!
//! ```text
//! trips-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! trips-perf --write-reference
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` prints the per-layer ones from a traced run
//! (spans folded with `trips_obs::report`). The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See README.md for the workloads and the metrics.

mod check;
mod layers;
mod machine;
mod spec;
mod stats;

use check::{check_rows, max_est_err_pct, sorted_rows, Reference};
use spec::Workload;
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use trips_engine::{obs, run_sweep, CacheStats, Session, SweepRow, TraceStore};

/// Where runs keep their stores and journals, under the working directory.
const WORK_DIR: &str = ".perf_work";
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--setup-into DIR`: the set-up child role (fill DIR and report).
    setup_into: Option<PathBuf>,
    journal: Option<PathBuf>,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_into: None,
        journal: None,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            a.write_reference = true;
            continue;
        }
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: bad number `{v}`"))
        };
        match flag.as_str() {
            "--workload" => a.workload = v,
            "--seed" => a.seed = v.parse().map_err(|_| format!("--seed: bad value `{v}`"))?,
            "--seconds" => a.seconds = num(&v)?,
            "--trace" => a.trace = num(&v)? != 0.0,
            "--setup-into" => a.setup_into = Some(v.into()),
            "--journal" => a.journal = Some(v.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|a| {
        if a.write_reference {
            return write_reference();
        }
        let w = spec::workload(&a.workload).ok_or_else(|| {
            let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
        match &a.setup_into {
            Some(dir) => setup_child(w, dir, a.journal.as_deref()),
            None => run(w, &a),
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("trips-perf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The set-up child: fills `dir` and prints one `setup key=value ...` line.
fn setup_child(w: Workload, dir: &Path, journal: Option<&Path>) -> Result<(), String> {
    let out = layers::fill(w, dir, journal)?;
    let fields: Vec<String> = out.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("setup {}", fields.join(" "));
    Ok(())
}

/// Fills a fresh store at `dir` in a child process of this binary, so the
/// measuring process never holds set-up memory.
fn spawn_setup(
    w: Workload,
    dir: &Path,
    journal: Option<&Path>,
) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--setup-into"])
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if let Some(j) = journal {
        cmd.arg("--journal").arg(j);
    }
    let out = cmd.output().map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix("setup "))
        .ok_or("set-up child printed no result")?;
    line.split_whitespace()
        .map(|kv| {
            let (k, v) = kv.split_once('=').ok_or("bad set-up field")?;
            Ok((
                k.to_string(),
                v.parse::<f64>().map_err(|_| "bad set-up value")?,
            ))
        })
        .collect::<Result<_, &str>>()
        .map_err(str::to_string)
}

/// Flushes every file of `dir`, and the directory itself, to disk.
fn sync_files(dir: &Path) -> Result<(), String> {
    let sync = |p: &Path| {
        std::fs::File::open(p)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_file() {
            sync(&path)?;
        }
    }
    sync(dir)
}

/// One measured repetition.
struct Rep {
    wall_s: f64,
    cpu_s: f64,
    rows: Vec<SweepRow>,
    cache: CacheStats,
    counters: BTreeMap<&'static str, u64>,
}

impl Rep {
    fn ok_points(&self) -> usize {
        self.rows.iter().filter(|r| r.status != "failed").count()
    }

    fn points_per_s(&self) -> f64 {
        self.ok_points() as f64 / self.wall_s
    }

    /// The work this repetition did, which must repeat exactly.
    fn work(&self) -> BTreeMap<&'static str, u64> {
        let c = &self.cache;
        BTreeMap::from([
            ("replay_events_trips", self.counters[layers::TRIPS_EVENTS]),
            ("replay_events_ooo", self.counters[layers::OOO_EVENTS]),
            ("store_bytes_read", self.counters["store_read_bytes_total"]),
            (
                "store_bytes_written",
                self.counters["store_write_bytes_total"],
            ),
            ("pool_jobs", self.counters["pool_jobs_total"]),
            (
                "captures",
                c.captures + c.risc_captures + c.livepoint_captures + c.phase_fits,
            ),
            (
                "disk_hits",
                c.disk_hits + c.risc_disk_hits + c.phase_disk_hits + c.livepoint_disk_hits,
            ),
        ])
    }
}

/// One closed-loop repetition: a fresh session over the warm store, one
/// sweep in the seed's order, the session dropped; all of it timed.
fn run_rep(w: Workload, store: &Path, seed: u64, rep: u64) -> Result<Rep, String> {
    let spec = spec::shuffled(w.spec(machine::nproc()), seed, rep);
    let before = layers::counters();
    let cpu0 = machine::cpu_seconds();
    let t0 = Instant::now();
    let (report, cache) = {
        let session = Session::with_store(TraceStore::open(store).map_err(|e| e.to_string())?);
        let _span = obs::span("perf.sweep");
        let report = run_sweep(&spec, &session).map_err(|e| e.to_string())?;
        let cache = session.cache_stats();
        (report, cache)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = machine::cpu_seconds() - cpu0;
    machine::release_freed_memory();
    for e in &report.errors {
        eprintln!("trips-perf: rep {rep}: {e}");
    }
    Ok(Rep {
        wall_s,
        cpu_s,
        rows: report.rows,
        cache,
        counters: layers::delta(&before, &layers::counters()),
    })
}

fn median_points_per_s(reps: &[Rep]) -> f64 {
    median(&reps.iter().map(Rep::points_per_s).collect::<Vec<_>>())
}

/// Runs repetitions, numbered from `first`, until `seconds` have passed
/// and at least `min` ran.
fn run_reps(
    w: Workload,
    store: &Path,
    seed: u64,
    first: u64,
    seconds: f64,
    min: usize,
) -> Result<Vec<Rep>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds.max(0.0));
    let mut reps = Vec::new();
    while reps.len() < min || Instant::now() < deadline {
        reps.push(run_rep(w, store, seed, first + reps.len() as u64)?);
    }
    Ok(reps)
}

/// The metrics one run prints, in order, with their units.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(w: Workload, a: &Args) -> Result<(), String> {
    println!("facts {}", machine::facts());
    let reference = Reference::parse(check::REFERENCE)?;
    let want = reference
        .rows
        .get(w.name)
        .ok_or_else(|| format!("no reference rows for {}", w.name))?;
    let work = Path::new(WORK_DIR).join(w.name);
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = measure(w, a, &reference, want, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

fn measure(
    w: Workload,
    a: &Args,
    reference: &Reference,
    want: &BTreeMap<String, String>,
    work: &Path,
) -> Result<(), String> {
    let mut problems: Vec<String> = Vec::new();

    // Set-up: fill fresh stores, keep the last one warm for the reps.
    let setup_reps = if a.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut store = PathBuf::new();
    for i in 0..setup_reps {
        if i > 0 {
            let _ = std::fs::remove_dir_all(&store);
        }
        store = work.join(format!("store-{i}"));
        let journal = a.trace.then(|| work.join("setup.jsonl"));
        setups.push(spawn_setup(w, &store, journal.as_deref())?);
    }
    // The kernel writes dirty pages back about 30 s after they were
    // written, which would land in the middle of the timed reps.
    sync_files(&store)?;
    let setup_work =
        |s: &BTreeMap<String, f64>| ["captures", "fits", "compiles", "bytes_written"].map(|k| s[k]);
    if setups
        .iter()
        .any(|s| setup_work(s) != setup_work(&setups[0]))
    {
        problems.push("set-up work counts differ between set-ups".into());
    }

    // Reps: untraced, then (traced runs) traced reps and the layer probe.
    let untraced_s = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let untraced = run_reps(w, &store, a.seed, 0, untraced_s, 1)?;
    let peak_rss_mb = machine::peak_rss_mb();
    let mut traced = Vec::new();
    let mut probe = None;
    let (reps_journal, probe_journal) = (work.join("reps.jsonl"), work.join("probe.jsonl"));
    if a.trace {
        obs::enable_trace(&reps_journal).map_err(|e| e.to_string())?;
        traced = run_reps(w, &store, a.seed, untraced.len() as u64, a.seconds / 2.0, 1)?;
        obs::enable_trace(&probe_journal).map_err(|e| e.to_string())?;
        let p = layers::probe(w, &store, &work.join("probe-store"), want)?;
        problems.extend(p.mismatches.iter().cloned());
        probe = Some(p);
    }

    // Correctness: every row of every rep against the reference, and the
    // work counters equal across reps.
    let all: Vec<&Rep> = untraced.iter().chain(&traced).collect();
    let mut attempted = 0usize;
    let mut bad = 0usize;
    let mut est_err = 0.0f64;
    for (i, rep) in all.iter().enumerate() {
        let rows = sorted_rows(&rep.rows);
        attempted += rows.len();
        let misses = check_rows(want, &rows);
        bad += misses.len();
        for m in misses {
            println!("MISMATCH {} rep {i}: {m}", w.name);
        }
        est_err = est_err.max(max_est_err_pct(&rows, &reference.truth)?);
        if rep.work() != all[0].work() {
            problems.push(format!(
                "rep {i} did different work: {:?} vs {:?}",
                rep.work(),
                all[0].work()
            ));
        }
    }
    for p in &problems {
        println!("PROBLEM {}: {p}", w.name);
    }
    let correct = bad == 0 && problems.is_empty();

    let point_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|r| {
            r.rows
                .iter()
                .filter(|x| x.status != "failed")
                .map(|x| x.wall_ms)
        })
        .collect();
    println!(
        "run {}: seed {} | {} untraced + {} traced reps of {} points on {} threads | {} point latency samples | {} set-ups",
        w.name,
        a.seed,
        untraced.len(),
        traced.len(),
        want.len(),
        machine::nproc(),
        point_ms.len(),
        setups.len()
    );

    for (i, r) in untraced.iter().chain(&traced).enumerate() {
        println!(
            "  rep {i}: {:.3} s wall, {:.3} s cpu, {:.3} points/s",
            r.wall_s,
            r.cpu_s,
            r.points_per_s()
        );
    }
    let mut m = Metrics(Vec::new());
    if !a.trace {
        m.put("points_per_s", median_points_per_s(&untraced), "1/s");
        m.put(
            "point_ms_p50",
            percentile(&point_ms, 50.0).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "point_ms_p95",
            percentile(&point_ms, 95.0).unwrap_or(0.0),
            "ms",
        );
        m.put(
            "cpu_s",
            median(&untraced.iter().map(|r| r.cpu_s).collect::<Vec<_>>()),
            "s",
        );
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        m.put(
            "setup_s",
            median(&setups.iter().map(|s| s["setup_s"]).collect::<Vec<_>>()),
            "s",
        );
        m.put("est_accuracy_pct", 100.0 - est_err, "%");
        m.put(
            "ok_point_frac",
            ratio(attempted.saturating_sub(bad) as f64, attempted as f64),
            "frac",
        );
    } else {
        per_layer(
            &mut m,
            &setups[0],
            &untraced,
            &traced,
            probe.as_ref(),
            &reps_journal,
            &probe_journal,
        )?;
        m.put("sample.est_err_pct", est_err, "%");
        m.put(
            "sweep.bad_point_frac",
            ratio(bad as f64, attempted as f64),
            "frac",
        );
    }
    for (n, v, u) in &m.0 {
        println!("  {n:<28} {v:>16.4} {u}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {bad}, \"metrics\": {}}}",
        m.json()
    );
    Ok(())
}

/// The per-layer metrics of a traced run.
fn per_layer(
    m: &mut Metrics,
    setup: &BTreeMap<String, f64>,
    untraced: &[Rep],
    traced: &[Rep],
    probe: Option<&layers::Probe>,
    reps_journal: &Path,
    probe_journal: &Path,
) -> Result<(), String> {
    let probe = probe.ok_or("traced run without a probe")?;
    let s = |k: &str| setup.get(k).copied().unwrap_or(0.0);
    let per_rep = |f: &dyn Fn(&Rep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let work = |k: &'static str| per_rep(&|r: &Rep| r.work()[k] as f64);
    let reps_ms = layers::label_ms(&layers::read_journal(reps_journal)?);
    let probe_ms = layers::label_ms(&layers::read_journal(probe_journal)?);
    let p = |l: &str| probe_ms.get(l).copied().unwrap_or(0.0);
    let mb = |bytes: f64, ms: f64| ratio(bytes / 1e6, ms / 1e3);

    m.put("compiler.compile_ms", s("compile_ms"), "ms");
    m.put("compiler.compiles", s("compiles"), "count");
    m.put("isa.capture_ms", s("isa_capture_ms"), "ms");
    m.put(
        "isa.capture_blocks_per_s",
        ratio(s("blocks"), s("isa_capture_ms") / 1e3),
        "1/s",
    );
    m.put("risc.capture_ms", s("risc_capture_ms"), "ms");
    m.put(
        "risc.capture_insts_per_s",
        ratio(s("insts"), s("risc_capture_ms") / 1e3),
        "1/s",
    );
    m.put("phase.fit_ms", s("fit_ms"), "ms");
    m.put("phase.fits", s("fits"), "count");

    let (read_ms, load_ms) = (p("perf.fs_read"), p("perf.store_load"));
    let decode_ms = (load_ms - read_ms).max(0.0);
    let bytes = probe.bytes as f64;
    m.put("store.read_ms", read_ms, "ms");
    m.put("store.read_mb_s", mb(bytes, read_ms), "MB/s");
    m.put("store.decode_ms", decode_ms, "ms");
    m.put("store.decode_mb_s", mb(bytes, decode_ms), "MB/s");
    m.put("store.bytes_read", work("store_bytes_read"), "B");
    let save_ms = p("perf.store_save");
    m.put("store.save_ms", save_ms, "ms");
    m.put("store.write_mb_s", mb(s("bytes_written"), save_ms), "MB/s");
    m.put("store.bytes_written", s("bytes_written"), "B");

    let cache = |f: fn(&CacheStats) -> u64| per_rep(&|r: &Rep| f(&r.cache) as f64);
    let disk_hits = work("disk_hits");
    let disk_lookups = cache(|c| {
        c.disk_hits
            + c.disk_misses
            + c.disk_rejects
            + c.disk_io_errors
            + c.risc_disk_hits
            + c.risc_disk_misses
            + c.risc_disk_rejects
            + c.risc_disk_io_errors
            + c.phase_disk_hits
            + c.phase_disk_misses
            + c.phase_disk_rejects
            + c.phase_disk_io_errors
            + c.livepoint_disk_hits
            + c.livepoint_disk_misses
            + c.livepoint_disk_rejects
            + c.livepoint_disk_io_errors
    });
    m.put(
        "cache.memo_hits",
        cache(|c| {
            c.compile_hits
                + c.trace_hits
                + c.isa_hits
                + c.risc_hits
                + c.rtrace_hits
                + c.phase_hits
                + c.livepoint_hits
                + c.replay_hits
                + c.ooo_replay_hits
        }),
        "count",
    );
    m.put("cache.disk_hits", disk_hits, "count");
    m.put("cache.captures", work("captures"), "count");
    m.put(
        "cache.disk_hit_ratio",
        ratio(disk_hits, disk_lookups),
        "frac",
    );

    let tsim_ms = p("perf.replay_trips") + p("perf.replay_trips_window");
    let ooo_ms = p("perf.replay_ooo") + p("perf.replay_ooo_window");
    m.put("tsim.replay_ms", tsim_ms, "ms");
    m.put("tsim.blocks", work("replay_events_trips"), "count");
    m.put(
        "tsim.blocks_per_s",
        ratio(probe.tsim_events as f64, tsim_ms / 1e3),
        "1/s",
    );
    m.put("ooo.replay_ms", ooo_ms, "ms");
    m.put("ooo.insts", work("replay_events_ooo"), "count");
    m.put(
        "ooo.insts_per_s",
        ratio(probe.ooo_events as f64, ooo_ms / 1e3),
        "1/s",
    );

    let ns_ms = |ns: u64| ns as f64 / 1e6;
    m.put("sample.warm_ms", ns_ms(probe.cost.warm_ns), "ms");
    m.put("sample.detailed_ms", ns_ms(probe.cost.detailed_ns), "ms");
    let timing: Vec<f64> = traced[0].rows.iter().map(|x| x.detailed_frac).collect();
    m.put(
        "sample.detailed_frac",
        timing.iter().sum::<f64>() / timing.len() as f64,
        "frac",
    );

    m.put(
        "checkpoint.restore_ms",
        ns_ms(probe.cost.checkpoint_restore_ns),
        "ms",
    );
    m.put("checkpoint.save_ms", s("checkpoint_save_ms"), "ms");
    m.put("checkpoint.windows", probe.windows as f64, "count");

    // Workers leave the pool when its queues drain, so their own spans
    // never show the wait for the last point: the capacity is every
    // thread for the whole sweep.
    let r = |l: &str| reps_ms.get(l).copied().unwrap_or(0.0);
    let capacity_ms = r("perf.sweep") * machine::nproc() as f64;
    m.put(
        "pool.busy_frac",
        ratio(r("sweep.point"), capacity_ms),
        "frac",
    );
    let queue: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.rows.iter().filter(|x| x.status != "failed"))
        .map(|x| x.cost.queue_ns as f64 / 1e6)
        .collect();
    m.put("pool.queue_ms_p50", median(&queue), "ms");
    m.put("pool.jobs", work("pool_jobs"), "count");
    m.put(
        "pool.steals",
        per_rep(&|r: &Rep| r.counters["pool_steals_total"] as f64),
        "count",
    );

    let all = || untraced.iter().chain(traced).flat_map(|r| r.rows.iter());
    m.put(
        "sweep.retries",
        all().filter(|x| x.status == "retried").count() as f64,
        "count",
    );
    m.put(
        "sweep.failed",
        all().filter(|x| x.status == "failed").count() as f64,
        "count",
    );
    let (bare, with) = (median_points_per_s(untraced), median_points_per_s(traced));
    m.put(
        "obs.trace_overhead_pct",
        ratio(bare - with, bare) * 100.0,
        "%",
    );
    Ok(())
}

/// Regenerates `trips-perf/reference.csv`: every workload's rows from a
/// cold sweep, and the full-replay cycles of each phased point from the
/// same points replayed in full; the full replays must agree with
/// `warm-full` wherever both measure the same point.
fn write_reference() -> Result<(), String> {
    let threads = machine::nproc();
    let mut r = Reference::default();
    for w in spec::WORKLOADS {
        let report = run_sweep(&w.spec(threads), &Session::new()).map_err(|e| e.to_string())?;
        if let Some(e) = report.errors.first() {
            return Err(format!("{}: {e}", w.name));
        }
        let rows = sorted_rows(&report.rows);
        r.rows.insert(
            w.name.into(),
            rows.iter().map(|x| (check::label(x), x.clone())).collect(),
        );
        if w.phased && !w.live_points {
            let mut full = w.spec(threads);
            full.phase = None;
            let report = run_sweep(&full, &Session::new()).map_err(|e| e.to_string())?;
            for row in sorted_rows(&report.rows) {
                let cycles = row.split(',').nth(3).unwrap_or("0").parse().unwrap_or(0);
                r.truth.insert(check::label(&row), cycles);
            }
        }
        eprintln!("reference: {} rows for {}", rows.len(), w.name);
    }
    for (point, row) in &r.rows["warm-full"] {
        if let Some(truth) = r.truth.get(point) {
            let cycles: u64 = row.split(',').nth(3).unwrap_or("0").parse().unwrap_or(0);
            if cycles != *truth {
                return Err(format!(
                    "{point}: full replay {truth} but warm-full {cycles}"
                ));
            }
        }
    }
    std::fs::write("trips-perf/reference.csv", r.render()).map_err(|e| e.to_string())?;
    Ok(())
}
