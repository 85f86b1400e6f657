//! Process resource usage and the machine facts that make two result
//! files comparable.

use std::process::{Command, Stdio};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

#[cfg(target_env = "gnu")]
extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Hands memory the program freed back to the OS. glibc keeps freed
/// memory in per-thread arenas, and every sweep starts new pool threads,
/// so without this the resident set of a process that runs many sweeps
/// climbs for several sweeps (to about 2 GB on `warm-livepoints`).
/// Calling it between repetitions makes each one start like a fresh
/// process, so the process peak is the largest single sweep's peak.
pub fn release_freed_memory() {
    // SAFETY: malloc_trim only walks the allocator's own free lists.
    #[cfg(target_env = "gnu")]
    unsafe {
        malloc_trim(0);
    }
}

fn rusage_self() -> Rusage {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a properly laid out, writable `struct rusage`, and
    // RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// User + system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> f64 {
    let u = rusage_self();
    let t = |tv: &Timeval| tv.sec as f64 + tv.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// Peak resident set of this process so far, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    rusage_self().maxrss_kb as f64 * 1024.0 / 1e6
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status.success().then(|| text.trim().to_string())
}

/// A stable hash of the sources the benchmark builds from, for checkouts
/// that are not git repositories.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            let name = e.file_name();
            if name.to_string_lossy().starts_with('.') || name == "target" {
                continue;
            }
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "csv")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "trips-perf"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h = trips_isa::hash::StableHasher::new();
    for f in &files {
        h.write_str(&f.to_string_lossy());
        h.write(&std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", h.finish())
}

/// One JSON object naming the machine and the build: nproc, CPU model,
/// the compiler that built the benchmark, the git commit when the checkout
/// is a repository, and a hash of the sources either way.
pub fn facts() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    // Only ask git inside a repository root, so a plain checkout that
    // happens to sit inside some other repository reports `unknown`.
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"sources\": \"{}\"}}",
        nproc(),
        esc(&cpu),
        esc(env!("TRIPS_PERF_RUSTC")),
        esc(&commit),
        source_fingerprint()
    )
}
