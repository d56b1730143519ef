//! Process counters, exact percentiles, and the host record printed
//! with every result.

use std::os::raw::{c_int, c_long};
use std::path::Path;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the ladder reads process counters through 64-bit Linux getrusage and procfs");

/// `struct rusage` as laid out on 64-bit Linux (every field a `long`).
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime_sec: c_long,
    utime_usec: c_long,
    stime_sec: c_long,
    stime_usec: c_long,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RawUsage) -> c_int;
    fn sync();
}

/// Writes every dirty page back to disk, so that the write-back left by
/// one pass (removed directories, restart copies) does not land in the
/// fsyncs of the next.
pub fn settle_disk() {
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

const RUSAGE_SELF: c_int = 0;

/// Whole-process counters: every thread, the server's and the load
/// generator's alike, including threads that already exited.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    pub cpu_us: f64,
    pub ctx_switches: u64,
}

pub fn usage() -> Usage {
    let mut raw = RawUsage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` in the 64-bit
    // Linux layout (checked by the compile_error gate above), and
    // getrusage writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    Usage {
        cpu_us: (raw.utime_sec + raw.stime_sec) as f64 * 1e6
            + (raw.utime_usec + raw.stime_usec) as f64,
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

fn status_kb(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/self/status has no {field}"))
}

/// Resident memory now, and the peak since the last [`reset_peak_rss`].
pub fn rss_kb() -> Result<(u64, u64), String> {
    Ok((status_kb("VmRSS:")?, status_kb("VmHWM:")?))
}

/// Restarts the peak-RSS watermark at the current resident size, so the
/// peak a run reports is the stack's, not the input generator's.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS watermark: {e}"))
}

/// Time the hypervisor ran something else on this machine's CPUs
/// (`steal` in `/proc/stat`) and all time, in clock ticks since boot.
pub fn steal_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    match ticks.get(7) {
        Some(&steal) => Ok((steal, ticks.iter().sum())),
        None => Err("/proc/stat has no steal column".into()),
    }
}

/// The stolen share of the CPU time between two [`steal_ticks`] readings.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// An exact sample set: percentiles are nearest-rank over every sample,
/// so no percentile can exceed the observed maximum.
pub struct Dist {
    sorted: Vec<u64>,
}

impl Dist {
    pub fn new(what: &str, mut samples: Vec<u64>) -> Result<Dist, String> {
        if samples.is_empty() {
            return Err(format!("no samples for {what}"));
        }
        samples.sort_unstable();
        Ok(Dist { sorted: samples })
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    pub fn pct(&self, p: f64) -> u64 {
        let n = self.sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        self.sorted[rank.clamp(1, n) - 1]
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `key: value` pairs describing the machine and build a result came
/// from, as JSON members (values already encoded).
pub fn host_record(data_dir: &Path) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", jstr(&cpu)),
        ("kernel", jstr(&kernel)),
        ("rustc", jstr(&rustc)),
        ("git_commit", jstr(&git_commit())),
        ("wal_fs", jstr(&fs_type(data_dir))),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// only (an exported checkout has none).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Filesystem type of the mount holding `dir` (fsync cost differs
/// between tmpfs and disk by orders of magnitude).
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_and_never_exceed_the_max() {
        let d = Dist::new("t", (1..=1000).collect()).unwrap();
        assert_eq!(d.pct(50.0), 500);
        assert_eq!(d.pct(99.0), 990);
        assert_eq!(d.pct(100.0), 1000);
        let one = Dist::new("t", vec![7]).unwrap();
        assert_eq!(one.pct(99.0), 7);
        assert!(Dist::new("t", Vec::new()).is_err());
    }
}
