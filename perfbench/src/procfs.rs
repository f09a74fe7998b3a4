//! Counters read from `/proc/self`, i.e. from outside the router's code:
//! resident memory and per-thread CPU time by thread name.

use std::collections::BTreeMap;
use std::fs;

/// Resident set size of this process in bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmRSS line in /proc/self/status")
        * 1024
}

/// CPU nanoseconds each live thread of this process has run so far, summed
/// by thread name (`/proc/self/task/*/schedstat`, first field).  Threads
/// that exited are gone from `/proc`, so callers difference two snapshots
/// taken while the threads of interest are alive.
pub fn thread_cpu_ns() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let dir = task.path();
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue; // the thread exited between readdir and read
        };
        let ns: u64 = stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .unwrap_or(0);
        *out.entry(comm.trim().to_string()).or_insert(0) += ns;
    }
    out
}

/// CPU nanoseconds the calling thread has run so far.
pub fn self_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `after[name] - before[name]`, 0 when the thread is missing from either.
pub fn cpu_delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    match (before.get(name), after.get(name)) {
        (Some(b), Some(a)) => a.saturating_sub(*b),
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rss_is_plausible_and_threads_are_named() {
        let rss = rss_bytes();
        assert!(rss > 100 * 1024 && rss < 1 << 40, "rss {rss}");

        let t = std::thread::Builder::new()
            .name("procfs-probe".into())
            .spawn(|| {
                let before = thread_cpu_ns();
                let mut x = 0u64;
                let t0 = std::time::Instant::now();
                while t0.elapsed().as_millis() < 30 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                }
                (before, thread_cpu_ns())
            })
            .unwrap();
        let (before, after) = t.join().unwrap();
        let burned = cpu_delta(&before, &after, "procfs-probe");
        assert!(burned > 5_000_000, "30 ms spin accounted {burned} ns");
        assert_eq!(cpu_delta(&before, &after, "no-such-thread"), 0);
        assert!(self_cpu_ns() > 0);
    }
}
