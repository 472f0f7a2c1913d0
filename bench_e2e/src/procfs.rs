//! Process-level resource readings from `/proc/self` (Linux).

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, fixed
/// at 100 on Linux for the `/proc` interface).
const USER_HZ: f64 = 100.0;

/// User plus system CPU time consumed by the whole process so far, in
/// seconds (all threads, including ones that already exited).
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Resets the process's peak-RSS mark (`VmHWM`) to the current RSS.
/// Returns false where the kernel refuses the write.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since start or the last reset, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host CPU time stolen from this machine (virtualised hosts), as a share
/// of all CPU time, between two readings of [`cpu_ticks`].
pub fn steal_share(before: [u64; 2], after: [u64; 2]) -> f64 {
    let total = after[0].saturating_sub(before[0]);
    after[1].saturating_sub(before[1]) as f64 / total.max(1) as f64
}

/// `[all, steal]` CPU ticks of the machine so far (first line of
/// `/proc/stat`); zeros where unavailable.
pub fn cpu_ticks() -> [u64; 2] {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user.
    let all = fields.iter().take(8).sum();
    [all, fields.get(7).copied().unwrap_or(0)]
}
