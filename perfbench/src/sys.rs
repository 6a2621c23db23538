//! Host facts and process memory from procfs.

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this
/// one), in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Resets the peak-RSS mark of process `pid` (`"self"` for this one)
/// to its current RSS, so a later [`peak_rss_mb`] covers only what
/// ran since. Returns `false` when the kernel refuses; the peak then
/// covers the whole process lifetime.
pub fn reset_peak_rss(pid: &str) -> bool {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5").is_ok()
}

/// Host-wide CPU time counters from `/proc/stat`: `(total, steal)` in
/// clock ticks, or zeros off Linux.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Share of CPU time the hypervisor took from this VM between two
/// [`cpu_ticks`] readings, in percent.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0).max(1);
    100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
}

/// CPU seconds the live threads of process `pid` (`"self"` for this
/// one) have run, from each thread's `schedstat`. Time the hypervisor
/// stole is not in it, so it is steadier than wall time on a shared
/// host.
pub fn cpu_seconds(pid: &str) -> f64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0.0;
    };
    let nanos: u64 = tasks
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    nanos as f64 * 1e-9
}
