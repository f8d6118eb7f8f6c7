//! Process and host readings from `/proc` (the workspace vendors no libc).

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) the whole process has used so far,
/// including threads that have already exited. Resolution is one tick.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // The command name (field 2) may hold spaces; fields after it start at
    // the last ')'. There, index 0 is field 3 (state), so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let tail =
        &stat[stat.rfind(')').expect("stat line holds the command name in parentheses") + 1..];
    let fields: Vec<&str> = tail.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields.get(i).and_then(|v| v.parse::<u64>().ok()).expect("stat line has utime and stime")
            as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status =
        fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable on Linux");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status lists the key in kB")
}

/// The CPU model string of the first processor, or `"unknown"`.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Host-wide CPU ticks from the `cpu` line of `/proc/stat`: (stolen by
/// the hypervisor, all). Their ratio over an interval says how much of
/// the machine other tenants took, which explains a slow run.
pub fn host_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
