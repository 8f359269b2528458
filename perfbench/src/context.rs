//! Run context recorded beside every result, so a noisy run can be
//! spotted. None of it adjusts a metric.

use crate::Args;
use std::path::Path;

/// Host CPU time counters from the aggregate line of `/proc/stat`.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuTicks {
    /// Ticks stolen from this host's virtual CPUs by the hypervisor.
    pub steal: u64,
    /// All ticks across every state.
    pub total: u64,
}

/// Reads the host's CPU tick counters; zero where unavailable.
pub fn cpu_ticks() -> CpuTicks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return CpuTicks::default();
    };
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return CpuTicks::default();
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    CpuTicks {
        // user nice system idle iowait irq softirq steal guest guest_nice
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory without running git; `unknown` outside a
/// git checkout.
pub fn commit() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Everything recorded about a run besides its metrics.
#[derive(Debug)]
pub struct Context {
    /// The run's arguments.
    pub args: Args,
    /// Episodes run.
    pub episodes: u64,
    /// Processors available to this process.
    pub nproc: usize,
    /// Worker pool threads (`SMARTCROWD_THREADS`, default `nproc`).
    pub pool_threads: usize,
    /// Host ticks when the run started.
    pub cpu_before: CpuTicks,
    /// Host ticks when the run ended.
    pub cpu_after: CpuTicks,
}
