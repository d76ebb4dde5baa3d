//! Readers of `/proc`: per-thread CPU time and context switches keyed
//! by thread name, the process's peak resident set, and the host's
//! steal time. They give each serving layer's busy time from outside
//! the program, with no instrumentation inside it.

use std::collections::HashMap;
use std::fs;

/// Thread-name prefixes of the serve stack's thread groups. Linux
/// truncates names to 15 bytes, so `privehd-scheduler` reads as
/// `privehd-schedul`.
pub const WIRE: &str = "privehd-wire";
pub const SCHED: &str = "privehd-schedul";
pub const WORKER: &str = "privehd-worker";
pub const POOL: &str = "privehd-pool";
pub const ALL: &str = "privehd-";

#[derive(Clone)]
struct ThreadSample {
    name: String,
    cpu_ns: u64,
    voluntary: u64,
}

/// One reading of every thread of this process.
pub struct Snapshot(HashMap<u32, ThreadSample>);

/// CPU time and voluntary context switches a thread group used between
/// two snapshots.
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub cpu_ns: u64,
    pub voluntary: u64,
}

pub fn snapshot() -> Snapshot {
    let mut threads = HashMap::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Snapshot(threads);
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let path = entry.path();
        // A thread may exit between listing and reading; skip it.
        let Ok(name) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        let Some(cpu_ns) = thread_cpu_ns(&path) else {
            continue;
        };
        let voluntary = fs::read_to_string(path.join("status"))
            .ok()
            .and_then(|s| status_field(&s, "voluntary_ctxt_switches:"))
            .unwrap_or(0);
        threads.insert(
            tid,
            ThreadSample {
                name: name.trim().to_owned(),
                cpu_ns,
                voluntary,
            },
        );
    }
    Snapshot(threads)
}

/// On-CPU time in ns: `schedstat`'s first field (ns resolution), or
/// `utime + stime` from `stat` (clock-tick resolution) where the
/// kernel has no schedstat.
fn thread_cpu_ns(path: &std::path::Path) -> Option<u64> {
    if let Ok(s) = fs::read_to_string(path.join("schedstat")) {
        return s.split_whitespace().next()?.parse().ok();
    }
    let stat = fs::read_to_string(path.join("stat")).ok()?;
    // Fields after the parenthesised name; utime and stime are the
    // 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')')?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    Some(ticks * 10_000_000)
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

impl Snapshot {
    /// Usage of the threads whose name starts with `prefix`, from
    /// `self` to `later`; threads born in between count from zero.
    pub fn usage_until(&self, later: &Snapshot, prefix: &str) -> Usage {
        let mut usage = Usage::default();
        for (tid, now) in &later.0 {
            if !now.name.starts_with(prefix) {
                continue;
            }
            let (cpu, vol) = self
                .0
                .get(tid)
                .filter(|before| before.name == now.name)
                .map_or((0, 0), |b| (b.cpu_ns, b.voluntary));
            usage.cpu_ns += now.cpu_ns.saturating_sub(cpu);
            usage.voluntary += now.voluntary.saturating_sub(vol);
        }
        usage
    }
}

/// Host CPU counters from `/proc/stat`: (steal, total) in ticks.
#[derive(Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

pub fn cpu_ticks() -> CpuTicks {
    let line = fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = line
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    CpuTicks {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    }
}

impl CpuTicks {
    /// Share of host CPU time stolen by the hypervisor since `self`.
    pub fn steal_pct_until(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}
