//! Host provenance printed with every result: what ran the benchmark,
//! and how much of the machine something else took while it ran.

use crate::report::json_num;
use p3d_tensor::parallel::max_threads;
use p3d_tensor::simd;

/// Host-wide and own CPU time at one instant, in clock ticks.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSample {
    /// Non-idle time of every CPU, steal excluded.
    busy: u64,
    /// Time the hypervisor ran something else while a CPU wanted to run.
    steal: u64,
    /// This process's user plus system time.
    own: u64,
}

impl CpuSample {
    /// Reads `/proc/stat` and `/proc/self/stat`; zeros where unreadable.
    pub fn now() -> CpuSample {
        let mut s = CpuSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let f: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|x| x.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal ...
                if f.len() >= 8 {
                    s.busy = f[0] + f[1] + f[2] + f[5] + f[6];
                    s.steal = f[7];
                }
            }
        }
        if let Ok(own) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th fields of the line.
            if let Some(rest) = own.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                if f.len() > 12 {
                    s.own = f[11].parse::<u64>().unwrap_or(0) + f[12].parse::<u64>().unwrap_or(0);
                }
            }
        }
        s
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and every thread it starts afterwards, to
/// the CPU it is running on. Returns that CPU, or `None` if the kernel
/// refused and the process runs unbound.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: `sched_getcpu` takes no arguments.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t` of 1024 CPUs.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: the mask lives across the call and its size is passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}

/// The provenance line: CPUs, the CPU the run is bound to, kernel path,
/// CPU features, compute threads, and the steal and foreign CPU time
/// over the run, as seconds and as a share of the CPU time the host had
/// over the wall time.
pub fn provenance_json(
    workload: &str,
    seed: u64,
    nproc: usize,
    pinned: Option<usize>,
    start: CpuSample,
    end: CpuSample,
    wall_s: f64,
) -> String {
    const TICK_S: f64 = 0.01; // USER_HZ is 100 on Linux.
    let steal_s = end.steal.saturating_sub(start.steal) as f64 * TICK_S;
    let own_s = end.own.saturating_sub(start.own) as f64 * TICK_S;
    let foreign_s = (end.busy.saturating_sub(start.busy) as f64 * TICK_S - own_s).max(0.0);
    let capacity = wall_s * nproc as f64;
    format!(
        "{{\"provenance\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {nproc}, \
         \"pinned_cpu\": {}, \"kernel_path\": \"{}\", \"cpu_features\": \"{}\", \"compute_threads\": {}, \
         \"wall_s\": {}, \"own_cpu_s\": {}, \"steal_s\": {}, \"steal_pct\": {}, \
         \"foreign_cpu_s\": {}, \"foreign_cpu_pct\": {}}}}}",
        pinned.map_or_else(|| "null".to_string(), |c| c.to_string()),
        simd::active().name(),
        simd::cpu_features(),
        max_threads(),
        json_num(wall_s),
        json_num(own_s),
        json_num(steal_s),
        json_num(100.0 * steal_s / capacity),
        json_num(foreign_s),
        json_num(100.0 * foreign_s / capacity),
    )
}
