//! CPU pinning and the `/proc` probes (allowed CPUs, peak RSS).
//!
//! Why pin: on the 2-core host the same `kv-read-8` run takes 1.3 s or
//! 7 s unpinned, depending on whether the simulator's baton hand-offs
//! wake a thread on the other core; pinned to one CPU it repeats within a
//! few percent. Threads spawned after [`pin_to_one`] inherit the mask, so
//! it must run before the first simulation.

use std::fs;

extern "C" {
    /// glibc's wrapper of `sched_setaffinity(2)`; `pid` 0 is the caller.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        if c < MASK_WORDS * 64 {
            mask[c / 64] |= 1 << (c % 64);
        }
    }
    if mask.iter().all(|&w| w == 0) {
        return false;
    }
    // SAFETY: `mask` is a live, initialised array of `MASK_WORDS` u64s and
    // the size passed is exactly its size in bytes; the kernel only reads
    // it. The call has no other memory effects.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

fn status_field(key: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .map(|v| v.trim().to_owned())
}

/// Parses a kernel CPU list such as `0-1,4`.
fn parse_cpu_list(s: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi.min(lo + MASK_WORDS * 64));
        }
    }
    cpus
}

/// CPUs this thread may run on (`Cpus_allowed_list`); empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list").map_or_else(Vec::new, |s| parse_cpu_list(&s))
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 when unknown.
pub fn peak_rss_mib() -> f64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The outcome of pinning, recorded in every result file.
#[derive(Debug, Clone)]
pub struct Pin {
    /// Whether this process now runs on exactly one CPU.
    pub pinned: bool,
    /// CPUs allowed before pinning; `nproc` is its length.
    pub allowed: Vec<usize>,
}

impl Pin {
    pub fn nproc(&self) -> usize {
        self.allowed.len()
    }

    /// Widens the mask back to every originally allowed CPU (for the
    /// `bench.unpinned_ratio` repetitions).
    pub fn unpin(&self) -> bool {
        set_affinity(&self.allowed)
    }

    /// Pins again to the CPU [`pin_to_one`] chose.
    pub fn repin(&self) -> bool {
        self.allowed.last().is_some_and(|&c| set_affinity(&[c]))
    }
}

/// Pins the calling thread (and every thread it spawns later) to the last
/// CPU of `Cpus_allowed_list`, leaving CPU 0 and its interrupts alone
/// where there is a choice. Verified by reading the list back.
pub fn pin_to_one() -> Pin {
    let allowed = allowed_cpus();
    let pin = Pin {
        pinned: false,
        allowed,
    };
    let pinned = pin.repin() && allowed_cpus().len() == 1;
    Pin { pinned, ..pin }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0-2,5, 7-8"), vec![0, 1, 2, 5, 7, 8]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("x-y").is_empty());
    }

    #[test]
    fn proc_probes_answer_on_linux() {
        assert!(!allowed_cpus().is_empty());
        assert!(peak_rss_mib() > 0.0);
    }
}
