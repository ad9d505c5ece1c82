//! Process-level measurements (CPU clocks, resident set) and the small
//! statistics helpers every report uses.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel always supports for the calling process.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time consumed so far by every thread of this process, including
/// threads that have already exited.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// The calling thread's kernel thread id.
pub fn current_tid() -> i32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .expect("/proc/thread-self names the thread id")
}

/// CPU time consumed so far by thread `tid` of this process (zero once the
/// thread has exited). Linux encodes a per-thread CPU clock id as
/// `(!tid << 3) | 6` (the scheduler clock with the per-thread flag), the
/// id `pthread_getcpuclockid` returns.
pub fn thread_cpu_of(tid: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` that outlives
    // the call; an id naming no live thread makes the call fail (checked
    // below), never write out of bounds.
    let rc = unsafe { clock_gettime((!tid << 3) | 6, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Resident set of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The `q`-quantile of `values` (linear interpolation between order
/// statistics); `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of p90/p99/p99.9 that leaves at least ten samples beyond
/// it, as `(label, value)`; `None` below 100 samples.
pub fn supported_tail(values: &[f64]) -> Option<(&'static str, f64)> {
    let n = values.len() as f64;
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|&(_, q)| n * (1.0 - q) >= 10.0)
        .map(|(label, q)| (label, quantile(values, q)))
}

/// Spearman rank correlation with average ranks for ties.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "spearman: length mismatch");
    let ra = average_ranks(a);
    let rb = average_ranks(b);
    let n = a.len() as f64;
    let mean = (n + 1.0) / 2.0;
    let (mut cov, mut va, mut vb) = (0.0, 0.0, 0.0);
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        va += (x - mean) * (x - mean);
        vb += (y - mean) * (y - mean);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va * vb).sqrt()
}

/// 1-based ranks, ascending by value, ties sharing their average rank.
fn average_ranks(v: &[f64]) -> Vec<f64> {
    let mut order: Vec<usize> = (0..v.len()).collect();
    order.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut ranks = vec![0.0; v.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && v[order[j + 1]] == v[order[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg;
        }
        i = j + 1;
    }
    ranks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(supported_tail(&v).is_none());
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).map(|t| t.0), Some("p99"));
    }

    #[test]
    fn spearman_handles_ties_and_reversal() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((spearman(&a, &[10.0, 20.0, 30.0, 40.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&a, &[4.0, 3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        let tied = spearman(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!(tied > 0.8 && tied < 1.0);
    }

    #[test]
    fn cpu_clocks_advance() {
        let tid = current_tid();
        let t0 = thread_cpu_of(tid);
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let t1 = thread_cpu_of(tid);
        assert!(t1 > t0);
        assert!(process_cpu() >= t1);
        assert!(rss_mib() > 0.0);
    }
}
