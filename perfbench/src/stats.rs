//! Small numeric and process helpers: order statistics, a seeded
//! generator, and peak-resident-set readers.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// SplitMix64: a tiny, well-mixed, seedable generator. The benchmark
/// derives every input from `--seed` through it, so the same seed always
/// produces the same request lines.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly shuffled `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// CPU time the host has stolen from this machine so far: the `steal`
/// column of `/proc/stat`, in clock ticks (1/100 s) summed over CPUs.
/// `0` where the file is unavailable.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// The share of `cpus` CPUs' time over `wall_s` seconds that `ticks`
/// of stolen time represent.
pub fn steal_share(ticks: u64, wall_s: f64, cpus: f64) -> f64 {
    if wall_s > 0.0 {
        ticks as f64 / 100.0 / (wall_s * cpus)
    } else {
        0.0
    }
}

/// This process's peak resident set (`VmHWM`), in MiB.
pub fn own_peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The largest peak resident set among this process's waited-for
/// children (`getrusage(RUSAGE_CHILDREN).ru_maxrss`), in MiB.
pub fn children_peak_rss_mib() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the kernel's 64-bit `struct rusage`
    // layout (two timevals then fourteen longs) and outlives the call.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut u) };
    if rc == 0 {
        u.maxrss_kib as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn permutations_are_seeded() {
        let a = SplitMix64::new(5).permutation(8);
        assert_eq!(a, SplitMix64::new(5).permutation(8));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
    }
}
