//! What one run found, and the order statistics the workloads share.

use crate::trace::Span;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json`).
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `us`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (events offered, jobs run, rejoins driven).
    pub attempted: u64,
    /// Operations that failed a check, were refused, or were lost.
    pub failed: u64,
    /// End-to-end metrics (reported by the untraced run).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported by the traced run).
    pub per_layer: Vec<Metric>,
    /// Run parameters recorded with the result, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
    /// Spans recorded by the traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name, value, unit });
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name, value, unit });
    }

    /// Records a run parameter (`value` must already be JSON).
    pub fn info(&mut self, key: &'static str, value: impl Into<String>) {
        self.info.push((key, value.into()));
    }

    /// Counts one checked operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Median of `values` (0 for an empty slice); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent) of `values`, sorted in place:
/// the smallest sample with at least `p`% of the data at or below it.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let n = values.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    values[rank.clamp(1, n) - 1]
}

/// Sub-buckets per power of two in a [`Hist`] (under 1% apart).
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest value a [`Hist`] tells apart (about 18 minutes in ns).
const HIST_MAX: u64 = (1 << 40) - 1;

/// A log-linear histogram of nanosecond values: percentiles of millions of
/// samples for a few kilobytes, so no buffer grows with the run.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
    sum: f64,
}

impl Default for Hist {
    /// An empty histogram with every page of its buckets written once, so
    /// recording into it later never grows the resident set.
    fn default() -> Self {
        let mut counts = vec![0u32; Hist::bucket(HIST_MAX) + 1];
        for page in counts.iter_mut().step_by(1024) {
            *page = std::hint::black_box(0);
        }
        Hist {
            counts,
            n: 0,
            sum: 0.0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as u64 + 1) * SUB + (v >> shift) - SUB) as usize
    }

    fn low(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            b
        } else {
            (b % SUB + SUB) << (b / SUB - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.counts[Hist::bucket(v.min(HIST_MAX))] += 1;
        self.n += 1;
        self.sum += v as f64;
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the values recorded (0 when empty).
    pub fn mean(&self) -> f64 {
        self.sum / self.n.max(1) as f64
    }

    /// Adds another histogram's values to this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile `p` (in percent), interpolated by rank
    /// within its bucket; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64)
            .ceil()
            .clamp(1.0, self.n as f64) as u64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = c as u64;
            if below + c >= rank {
                let (low, high) = (Hist::low(b), Hist::low(b + 1));
                let within = (rank - below) as f64 - 0.5;
                return low as f64 + (high - low) as f64 * within / c as f64;
            }
            below += c;
        }
        HIST_MAX as f64
    }
}

/// A `kB` field of this process's `/proc/self/status` in MiB, or 0 where
/// procfs is unavailable.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Cumulative CPU time of the whole machine as `(steal, total)` jiffies
/// (the `cpu` line of `/proc/stat`), or zeros where procfs is unavailable.
/// Steal is time the hypervisor ran someone else while this machine's
/// CPUs wanted to run: the main source of noise on a shared host.
pub fn cpu_jiffies() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .lines()
                .next()?
                .split_whitespace()
                .skip(1)
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Share of machine CPU time stolen above which a measurement window
/// counts as disturbed by the host rather than by the program.
pub const QUIET_STEAL: f64 = 0.02;

/// Steal share between two [`cpu_jiffies`] readings (0 when no time
/// passed).
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}

/// Keeps the samples the host disturbed least: every one whose steal
/// share is at most [`QUIET_STEAL`], and never fewer than the `min` least
/// stolen.  `samples` pairs each sample with its steal share.
pub fn least_stolen<T>(mut samples: Vec<(T, f64)>, min: usize) -> Vec<T> {
    samples.sort_by(|a, b| a.1.total_cmp(&b.1));
    samples
        .into_iter()
        .enumerate()
        .filter(|&(rank, (_, steal))| rank < min || steal <= QUIET_STEAL)
        .map(|(_, (sample, _))| sample)
        .collect()
}

/// The machine's usable parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Nanoseconds per operation of the repository's calibration kernel
/// (`perf_baseline`'s SplitMix64 loop) on the reference machine, as
/// committed in `BENCH_fusion.json` (`calibration_ns_per_op` / 10⁶).
pub const REFERENCE_NS_PER_OP: f64 = 1.554_462;

/// Nanoseconds per operation of the calibration kernel on this machine
/// now: the median of three 200k-operation rounds (about a millisecond).
pub fn calibration_ns() -> f64 {
    const OPS: u64 = 200_000;
    let mut rounds: Vec<f64> = (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut x = 0xDEAD_BEEFu64;
            let mut acc = 0u64;
            for _ in 0..OPS {
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = x;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                acc = acc.wrapping_add(z ^ (z >> 31));
            }
            std::hint::black_box(acc);
            start.elapsed().as_nanos() as f64 / OPS as f64
        })
        .collect();
    median(&mut rounds)
}

/// Times `work` and scales the wall time to the reference machine's speed
/// by the calibration kernel run right before and after it: on a shared
/// host the CPU's speed drifts by half and more within minutes, and a
/// CPU-bound time follows it.  Returns the result, the scaled time and
/// the raw time, in seconds.
pub fn timed_at_reference<T>(work: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = calibration_ns();
    let start = std::time::Instant::now();
    let out = work();
    let raw = start.elapsed().as_secs_f64();
    let cal = (before + calibration_ns()) / 2.0;
    (out, raw * REFERENCE_NS_PER_OP / cal, raw)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time, scaled to the reference machine's speed
/// ([`timed_at_reference`]), in seconds.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (out, scaled, _) = timed_at_reference(&mut setup);
        last = Some(out);
        times.push(scaled);
    }
    (last.expect("at least one set-up"), median(&mut times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut [], 99.0), 0);
        let kept = least_stolen(vec![(1, 0.5), (2, 0.0), (3, 0.3), (4, 0.01)], 3);
        assert_eq!(kept, vec![2, 4, 3]);
        assert_eq!(
            least_stolen(vec![(1, 0.5), (2, 0.0), (3, 0.01)], 1),
            vec![2, 3]
        );
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket() {
        for b in 0..2_000 {
            assert_eq!(Hist::bucket(Hist::low(b)), b);
            assert!(Hist::low(b + 1) > Hist::low(b));
        }
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v * 1_000);
        }
        for p in [50.0, 99.0] {
            let exact = p * 1_000.0 * 1_000.0;
            assert!((h.percentile(p) - exact).abs() / exact < 0.01, "p{p}");
        }
        assert!((h.mean() - 50_000_500.0).abs() < 1.0);
        assert_eq!(Hist::default().percentile(50.0), 0.0);
    }
}
