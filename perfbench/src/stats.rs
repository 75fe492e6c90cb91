//! Order statistics, rates and process memory.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` of the sample at or below it. `p` is in `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (NaN-free input).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (nearest rank) of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median throughput over fixed windows of the timed phase: `counts`
/// holds the operations completed in each full window of `window_ns`, so
/// a host stall inside one window moves one sample instead of the whole
/// figure. Returns operations per second.
pub fn windowed_rate(counts: &[u64], window_ns: u64) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let per_s = |c: &u64| *c as f64 / (window_ns as f64 / 1e9);
    median(&counts.iter().map(per_s).collect::<Vec<_>>())
}

/// A uniform random sample of bounded size over a stream (Algorithm R),
/// so percentiles of a long run cost fixed memory: the run's footprint
/// must not grow with its throughput, or a faster program would read as
/// a bigger one.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    items: Vec<T>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl<T> Reservoir<T> {
    /// An empty sample of at most `cap` items, drawn with `seed`.
    pub fn new(cap: usize, seed: u64) -> Reservoir<T> {
        Reservoir {
            items: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: seed,
        }
    }

    /// Offers one stream item.
    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
        } else {
            let j = splitmix(&mut self.rng) % self.seen;
            if (j as usize) < self.cap {
                self.items[j as usize] = item;
            }
        }
    }

    /// The sampled items.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }
}

/// Median throughput over consecutive cycles of `per_cycle` operations
/// of uneven length (profiles): each whole cycle yields
/// `per_cycle * weight / its busy seconds`. A trailing partial cycle is
/// dropped unless it is the only one.
pub fn cycle_rate(durations_ns: &[u64], per_cycle: usize, weight: f64) -> f64 {
    let rate = |c: &[u64]| c.len() as f64 * weight / (c.iter().sum::<u64>().max(1) as f64 / 1e9);
    let rates: Vec<f64> = durations_ns
        .chunks_exact(per_cycle.max(1))
        .map(rate)
        .collect();
    if !rates.is_empty() {
        median(&rates)
    } else if durations_ns.is_empty() {
        0.0
    } else {
        rate(durations_ns)
    }
}

/// SplitMix64 step: a seeded stream of well-mixed 64-bit values.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB: the kernel's high-water
/// mark for the process image (`VmHWM` in `/proc/self/status`).
///
/// `getrusage`'s `ru_maxrss` is not used: Linux carries it across
/// `execve`, so under a launcher such as `cargo run` it reports the
/// launcher's footprint whenever that is the larger.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_definition() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.9), 9.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.01), 1.0);
    }

    #[test]
    fn windowed_rate_takes_the_median_window() {
        // Three 1 s windows holding 10, 1 and 12 completions.
        assert_eq!(windowed_rate(&[10, 1, 12], 1_000_000_000), 10.0);
        assert_eq!(windowed_rate(&[6], 500_000_000), 12.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(100, 7);
        for i in 0..10_000u32 {
            r.push(i);
        }
        assert_eq!((r.items().len(), r.seen()), (100, 10_000));
        // A uniform sample of 0..10000 has its median near 5000.
        let mut v: Vec<f64> = r.items().iter().map(|&i| i as f64).collect();
        v.sort_by(f64::total_cmp);
        let m = nearest_rank(&v, 0.5);
        assert!((3_500.0..6_500.0).contains(&m), "median {m}");
    }

    #[test]
    fn cycle_rate_takes_the_median_cycle() {
        let d = [
            500_000_000u64,
            500_000_000,
            250_000_000,
            250_000_000,
            2_000_000_000,
            0,
            7,
        ];
        // Cycles of 1 s, 0.5 s and 2 s holding 2 ops each; the 7 ns tail
        // is dropped.
        assert_eq!(cycle_rate(&d, 2, 10.0), 20.0);
        assert_eq!(cycle_rate(&d[..1], 2, 10.0), 20.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
