//! Order statistics and failure accounting for the benchmark's results.

/// A percentile of a sample set, with the sample count it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The percentile asked for, in `(0, 100]`.
    pub p: f64,
    /// The value at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples the value was taken from.
    pub n: usize,
    /// Samples strictly ranked above the percentile's rank.
    pub beyond: usize,
}

impl Percentile {
    /// "p99.0 of 5000 (50 beyond)".
    pub fn describe(&self) -> String {
        format!("p{:.1} of {} ({} beyond)", self.p, self.n, self.beyond)
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it. `None` for an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    if samples.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Percentile {
        p,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median; an even count averages the two middle samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// The tail a result may claim: the highest percentile, up to `max_p`,
/// with at least ten samples beyond it. With ten samples or fewer no
/// percentile qualifies, and the slowest sample is reported (p100).
pub fn tail(samples: &[f64], max_p: f64) -> Option<Percentile> {
    let n = samples.len();
    if n <= 10 {
        return percentile(samples, 100.0);
    }
    // Nearest rank of `max_p`, in integer arithmetic for whole percents.
    let capped = ((max_p * n as f64 - 1e-9) / 100.0).ceil().max(1.0) as usize;
    let rank = capped.min(n - 10);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Percentile {
        p: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// The median over windows of each window's [`tail`] up to `max_p`;
/// returns it with the number of windows that had one. Windows of ten
/// samples or fewer have no percentile tail and are skipped.
pub fn windowed_tail(windows: &[Vec<f64>], max_p: f64) -> (f64, usize) {
    let tails: Vec<f64> = windows
        .iter()
        .filter(|w| w.len() > 10)
        .filter_map(|w| tail(w, max_p))
        .map(|t| t.value)
        .collect();
    (median(&tails).unwrap_or(0.0), tails.len())
}

/// Attempted and failed operations of a run. A failure is any operation
/// that errored, was refused, timed out or returned a wrong answer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed too.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Folds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`; a run that attempted nothing has failed
    /// entirely (1.0), never "0 % failed".
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank_and_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0).unwrap();
        assert_eq!((p99.value, p99.n, p99.beyond), (99.0, 100, 1));
        let p50 = percentile(&xs, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
        assert_eq!(percentile(&xs, 100.0).unwrap().value, 100.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), percentile(&xs, 99.0));
        assert_eq!(percentile(&[7.0], 99.0).unwrap().value, 7.0);
        assert!(percentile(&[], 50.0).is_none());
        assert!(percentile(&xs, 0.0).is_none());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_claims_only_percentiles_with_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&big, 99.0).unwrap();
        assert_eq!((t.p, t.value, t.n, t.beyond), (99.0, 990.0, 1000, 10));
        assert_eq!(tail(&big, 95.0).unwrap().value, 950.0);
        // 999 samples: p99 would leave 9 beyond; the rank drops to keep 10.
        let t = tail(&big[..999], 99.0).unwrap();
        assert_eq!((t.value, t.beyond), (989.0, 10));
        // 21 samples: only the 11th qualifies, just above the median.
        let t = tail(&big[..21], 95.0).unwrap();
        assert_eq!((t.value, t.beyond), (11.0, 10));
        // 8 samples: no percentile tail exists; report the slowest.
        let t = tail(&[5.0, 1.0, 8.0, 2.0, 3.0, 4.0, 7.0, 6.0], 99.0).unwrap();
        assert_eq!((t.p, t.value, t.n, t.beyond), (100.0, 8.0, 8, 0));
        assert!(tail(&[], 99.0).is_none());
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        let calm: Vec<f64> = (1..=1000).map(|i| f64::from(i) / 1000.0).collect();
        let stalled: Vec<f64> = calm.iter().map(|x| x * 50.0).collect();
        let windows = vec![calm.clone(), stalled, calm.clone(), vec![1.0; 5]];
        // Three windows have a p99 (the 5-sample one has none): 0.99, 49.5,
        // 0.99; the stall does not move the median.
        assert_eq!(windowed_tail(&windows, 99.0), (0.99, 3));
        assert_eq!(windowed_tail(&[], 99.0), (0.0, 0));
    }

    #[test]
    fn failed_frac_counts_every_failure_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 1.0, "nothing attempted is a failed run");
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.failed_frac(), 0.25);
        let mut late_worker = Tally::default();
        late_worker.record(false);
        t.add(late_worker);
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.failed_frac(), 0.4);
    }
}
