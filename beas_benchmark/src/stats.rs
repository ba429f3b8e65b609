//! Order statistics over latency samples.

/// One timed operation: when it completed (nanoseconds since the start of
/// the measured phase) and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub end_ns: u64,
    pub lat_ns: u64,
}

/// The `q`-quantile (`0.0 ..= 1.0`) of `sorted`, interpolating linearly
/// between the two nearest ranks.  `None` on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac)
}

/// The median of `values` (mean of the two middle ones for an even count).
/// `None` on an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    match sorted.len() {
        0 => None,
        n if n % 2 == 1 => Some(sorted[mid]),
        _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
    }
}

/// Median of the latencies, in nanoseconds.
pub fn p50_ns(samples: &[Sample]) -> Option<f64> {
    let mut lat: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    lat.sort_unstable();
    percentile(&lat, 0.5)
}

/// A window needs this many samples before a p99 has one sample beyond it.
pub const MIN_WINDOW_SAMPLES: usize = 100;

/// The windowed `q`-quantile in nanoseconds: the phase `[0, phase_ns)` is
/// cut into `windows` equal slices, each slice with at least
/// [`MIN_WINDOW_SAMPLES`] samples yields its own quantile, and the result is
/// the median of those.  One scheduler hiccup lands in one slice and moves
/// the median little, where it would own the tail of a whole-run percentile.
/// Returns the value and the number of slices that contributed; falls back
/// to the whole-phase quantile (zero slices) when no slice has enough
/// samples.
pub fn windowed_quantile_ns(
    samples: &[Sample],
    q: f64,
    phase_ns: u64,
    windows: usize,
) -> Option<(f64, usize)> {
    let windows = windows.max(1);
    let width = (phase_ns / windows as u64).max(1);
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for s in samples {
        let slot = ((s.end_ns / width) as usize).min(windows - 1);
        per_window[slot].push(s.lat_ns);
    }
    let per_slice: Vec<f64> = per_window
        .iter_mut()
        .filter(|w| w.len() >= MIN_WINDOW_SAMPLES)
        .filter_map(|w| {
            w.sort_unstable();
            percentile(w, q)
        })
        .collect();
    if let Some(m) = median(&per_slice) {
        return Some((m, per_slice.len()));
    }
    let mut all: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
    all.sort_unstable();
    percentile(&all, q).map(|p| (p, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 1.0), Some(40.0));
        assert_eq!(percentile(&v, 0.5), Some(25.0));
        assert_eq!(percentile(&[7], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
        let hundred: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&hundred, 0.99), Some(100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn windowed_p99_ignores_one_bad_window() {
        // Ten windows of 200 samples at 100 ns; window 3 has a stall that
        // puts 10 samples at 1 ms.  A whole-run p99 would report the stall.
        let mut samples = Vec::new();
        for w in 0..10u64 {
            for i in 0..200u64 {
                let stalled = w == 3 && i < 10;
                samples.push(Sample {
                    end_ns: w * 1_000 + i,
                    lat_ns: if stalled { 1_000_000 } else { 100 },
                });
            }
        }
        let (p99, used) = windowed_quantile_ns(&samples, 0.99, 10_000, 10).unwrap();
        assert_eq!(used, 10);
        assert_eq!(p99, 100.0);
        let mut all: Vec<u64> = samples.iter().map(|s| s.lat_ns).collect();
        all.sort_unstable();
        assert_eq!(percentile(&all, 0.999), Some(1_000_000.0));
    }

    #[test]
    fn windowed_p99_falls_back_when_windows_are_thin() {
        let samples: Vec<Sample> = (0..50)
            .map(|i| Sample {
                end_ns: i,
                lat_ns: i + 1,
            })
            .collect();
        let (p99, used) = windowed_quantile_ns(&samples, 0.99, 50, 10).unwrap();
        assert_eq!(used, 0);
        assert!((p99 - 49.51).abs() < 1e-9);
        assert_eq!(windowed_quantile_ns(&[], 0.99, 50, 10), None);
    }
}
