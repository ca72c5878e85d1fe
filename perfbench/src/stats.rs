//! Summary arithmetic over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, linearly interpolated
/// between the two closest ranks (rank `(n - 1) * q`).  `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let last = sorted.len().checked_sub(1)?;
    let rank = last as f64 * q.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    Some(sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo]))
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive" method),
/// so the benchmark's own spread figures match the ones an acceptance
/// check derives from its printed results.  `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(samples);
    let len = data.len();
    if len < 2 {
        return None;
    }
    let m = len + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    Some(cuts)
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// How many samples lie strictly above `threshold`.
pub fn count_above(samples: &[f64], threshold: f64) -> usize {
    samples.iter().filter(|&&x| x > threshold).count()
}

/// Latency percentiles and throughput of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub p90: f64,
    pub per_s: f64,
    /// Samples strictly above the p90.
    pub beyond_p90: usize,
}

/// Jobs measured together: the wall time they span and their latencies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Group {
    pub wall_s: f64,
    pub latencies: Vec<f64>,
}

/// The window's typical group: the medians, over `groups`, of each
/// group's p50, p90 and completions per second.  A host episode that
/// slows or speeds up less than half of the groups moves none of them.
/// A group without jobs (a stalled second) counts as 0 jobs/s and has no
/// percentiles.  `beyond_p90` counts every latency of every group above
/// the reported p90.  `None` when no group holds a job.
pub fn median_group(groups: &[Group]) -> Option<Timing> {
    let median_of = |stat: fn(&[f64]) -> Option<f64>| {
        let values: Vec<f64> = groups.iter().filter_map(|g| stat(&g.latencies)).collect();
        percentile(&values, 0.5)
    };
    let p90 = median_of(|l| percentile(l, 0.9))?;
    let rates: Vec<f64> = groups
        .iter()
        .map(|g| g.latencies.len() as f64 / g.wall_s.max(1e-12))
        .collect();
    Some(Timing {
        p50: median_of(|l| percentile(l, 0.5))?,
        p90,
        per_s: median(&rates),
        beyond_p90: groups.iter().map(|g| count_above(&g.latencies, p90)).sum(),
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let data: Vec<f64> = (1..=10).map(f64::from).rev().collect();
        assert_eq!(percentile(&data, 0.5), Some(5.5));
        assert!((percentile(&data, 0.9).unwrap() - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(10.0));
        assert_eq!(percentile(&[4.0], 0.9), Some(4.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Expected values printed by `statistics.quantiles(d, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], [1.5, 3.0, 4.5]),
            (&[2.5, 10.0, 1.0, 7.0, 3.5, 8.0, 4.0], [2.5, 4.0, 8.0]),
            (
                &[3.0, 1.0, 2.0, 10.0, 4.0, 6.0, 5.0, 9.0, 8.0, 7.0],
                [2.75, 5.5, 8.25],
            ),
        ];
        for (data, expected) in cases {
            assert_eq!(quartiles(data), Some(expected), "{data:?}");
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_group_takes_the_typical_group() {
        let group = |wall_s: f64, latencies: &[f64]| Group {
            wall_s,
            latencies: latencies.to_vec(),
        };
        let groups = [
            group(1.0, &[1.0, 2.0, 3.0]),
            group(2.0, &[2.0, 4.0, 6.0, 8.0]),
            // A slow episode moves nothing.
            group(9.0, &[50.0, 60.0, 70.0]),
        ];
        let timing = median_group(&groups).unwrap();
        // Group p50s are 2, 5 and 60.
        assert_eq!(timing.p50, 5.0);
        // Group p90s are 2.8, 7.4 and 68.
        assert!((timing.p90 - 7.4).abs() < 1e-12);
        // Rates are 3, 2 and 1/3 jobs/s.
        assert_eq!(timing.per_s, 2.0);
        assert_eq!(timing.beyond_p90, 4);
        // A stalled group adds a rate of 0 and no percentiles.
        let stalled = [groups[0].clone(), groups[1].clone(), group(1.0, &[])];
        let timing = median_group(&stalled).unwrap();
        assert_eq!((timing.p50, timing.per_s), (3.5, 2.0));
        assert_eq!(median_group(&stalled[2..]), None);
    }

    #[test]
    fn mean_median_and_tail_count() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(count_above(&[1.0, 2.0, 2.0, 3.0], 2.0), 1);
    }
}
