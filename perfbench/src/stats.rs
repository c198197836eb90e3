//! Metric arithmetic: medians, tail percentiles, the paper-error figure,
//! layer attribution and digest comparison. Pure functions, unit-tested
//! below, so a wrong number can be told apart from a slow one.

/// Fewest samples that must lie beyond a percentile before it is
/// reported (otherwise the "tail" is a handful of outliers).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Percentiles tried, highest first, when picking a reportable tail.
const TAIL_CANDIDATES: [f64; 4] = [99.0, 95.0, 90.0, 75.0];

/// Median of `xs` (mean of the middle pair for even counts); 0 for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean (the average for overhead ratios); 0 for an empty
/// slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        (xs.iter().map(|v| v.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Number of samples strictly above the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// The highest of p99/p95/p90/p75 with at least [`MIN_TAIL_SAMPLES`]
/// samples beyond it, as `(percentile, value)`; the median when even p75
/// is not supported.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    for p in TAIL_CANDIDATES {
        if samples_beyond(xs.len(), p) >= MIN_TAIL_SAMPLES {
            return (p, percentile(xs, p));
        }
    }
    (50.0, median(xs))
}

/// Distance between the first and third quartile as a share of the
/// median — the same inclusive-free method as Python's
/// `statistics.quantiles(values, n=4)` ("exclusive"), used to report
/// run-to-run spread.
pub fn quartile_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let q = |k: f64| {
        // statistics.quantiles, method="exclusive": position k*(n+1)/4.
        let pos = k * (n + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q(3.0) - q(1.0)) / m.abs()
    }
}

/// Mean absolute difference between measured and reference figures, in
/// the figures' own unit (percentage points for the §9.3 figures).
pub fn mean_abs_error(measured: &[f64], reference: &[f64]) -> f64 {
    assert_eq!(measured.len(), reference.len(), "figure lists must align");
    mean(
        &measured
            .iter()
            .zip(reference)
            .map(|(m, r)| (m - r).abs())
            .collect::<Vec<_>>(),
    )
}

/// One layer's estimated cost inside a timed span: `calls` calls at
/// `ns_per_call` each (from a standalone probe).
#[derive(Debug, Clone, Copy)]
pub struct LayerCost {
    /// Layer name (`shard`, `calendar`, …).
    pub layer: &'static str,
    /// Calls the workload made into the layer.
    pub calls: f64,
    /// Probe cost per call in nanoseconds.
    pub ns_per_call: f64,
}

/// Shares of `total_ns` explained by each layer (calls × probe ns ÷
/// total), plus the unexplained remainder `1 − Σ shares` (negative when
/// the probes over-explain the span — e.g. cache effects the standalone
/// probe does not see).
pub fn attribution(costs: &[LayerCost], total_ns: f64) -> (Vec<(&'static str, f64)>, f64) {
    let shares: Vec<(&'static str, f64)> = costs
        .iter()
        .map(|c| {
            let share = if total_ns > 0.0 {
                c.calls * c.ns_per_call / total_ns
            } else {
                0.0
            };
            (c.layer, share)
        })
        .collect();
    let explained: f64 = shares.iter().map(|s| s.1).sum();
    (shares, 1.0 - explained)
}

/// Names of the fields on which two digests differ (empty = equal).
/// Digests are `(field, value)` lists in a fixed order.
pub fn digest_mismatches(a: &[(&'static str, u64)], b: &[(&'static str, u64)]) -> Vec<String> {
    let mut out = Vec::new();
    if a.len() != b.len() {
        out.push(format!("field count {} vs {}", a.len(), b.len()));
        return out;
    }
    for ((na, va), (nb, vb)) in a.iter().zip(b) {
        if na != nb {
            out.push(format!("field order {na} vs {nb}"));
        } else if va != vb {
            out.push(format!("{na}: {va} vs {vb}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p99 has 1 beyond, p95 has 5, p90 has exactly 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        // 1000 samples: p99 has 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
        // Too few for any tail: fall back to the median.
        assert_eq!(tail(&[1.0, 2.0, 3.0]), (50.0, 2.0));
        assert_eq!(samples_beyond(0, 99.0), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&xs);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{spread}");
        assert_eq!(quartile_spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn paper_error_is_mean_absolute_difference() {
        assert_eq!(mean_abs_error(&[20.0, 12.0], &[20.0, 12.0]), 0.0);
        assert_eq!(mean_abs_error(&[44.0, -3.0], &[20.0, 12.0]), 19.5);
    }

    #[test]
    fn attribution_shares_and_remainder() {
        let costs = [
            LayerCost {
                layer: "shard",
                calls: 100.0,
                ns_per_call: 50.0,
            },
            LayerCost {
                layer: "calendar",
                calls: 100.0,
                ns_per_call: 10.0,
            },
        ];
        let (shares, rest) = attribution(&costs, 10_000.0);
        assert_eq!(shares, vec![("shard", 0.5), ("calendar", 0.1)]);
        assert!((rest - 0.4).abs() < 1e-12);
        let (shares, rest) = attribution(&costs, 0.0);
        assert_eq!(shares[0].1, 0.0);
        assert_eq!(rest, 1.0);
    }

    #[test]
    fn digest_comparison_names_differing_fields() {
        let a = [("slots", 10), ("real", 9)];
        assert!(digest_mismatches(&a, &a).is_empty());
        let b = [("slots", 10), ("real", 8)];
        assert_eq!(digest_mismatches(&a, &b), vec!["real: 9 vs 8".to_string()]);
        assert_eq!(digest_mismatches(&a, &b[..1]).len(), 1);
    }

    #[test]
    fn means() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
