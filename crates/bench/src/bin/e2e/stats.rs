//! Sample statistics: medians, quartiles, and the rule for which high
//! percentile a sample supports.

/// Sorts a sample in place (latencies are never NaN).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
}

/// Quantile by linear interpolation on a **sorted** sample (0 if empty).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    sort(&mut s);
    quantile_sorted(&s, 0.5)
}

/// Mean (0 if empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it: a p99 from 200 samples would be the second-largest
/// value, which is an anecdote, not a percentile. Returns the fraction
/// (0.99 for p99); a sample too small for p90 gets the median.
pub fn supported_tail(n: usize) -> f64 {
    // Per-mille, so "ten beyond" is exact integer arithmetic.
    [999usize, 990, 950, 900]
        .into_iter()
        .find(|q| n * (1000 - q) / 1000 >= 10)
        .map_or(0.5, |q| q as f64 / 1000.0)
}

/// `q` capped at what `n` samples support (see [`supported_tail`]).
pub fn tail_at_most(n: usize, q: f64) -> f64 {
    q.min(supported_tail(n))
}

/// Median and quartiles of repeated runs of one metric, as Python's
/// `statistics.quantiles(values, n=4)` computes them (exclusive method),
/// so the spread printed here is the spread the driver will compute.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let mut s = values.to_vec();
        sort(&mut s);
        let n = s.len();
        // Python's exclusive method: position j = i·(n+1)/4 (1-based),
        // clamped into the sample.
        let at = |i: usize| -> f64 {
            if n == 1 {
                return s[0];
            }
            let pos = i as f64 * (n as f64 + 1.0) / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            s[j - 1] + (s[j] - s[j - 1]) * frac
        };
        Self {
            median: quantile_sorted(&s, 0.5),
            q1: at(1),
            q3: at(3),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn relative(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(99), 0.5);
        assert_eq!(supported_tail(100), 0.90);
        assert_eq!(supported_tail(199), 0.90);
        assert_eq!(supported_tail(200), 0.95);
        assert_eq!(supported_tail(999), 0.95);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(1661), 0.99);
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(tail_at_most(1661, 0.99), 0.99);
        assert_eq!(tail_at_most(450, 0.99), 0.95);
    }

    #[test]
    fn quantiles_and_spread_match_python() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(mean(&xs), 2.5);
        // statistics.quantiles([1,2,3,4], n=4) == [1.25, 2.5, 3.75]
        let s = Spread::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        assert_eq!(s.relative(), 1.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(Spread::of(&[7.0]).relative(), 0.0);
    }
}
