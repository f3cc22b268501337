//! Order statistics and the comparison rule for two sets of runs.

/// Linear-interpolation quantile, `q` in `[0, 1]`, of ascending `sorted`
/// (the inclusive method); 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the exclusive
/// method), so spreads here match ones computed with that tool.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// How set B compares with set A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Run pairs a gain needs before it can be claimed.
const MIN_PAIRS: usize = 10;

/// The choosing-metrics §8 rule. Over at least ten run pairs, B is better
/// when it wins nine tenths of them (ties count for neither) and its median
/// beats A's by more than A's quartile spread, or when every B run beats
/// every A run. Otherwise, when A's own spread exceeds the bound the result
/// is unresolved; else B is worse when its median loses by more than the
/// bound, `bound` a share of A's median with an absolute floor.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (ma, mb) = (median(a), median(b));
    let [q1, _, q3] = quartiles(a);
    let spread = q3 - q1;
    let loss = if lower_is_better { mb - ma } else { ma - mb };
    let limit = (bound * ma.abs()).max(floor);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(x, y)| beats(**y, **x)).count();
    let all_better = b.iter().all(|y| a.iter().all(|x| beats(*y, *x)));
    let clear_win = wins as f64 >= 0.9 * pairs as f64 && -loss > spread;
    if pairs >= MIN_PAIRS && (all_better || clear_win) {
        Verdict::Better
    } else if spread > limit {
        Verdict::Unresolved
    } else if loss > limit {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.625), 3.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&hundred, 0.99) - 99.01).abs() < 1e-9);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from statistics.quantiles(data, n=4).
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[3.5, 1.0, 9.25, 4.0]), [1.625, 3.75, 7.9375]);
        assert_eq!(quartiles(&[2.0, 5.0]), [1.25, 3.5, 5.75]);
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), [1.0, 4.0, 7.0]);
    }

    #[test]
    fn verdicts_on_synthetic_sets() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let shifted = |d: f64| parent.map(|x| x + d);
        // Lower is better: a clear drop wins every pair.
        assert_eq!(
            verdict(&parent, &shifted(-20.0), true, 0.10, 0.0),
            Verdict::Better
        );
        // Higher is better reads the same drop as a loss beyond 10%.
        assert_eq!(
            verdict(&parent, &shifted(-20.0), false, 0.10, 0.0),
            Verdict::Worse
        );
        // A 3% move is inside a 10% bound and inside the spread rule.
        assert_eq!(
            verdict(&parent, &shifted(3.0), true, 0.10, 0.0),
            Verdict::Within
        );
        // Identical sets: no wins, no loss.
        assert_eq!(verdict(&parent, &parent, true, 0.10, 0.0), Verdict::Within);
        // A parent whose own spread exceeds the bound cannot resolve a
        // change that does not beat it outright.
        let noisy = [
            50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0,
        ];
        let flat = [100.0; 10];
        assert_eq!(verdict(&noisy, &flat, true, 0.10, 0.0), Verdict::Unresolved);
        // ...unless every run of the change beats every parent run.
        assert_eq!(
            verdict(&noisy, &[40.0; 10], true, 0.10, 0.0),
            Verdict::Better
        );
        // Three pairs cannot show a gain, however clear.
        assert_eq!(
            verdict(&parent[..3], &shifted(-20.0)[..3], true, 0.10, 0.0),
            Verdict::Within
        );
        // An absolute floor widens a tiny relative bound.
        let setup = [0.010; 4];
        assert_eq!(
            verdict(&setup, &[0.025; 4], true, 0.25, 0.02),
            Verdict::Within
        );
        assert_eq!(
            verdict(&setup, &[0.035; 4], true, 0.25, 0.02),
            Verdict::Worse
        );
    }
}
