//! Result bookkeeping: the correctness tally, order statistics, and the
//! one-line JSON result the benchmark prints last.

/// Operations attempted and failed. An operation fails when its output
/// is not bitwise equal to the reference output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation whose logits were `got` against the
    /// reference bit patterns `want`.
    pub fn check(&mut self, got: &[f32], want: &[u32]) {
        self.record(
            got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == *w),
        );
    }

    /// Counts one operation that succeeded or failed as `ok` says.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Logit bit patterns, the form every reference output is kept in.
pub fn bits(logits: &[f32]) -> Vec<u32> {
    logits.iter().map(|x| x.to_bits()).collect()
}

/// Median of `v` (mean of the middle two for even lengths); NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Spearman rank correlation of two equal-length samples, with tied
/// values given their average rank.
pub fn spearman(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ra, rb) = (ranks(a), ranks(b));
    let n = a.len() as f64;
    let (ma, mb) = (ra.iter().sum::<f64>() / n, rb.iter().sum::<f64>() / n);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va * vb).sqrt()
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&i, &j| v[i].total_cmp(&v[j]));
    let mut r = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]] == v[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            r[k] = avg;
        }
        i = j + 1;
    }
    r
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.rows.push((name.into(), value, unit));
    }

    /// A human-readable table, one metric a line.
    pub fn table(&self) -> String {
        self.rows
            .iter()
            .map(|(n, v, u)| format!("  {n:<40} {v:>14.4} {u}\n"))
            .collect()
    }

    /// The result line: `correct`, `attempted`, `failed`, and every
    /// metric with all its digits.
    pub fn result_json(&self, tally: Tally) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            tally.failed == 0 && tally.attempted > 0,
            tally.attempted,
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON, non-finite as `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_flipped_logit_bit_counts_as_a_failed_operation() {
        let logits = [0.25f32, -1.5, 3.0];
        let want = bits(&logits);
        let mut t = Tally::default();
        t.check(&logits, &want);
        assert_eq!(
            t,
            Tally {
                attempted: 1,
                failed: 0
            }
        );
        let mut flipped = want.clone();
        flipped[1] ^= 1;
        t.check(&logits, &flipped);
        assert_eq!(
            t,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert!((spearman(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]) - 1.0).abs() < 1e-12);
        assert!((spearman(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = m.result_json(Tally {
            attempted: 3,
            failed: 0,
        });
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
