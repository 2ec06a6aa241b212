//! Order statistics for repeated host-clock samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles by the same rule as Python's `statistics.quantiles(data,
    /// n=4)` (the "exclusive" method), so the benchmark's spreads match
    /// the ones computed from its output.
    pub fn of(samples: &[f64]) -> Summary {
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        match n {
            0 => Summary {
                median: f64::NAN,
                q1: f64::NAN,
                q3: f64::NAN,
                n,
            },
            1 => Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            },
            _ => {
                let q = |i: usize| {
                    let m = n + 1;
                    let j = (i * m / 4).clamp(1, n - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
                };
                let median = if n % 2 == 1 {
                    v[n / 2]
                } else {
                    (v[n / 2 - 1] + v[n / 2]) / 2.0
                };
                Summary {
                    median,
                    q1: q(1),
                    q3: q(3),
                    n,
                }
            }
        }
    }

    /// An exact (simulated-clock) value: no spread by construction.
    pub fn exact(v: f64) -> Summary {
        Summary {
            median: v,
            q1: v,
            q3: v,
            n: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_exclusive_quartiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }
}
