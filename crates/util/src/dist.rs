//! Random distributions used by the topology generator.
//!
//! The paper's survey exhibits heavy-tailed structure everywhere: TCB sizes,
//! names-controlled-per-server (Figures 8 and 9), and web-site popularity
//! (the Yahoo!/DMOZ crawl plus the alexa.org top-500). The generator draws
//! those shapes from two samplers: Zipf (popularity and hosting
//! concentration) and an alias table for arbitrary weighted choices.

use crate::rng::Rng;

/// Exact Zipf sampler over ranks `1..=n` with exponent `s`, backed by a
/// precomputed cumulative table and binary search.
///
/// Memory is `O(n)`; sampling is `O(log n)`. For the survey sizes used here
/// (`n` up to ~1M) the table costs a few megabytes, which is a good trade for
/// exactness and determinism.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cumulative: Vec<f64>,
}

impl ZipfTable {
    /// Builds the sampler for `n` ranks with exponent `s > 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and positive.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfTable requires n > 0");
        assert!(s.is_finite() && s > 0.0, "ZipfTable requires finite s > 0");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        ZipfTable { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when the table has a single rank.
    pub fn is_empty(&self) -> bool {
        false // `new` rejects n == 0; a table always has at least one rank.
    }

    /// Samples a 0-based rank (`0` is the most popular).
    pub fn sample(&mut self, rng: &mut Rng) -> usize {
        let u = rng.unit_f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF values are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

/// Walker alias table for O(1) weighted discrete sampling.
///
/// Used wherever the generator picks among categories with configured
/// probabilities (hosting styles, software mixes, region assignment).
#[derive(Debug, Clone)]
pub struct AliasTable {
    prob: Vec<f64>,
    alias: Vec<usize>,
}

impl AliasTable {
    /// Builds the table from non-negative weights (at least one positive).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/non-finite value, or
    /// sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(
            !weights.is_empty(),
            "AliasTable requires at least one weight"
        );
        let total: f64 = weights
            .iter()
            .map(|&w| {
                assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
                w
            })
            .sum();
        assert!(total > 0.0, "weights must not all be zero");

        let n = weights.len();
        let mut prob: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut alias = vec![0usize; n];
        let mut small: Vec<usize> = (0..n).filter(|&i| prob[i] < 1.0).collect();
        let mut large: Vec<usize> = (0..n).filter(|&i| prob[i] >= 1.0).collect();

        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s] = l;
            prob[l] = (prob[l] + prob[s]) - 1.0;
            if prob[l] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers are certain columns.
        for i in small.into_iter().chain(large) {
            prob[i] = 1.0;
            alias[i] = i;
        }
        AliasTable { prob, alias }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when there are no categories (never: `new` rejects empty input).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Samples a category index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let i = rng.below_usize(self.prob.len());
        if rng.unit_f64() < self.prob[i] {
            i
        } else {
            self.alias[i]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank0_is_most_probable() {
        let mut z = ZipfTable::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let mut counts = vec![0usize; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > counts[100]);
    }

    #[test]
    fn zipf_single_rank() {
        let mut z = ZipfTable::new(1, 1.5);
        let mut rng = Rng::new(2);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    fn alias_table_matches_weights() {
        let t = AliasTable::new(&[1.0, 2.0, 7.0]);
        let mut rng = Rng::new(6);
        let mut counts = [0usize; 3];
        for _ in 0..100_000 {
            counts[t.sample(&mut rng)] += 1;
        }
        assert!((8_000..12_000).contains(&counts[0]), "{counts:?}");
        assert!((18_000..22_000).contains(&counts[1]), "{counts:?}");
        assert!((66_000..74_000).contains(&counts[2]), "{counts:?}");
    }

    #[test]
    fn alias_table_handles_zero_weight_categories() {
        let t = AliasTable::new(&[0.0, 1.0, 0.0]);
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            assert_eq!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn alias_table_rejects_empty() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }
}
