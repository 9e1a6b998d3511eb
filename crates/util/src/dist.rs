//! Random distributions used by the topology generator.
//!
//! The paper's survey exhibits heavy-tailed structure everywhere: TCB sizes,
//! names-controlled-per-server (Figures 8 and 9), and web-site popularity
//! (the Yahoo!/DMOZ crawl plus the alexa.org top-500). The generator draws
//! those shapes from two samplers: Zipf (popularity and hosting
//! concentration) and an alias table for arbitrary weighted choices.

use crate::rng::Rng;

/// Exact Zipf sampler over ranks `1..=n` with exponent `s`, backed by a
/// precomputed cumulative table and a guide table into it.
///
/// A draw `u` maps to the first rank whose cumulative weight reaches it
/// (the inverse CDF). The guide holds, per bucket `⌊u·n⌋`, the first rank
/// whose own cumulative weight lands in that bucket or later; bucketing is
/// monotone in `u`, so the answer is never before the guide's entry and a
/// forward scan finds it, in `O(1)` expected steps. Memory is `O(n)`: for
/// the survey sizes used here (`n` up to ~1M) a few megabytes, a good trade
/// for exactness and determinism.
#[derive(Debug, Clone)]
pub struct ZipfTable {
    cumulative: Vec<f64>,
    guide: Vec<usize>,
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
        ZipfTable::from_cumulative(cumulative)
    }

    /// Builds the guide over a non-decreasing, non-empty CDF.
    fn from_cumulative(cumulative: Vec<f64>) -> Self {
        let n = cumulative.len();
        let mut guide = Vec::with_capacity(n);
        let mut rank = 0;
        for bucket in 0..n {
            while rank < n - 1 && Self::bucket(cumulative[rank], n) < bucket {
                rank += 1;
            }
            guide.push(rank);
        }
        ZipfTable { cumulative, guide }
    }

    /// The guide bucket of a probability: `⌊p·n⌋`, capped at `n - 1`.
    fn bucket(p: f64, n: usize) -> usize {
        ((p * n as f64) as usize).min(n - 1)
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
        self.rank_of(rng.unit_f64())
    }

    /// The first rank whose cumulative weight reaches `u` (the last rank
    /// when none does).
    fn rank_of(&self, u: f64) -> usize {
        let last = self.cumulative.len() - 1;
        let mut rank = self.guide[Self::bucket(u, self.cumulative.len())];
        while rank < last && self.cumulative[rank] < u {
            rank += 1;
        }
        rank
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
    use proptest::prelude::*;

    /// The binary-search inverse CDF: the first rank whose cumulative
    /// weight reaches `u`, or the last rank.
    fn binary_search_rank(table: &ZipfTable, u: f64) -> usize {
        table
            .cumulative
            .partition_point(|&c| c < u)
            .min(table.len() - 1)
    }

    /// Draws a guide table could get wrong: 0, every cumulative weight
    /// exactly, one ulp either side of every bucket edge `k/n`, and the
    /// values just below 1.
    fn adversarial_draws(table: &ZipfTable) -> Vec<f64> {
        let n = table.len();
        let mut draws = vec![0.0];
        draws.extend(&table.cumulative);
        for k in 1..=n {
            let edge = k as f64 / n as f64;
            draws.extend([edge.next_down(), edge, edge.next_up()]);
        }
        let mut near_one = 1.0f64;
        for _ in 0..8 {
            near_one = near_one.next_down();
            draws.push(near_one);
        }
        draws
    }

    fn assert_guide_exact(table: &ZipfTable) -> Result<(), String> {
        for u in adversarial_draws(table) {
            prop_assert_eq!(
                table.rank_of(u),
                binary_search_rank(table, u),
                "u = {:e}",
                u
            );
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The guide-table search returns the binary search's rank on
        /// every adversarial draw, over Zipf tables up to 30,000 ranks.
        #[test]
        fn guide_search_equals_binary_search(
            n in 1usize..=30_000,
            s_milli in 100u32..=3_000,
        ) {
            assert_guide_exact(&ZipfTable::new(n, f64::from(s_milli) / 1000.0))?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The same on CDFs with weights placed on, and one ulp either
        /// side of, bucket edges, where `u·n` rounds across an edge.
        #[test]
        fn guide_search_is_exact_at_bucket_edges(seed in any::<u64>(), n in 1usize..=300) {
            let mut rng = Rng::new(seed);
            let mut cumulative: Vec<f64> = (1..n)
                .map(|_| {
                    let edge = (1 + rng.below_usize(n)) as f64 / n as f64;
                    match rng.below_usize(4) {
                        0 => edge.next_down(),
                        1 => edge,
                        2 => edge.next_up().min(1.0),
                        _ => rng.unit_f64(),
                    }
                })
                .collect();
            cumulative.push(1.0);
            cumulative.sort_by(f64::total_cmp);
            assert_guide_exact(&ZipfTable::from_cumulative(cumulative))?;
        }
    }

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
