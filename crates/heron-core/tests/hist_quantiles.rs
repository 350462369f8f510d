//! Property test of the log-bucketed histogram's quantiles against exact
//! order statistics: the reported p50/p99/p999 must sit within one log
//! bucket's relative error of the true quantile — including on adversarial
//! distributions (point masses, bimodal splits, heavy tails) where
//! mis-binning or rank off-by-ones show up immediately.
//!
//! The histogram resolves a quantile to the *lower bound* of the bucket
//! holding the rank-⌈n·q⌉ sample (clamped to the observed max), and its
//! buckets guarantee `v - lower_bound(v) <= max(v >> 4, 1)`. So for the
//! exact quantile `e` the estimate `q` must satisfy
//! `q <= e && e - q <= max(e >> 4, 1)`.

use heron_core::Histogram;
use proptest::prelude::*;

const QS: [f64; 3] = [0.5, 0.99, 0.999];

/// Exact quantile with the histogram's own rank convention: the value with
/// (1-based) rank ⌈n·q⌉, clamped to rank ≥ 1, over the sorted samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((n as f64 * q).ceil() as u64).max(1);
    sorted[(rank - 1) as usize]
}

fn check(samples: &[u64]) {
    let h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for q in QS {
        let est = h.quantile(q);
        let exact = exact_quantile(&sorted, q);
        let tolerance = (exact >> 4).max(1);
        prop_assert!(
            est <= exact,
            "quantile({q}) = {est} overshoots the exact {exact}"
        );
        prop_assert!(
            exact - est <= tolerance,
            "quantile({q}) = {est} more than one bucket below the exact \
             {exact} (tolerance {tolerance})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Uniformly random samples spanning the full bucket range, including
    /// the 1:1 region below 16.
    #[test]
    fn random_samples_stay_within_one_bucket(
        samples in prop::collection::vec(0u64..1 << 40, 1..400),
    ) {
        check(&samples);
    }

    /// Point mass: every sample identical, so every quantile must resolve
    /// to (the bucket of) that single value — rank arithmetic has no slack
    /// to hide in.
    #[test]
    fn point_mass_resolves_to_the_mass(
        value in 0u64..1 << 50,
        n in 1usize..300,
    ) {
        check(&vec![value; n]);
    }

    /// Bimodal: a big cluster of small values and a small cluster of huge
    /// ones. p50 must stay in the low mode and p999 must cross into the
    /// high mode exactly when the tail holds ≥ 0.1% of the mass.
    #[test]
    fn bimodal_splits_land_in_the_right_mode(
        low in 0u64..1000,
        high in 1u64 << 30..1 << 45,
        n_low in 1usize..300,
        n_high in 1usize..40,
    ) {
        let mut samples = vec![low; n_low];
        samples.extend(std::iter::repeat_n(high, n_high));
        check(&samples);
    }

    /// Heavy tail: exponentially spread magnitudes (each sample's scale
    /// drawn as a bit width), the regime log buckets exist for.
    #[test]
    fn heavy_tails_stay_within_one_bucket(
        shifts in prop::collection::vec((0u32..50, 0u64..1 << 14), 1..300),
    ) {
        let samples: Vec<u64> =
            shifts.iter().map(|&(s, m)| (1u64 << s).saturating_add(m)).collect();
        check(&samples);
    }
}
