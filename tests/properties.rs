//! Cross-crate property-based tests (proptest) on the invariants the
//! pipeline relies on.

use proptest::prelude::*;

use morer::graph::community::{leiden, LeidenConfig};
use morer::graph::components::connected_components;
use morer::graph::Graph;
use morer::ml::metrics::PairCounts;
use morer::sim::string_sim::{jaccard_tokens, jaro_winkler, levenshtein_sim};
use morer::stats::tests::{ks_statistic, psi, wasserstein_distance};
use morer::stats::{Ecdf, Histogram};

fn words_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,8}", 0..6).prop_map(|v| v.join(" "))
}

fn unit_samples() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..=1.0, 1..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- similarity functions --------------------------------

    #[test]
    fn similarities_are_bounded_symmetric_reflexive(a in words_strategy(), b in words_strategy()) {
        for f in [jaccard_tokens, levenshtein_sim, jaro_winkler] {
            let s_ab = f(&a, &b);
            let s_ba = f(&b, &a);
            prop_assert!((0.0..=1.0).contains(&s_ab));
            prop_assert!((s_ab - s_ba).abs() < 1e-12);
            prop_assert!((f(&a, &a) - 1.0).abs() < 1e-12);
        }
    }

    // ---------------- distribution tests -----------------------------------

    #[test]
    fn distribution_distances_are_pseudometrics(a in unit_samples(), b in unit_samples()) {
        let ks = ks_statistic(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ks));
        prop_assert!((ks - ks_statistic(&b, &a)).abs() < 1e-12);
        prop_assert!(ks_statistic(&a, &a) < 1e-12);

        let wd = wasserstein_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&wd));
        prop_assert!((wd - wasserstein_distance(&b, &a)).abs() < 1e-12);
        prop_assert!(wasserstein_distance(&a, &a) < 1e-12);
        // KS dominates WD on the unit interval (sup >= mean of |CDF diff|)
        prop_assert!(ks + 1e-9 >= wd);

        let p = psi(&a, &b, 50);
        prop_assert!(p >= -1e-12);
        prop_assert!((p - psi(&b, &a, 50)).abs() < 1e-9);
    }

    #[test]
    fn ecdf_is_monotone_cadlag(sample in unit_samples()) {
        let e = Ecdf::new(&sample);
        let grid = e.on_grid(21, 0.0, 1.0);
        for w in grid.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        prop_assert!((grid[grid.len() - 1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_preserves_mass(sample in unit_samples(), bins in 1usize..40) {
        let h = Histogram::unit(&sample, bins);
        prop_assert_eq!(h.total() as usize, sample.len());
        let p: f64 = h.proportions().iter().sum();
        prop_assert!((p - 1.0).abs() < 1e-9);
    }

    // ---------------- graph invariants -------------------------------------

    #[test]
    fn leiden_clusters_refine_connected_components(
        edges in proptest::collection::vec((0usize..24, 0usize..24, 0.1f64..1.0), 0..80)
    ) {
        let g = Graph::from_edges(24, &edges);
        let clustering = leiden(&g, &LeidenConfig::default());
        let components = connected_components(&g);
        // no community may span two connected components
        for u in 0..24 {
            for v in (u + 1)..24 {
                if clustering.cluster_of(u) == clustering.cluster_of(v) {
                    prop_assert_eq!(components[u], components[v]);
                }
            }
        }
    }

    #[test]
    fn graph_strength_sums_to_twice_total_weight(
        edges in proptest::collection::vec((0usize..16, 0usize..16, 0.1f64..5.0), 0..60)
    ) {
        let g = Graph::from_edges(16, &edges);
        let strength_sum: f64 = (0..16).map(|v| g.strength(v)).sum();
        prop_assert!((strength_sum - 2.0 * g.total_weight()).abs() < 1e-9);
    }

    // ---------------- metrics ----------------------------------------------

    #[test]
    fn f1_is_harmonic_mean_and_bounded(
        outcomes in proptest::collection::vec((any::<bool>(), any::<bool>()), 1..200)
    ) {
        let mut counts = PairCounts::new();
        for (pred, actual) in &outcomes {
            counts.record(*pred, *actual);
        }
        let (p, r, f1) = (counts.precision(), counts.recall(), counts.f1());
        prop_assert!((0.0..=1.0).contains(&f1));
        if p + r > 0.0 {
            prop_assert!((f1 - 2.0 * p * r / (p + r)).abs() < 1e-12);
        }
        prop_assert!(f1 <= p.max(r) + 1e-12);
    }
}

// ---------------- featurization oracle -------------------------------------

/// The profiled `ErProblem::build` must reproduce the verbatim seed per-pair
/// string path (`morer_bench::seed_reference`) bit-for-bit on the product
/// featurization workload, which mixes token, edit-distance, q-gram and
/// numeric comparators.
#[test]
fn seed_reference_matches_profiled_featurization() {
    use morer::data::ErProblem;
    use morer_bench::seed_reference::seed_build_features;
    use morer_bench::workload::featurization_workload;

    let workload = featurization_workload(500, 5_000, 42);
    let seed = seed_build_features(&workload.dataset, &workload.scheme, &workload.pairs);
    let profiled =
        ErProblem::build(0, &workload.dataset, &workload.scheme, (0, 1), workload.pairs.clone());
    assert_eq!(profiled.features.rows(), workload.pairs.len());
    assert_eq!(seed, profiled.features, "seed reference diverged from the profiled path");
}
