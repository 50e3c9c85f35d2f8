//! Property tests for the clustering stack.

use proptest::prelude::*;

use tdac_clustering::{
    pairwise_distances, silhouette_paper, silhouette_paper_dist, silhouette_samples,
    silhouette_samples_dist, Agglomerative, BitMatrix, Cosine, DistanceOptions, Euclidean,
    Hamming, KMeans, KMeansConfig, KernelPolicy, Linkage, Manhattan, Matrix, Metric, Pam,
    PamConfig, SqEuclidean,
};

fn disabled() -> td_obs::Observer {
    td_obs::Observer::disabled()
}

fn arb_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..10, 1usize..5).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec(-100.0f64..100.0, cols..=cols),
            rows..=rows,
        )
        .prop_map(move |data| Matrix::from_rows(&data))
    })
}

/// Column widths biased toward the u64 word boundary (63/64/65) where
/// packing bugs live, plus a general range.
fn arb_bit_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(63usize), Just(64), Just(65), 1usize..130]
}

/// Random 0/1 matrices for packed-vs-dense kernel parity.
fn arb_binary_matrix() -> impl Strategy<Value = (Matrix, usize)> {
    (2usize..10, arb_bit_width()).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(0.0f64), Just(1.0)], cols..=cols),
            rows..=rows,
        )
        .prop_map(move |data| (Matrix::from_rows(&data), cols))
    })
}

/// Random 0/1 value matrices with a 0/1 observation mask; rows can be
/// entirely unobserved (all-missing), and values ⊆ mask as in the
/// missing-aware truth-vector build.
fn arb_masked_binary_matrix() -> impl Strategy<Value = (Matrix, Matrix)> {
    (2usize..8, arb_bit_width()).prop_flat_map(|(rows, cols)| {
        proptest::collection::vec(
            (
                proptest::collection::vec(prop_oneof![Just(0.0f64), Just(1.0)], cols..=cols),
                // Half the rows draw a random mask, half observed
                // nothing at all (the all-missing case).
                prop_oneof![
                    proptest::collection::vec(prop_oneof![Just(0.0f64), Just(1.0)], cols..=cols),
                    Just(vec![0.0f64; cols]),
                ],
            ),
            rows..=rows,
        )
        .prop_map(|rows| {
            let masks: Vec<Vec<f64>> = rows.iter().map(|(_, m)| m.clone()).collect();
            let values: Vec<Vec<f64>> = rows
                .iter()
                .map(|(v, m)| v.iter().zip(m).map(|(&x, &ob)| x * ob).collect())
                .collect();
            (Matrix::from_rows(&values), Matrix::from_rows(&masks))
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kmeans_invariants(data in arb_matrix(), k in 1usize..5) {
        let k = k.min(data.n_rows());
        let fit = KMeans::new(KMeansConfig::with_k(k)).fit(&data).expect("fit");
        // Every observation assigned a valid cluster.
        prop_assert_eq!(fit.assignments.len(), data.n_rows());
        prop_assert!(fit.assignments.iter().all(|&c| c < k));
        // No cluster is empty (empty-cluster repair guarantee).
        let groups = fit.clusters(k);
        prop_assert!(groups.iter().all(|g| !g.is_empty()));
        // Reported inertia equals the recomputed objective.
        let recomputed: f64 = (0..data.n_rows())
            .map(|i| SqEuclidean.distance(data.row(i), fit.centroids.row(fit.assignments[i])))
            .sum();
        prop_assert!((fit.inertia - recomputed).abs() < 1e-6 * (1.0 + recomputed));
    }

    #[test]
    fn kmeans_inertia_never_increases_with_k(data in arb_matrix()) {
        let n = data.n_rows();
        let mut prev = f64::INFINITY;
        for k in 1..=n.min(4) {
            let fit = KMeans::new(KMeansConfig::with_k(k)).fit(&data).expect("fit");
            // Randomized restarts make strict monotonicity almost sure but
            // not guaranteed; allow a small slack.
            prop_assert!(fit.inertia <= prev * 1.05 + 1e-9,
                "k={k}: {} vs prev {prev}", fit.inertia);
            prev = fit.inertia.min(prev);
        }
    }

    #[test]
    fn pam_medoids_are_members_of_their_cluster(data in arb_matrix(), k in 1usize..4) {
        let k = k.min(data.n_rows());
        let fit = Pam::new(PamConfig::with_k(k)).fit(&data, &Euclidean).expect("fit");
        prop_assert_eq!(fit.medoids.len(), k);
        for (ci, &m) in fit.medoids.iter().enumerate() {
            prop_assert!(m < data.n_rows());
            prop_assert_eq!(fit.assignments[m], ci);
        }
        // Cost equals the recomputed sum of nearest-medoid distances.
        let recomputed: f64 = (0..data.n_rows())
            .map(|i| {
                fit.medoids
                    .iter()
                    .map(|&m| Euclidean.distance(data.row(i), data.row(m)))
                    .fold(f64::INFINITY, f64::min)
            })
            .sum();
        prop_assert!((fit.cost - recomputed).abs() < 1e-6 * (1.0 + recomputed));
    }

    #[test]
    fn hierarchical_produces_exactly_k_dense_clusters(
        data in arb_matrix(),
        k in 1usize..5,
        linkage_pick in 0usize..3,
    ) {
        let k = k.min(data.n_rows());
        let linkage = [Linkage::Single, Linkage::Complete, Linkage::Average][linkage_pick];
        let asg = Agglomerative::new(linkage).fit(&data, k, &Hamming).expect("fit");
        prop_assert_eq!(asg.len(), data.n_rows());
        let mut ids: Vec<usize> = asg.clone();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), k);
        prop_assert_eq!(*ids.last().expect("non-empty"), k - 1, "dense ids");
    }

    #[test]
    fn silhouette_bounds_hold_for_any_clusterer(data in arb_matrix(), k in 2usize..4) {
        let k = k.min(data.n_rows());
        let fit = KMeans::new(KMeansConfig::with_k(k)).fit(&data).expect("fit");
        for c in silhouette_samples(&data, &fit.assignments, &Euclidean) {
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
        }
        let s = silhouette_paper(&data, &fit.assignments, &Euclidean);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&s));
    }

    #[test]
    fn silhouette_is_invariant_under_label_relabeling(
        data in arb_matrix(),
        k in 2usize..4,
        shift in 1usize..4,
    ) {
        // Cluster *names* carry no information: applying a permutation to
        // the label ids must leave every per-sample coefficient — and
        // hence the paper's mean — bitwise unchanged.
        let k = k.min(data.n_rows());
        let fit = KMeans::new(KMeansConfig::with_k(k)).fit(&data).expect("fit");
        let relabeled: Vec<usize> =
            fit.assignments.iter().map(|&c| (c + shift) % k).collect();
        let original = silhouette_samples(&data, &fit.assignments, &Euclidean);
        let renamed = silhouette_samples(&data, &relabeled, &Euclidean);
        for (i, (a, b)) in original.iter().zip(&renamed).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "sample {} moved", i);
        }
        // The macro-average sums per-cluster means in label order, so
        // relabeling reorders one float summation: equal up to roundoff,
        // not bitwise.
        let sp = silhouette_paper(&data, &fit.assignments, &Euclidean);
        let sr = silhouette_paper(&data, &relabeled, &Euclidean);
        prop_assert!((sp - sr).abs() <= 1e-12, "{sp} vs {sr}");
    }

    #[test]
    fn cached_distance_silhouette_matches_feature_space(
        data in arb_matrix(),
        k in 2usize..4,
    ) {
        // The TD-AC k-sweep evaluates every k from one shared pairwise
        // distance matrix; the cached path must agree with direct
        // feature-space evaluation bit-for-bit, per sample.
        let k = k.min(data.n_rows());
        let fit = KMeans::new(KMeansConfig::with_k(k)).fit(&data).expect("fit");
        let n = data.n_rows();
        for metric in [&Euclidean as &dyn Metric, &Hamming] {
            let dist = pairwise_distances(&data, metric, &disabled());
            let direct = silhouette_samples(&data, &fit.assignments, metric);
            let cached = silhouette_samples_dist(&dist, n, &fit.assignments);
            for (i, (a, b)) in direct.iter().zip(&cached).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} sample {}", metric.name(), i);
            }
            prop_assert_eq!(
                silhouette_paper(&data, &fit.assignments, metric).to_bits(),
                silhouette_paper_dist(&dist, n, &fit.assignments).to_bits()
            );
        }
    }

    #[test]
    fn packed_and_dense_hamming_are_bit_identical(
        (data, cols) in arb_binary_matrix(),
    ) {
        // Every metric's count form must agree with the dense f64 loop
        // exactly — sums of 0/1 terms are exact integers, so the
        // contract is `==` on bits, no epsilon. Two all-zero rows reach
        // cosine's zero-vector branches.
        let mut rows: Vec<Vec<f64>> = data.iter_rows().map(<[f64]>::to_vec).collect();
        rows.extend([vec![0.0; cols], vec![0.0; cols]]);
        let data = Matrix::from_rows(&rows);
        let metrics: [&dyn Metric; 5] = [&Hamming, &Manhattan, &SqEuclidean, &Euclidean, &Cosine];
        for metric in metrics {
            let under = |kernel| {
                DistanceOptions::builder().kernel(kernel).build().pairwise(&data, metric)
            };
            let (dense, packed) = (under(KernelPolicy::Dense), under(KernelPolicy::Packed));
            let auto = pairwise_distances(&data, metric, &disabled());
            prop_assert_eq!(dense.len(), packed.len());
            for (i, ((d, p), a)) in dense.iter().zip(&packed).zip(&auto).enumerate() {
                prop_assert_eq!(d.to_bits(), p.to_bits(), "{} entry {}", metric.name(), i);
                prop_assert_eq!(d.to_bits(), a.to_bits(), "{} entry {}", metric.name(), i);
            }
        }
    }

    #[test]
    fn masked_packed_counts_match_dense_reference(
        (values, mask) in arb_masked_binary_matrix(),
    ) {
        // Masked kernel parity, including rows that observed nothing at
        // all (their co-observation count with anyone is 0).
        let bits = BitMatrix::pack_masked(&values, &mask).expect("binary inputs pack");
        let n = values.n_rows();
        for i in 0..n {
            for j in 0..n {
                let (mut co_ref, mut diff_ref) = (0u64, 0u64);
                for c in 0..values.n_cols() {
                    if mask.get(i, c) > 0.0 && mask.get(j, c) > 0.0 {
                        co_ref += 1;
                        diff_ref += u64::from(values.get(i, c) != values.get(j, c));
                    }
                }
                let (diff, co) = bits.masked_counts(i, j);
                prop_assert_eq!((diff, co), (diff_ref, co_ref), "pair ({}, {})", i, j);
            }
        }
    }

    #[test]
    fn bitmatrix_append_preserves_bits_and_tail_zero_invariant(
        (data, cols) in arb_binary_matrix(),
        extra_cols in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), 1usize..130],
        extra_rows in 0usize..4,
    ) {
        // Growth path of the incremental engine: appending columns and
        // all-zero (all-missing) rows must keep every existing bit in
        // place and the new region zero — at word boundaries above all.
        let mut packed = BitMatrix::pack(&data).expect("binary input packs");
        let before = packed.clone();
        packed.append_cols(extra_cols);
        packed.append_zero_rows(extra_rows);
        prop_assert_eq!(packed.n_cols(), cols + extra_cols);
        prop_assert_eq!(packed.n_rows(), data.n_rows() + extra_rows);
        prop_assert_eq!(packed.words_per_row(), (cols + extra_cols).div_ceil(64));
        for i in 0..data.n_rows() {
            for j in 0..cols {
                prop_assert_eq!(packed.get_bit(i, j), before.get_bit(i, j), "bit ({}, {})", i, j);
            }
            for j in cols..packed.n_cols() {
                prop_assert!(!packed.get_bit(i, j), "appended column ({}, {}) not zero", i, j);
            }
        }
        for i in data.n_rows()..packed.n_rows() {
            prop_assert!(packed.row_words(i).iter().all(|&w| w == 0), "appended row {} not zero", i);
        }
        // The tail-zero invariant is what the unmasked XOR kernel relies
        // on: grown matrices must produce the same Hamming distances as
        // packing the grown dense data from scratch.
        let mut grown_dense: Vec<Vec<f64>> = data
            .iter_rows()
            .map(|r| [r.to_vec(), vec![0.0; extra_cols]].concat())
            .collect();
        grown_dense.extend(std::iter::repeat_n(vec![0.0; cols + extra_cols], extra_rows));
        let reference = BitMatrix::pack(&Matrix::from_rows(&grown_dense)).expect("packs");
        prop_assert_eq!(&packed, &reference, "grown ≠ packed-from-scratch");
        for i in 0..packed.n_rows() {
            for j in 0..packed.n_rows() {
                prop_assert_eq!(packed.hamming(i, j), reference.hamming(i, j));
            }
        }
    }

    #[test]
    fn update_pairwise_equals_fresh_build_after_growth(
        (data, cols) in arb_binary_matrix(),
        extra_cols in prop_oneof![Just(0usize), Just(1), Just(64), 1usize..70],
        dirty_seed in 0usize..64,
        flip_col in 0usize..200,
    ) {
        // Metamorphic pin for the incremental distance path: mutate one
        // row, append zero columns and one new row, then check the
        // updated matrix equals a fresh rebuild bit-for-bit under every
        // kernel policy and metric.
        let n = data.n_rows();
        let dirty_row = dirty_seed % n;
        let mut grown: Vec<Vec<f64>> = data
            .iter_rows()
            .map(|r| [r.to_vec(), vec![0.0; extra_cols]].concat())
            .collect();
        let w = cols + extra_cols;
        grown[dirty_row][flip_col % w] = 1.0 - grown[dirty_row][flip_col % w];
        grown.push((0..w).map(|c| f64::from(u8::from(c % 3 == 0))).collect());
        let new = Matrix::from_rows(&grown);
        let metrics: [&dyn Metric; 3] = [&Hamming, &Euclidean, &Cosine];
        for (kernel, metric) in [KernelPolicy::Dense, KernelPolicy::Packed, KernelPolicy::Auto]
            .into_iter()
            .flat_map(|kernel| metrics.map(|metric| (kernel, metric)))
        {
            let opts = DistanceOptions::builder().kernel(kernel).build();
            let old = opts.pairwise(&data, metric);
            let updated = opts.update_pairwise(&old, n, &new, metric, &[dirty_row]);
            let fresh = opts.pairwise(&new, metric);
            prop_assert_eq!(updated.len(), fresh.len());
            for (i, (u, f)) in updated.iter().zip(&fresh).enumerate() {
                prop_assert_eq!(u.to_bits(), f.to_bits(), "{:?} {} entry {}", kernel, metric.name(), i);
            }
        }
    }

    #[test]
    fn metrics_satisfy_identity_and_symmetry(
        a in proptest::collection::vec(-50.0f64..50.0, 1..6),
        b_seed in proptest::collection::vec(-50.0f64..50.0, 1..6),
    ) {
        let n = a.len().min(b_seed.len());
        let (a, b) = (&a[..n], &b_seed[..n]);
        let metrics: Vec<Box<dyn Metric>> = vec![
            Box::new(Euclidean),
            Box::new(SqEuclidean),
            Box::new(Hamming),
        ];
        for m in &metrics {
            prop_assert!(m.distance(a, a).abs() < 1e-9, "{}", m.name());
            prop_assert!((m.distance(a, b) - m.distance(b, a)).abs() < 1e-9);
            prop_assert!(m.distance(a, b) >= 0.0);
        }
    }
}
