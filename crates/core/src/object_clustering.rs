//! TD-OC — truth discovery with **object** clustering: the dual of TD-AC
//! along the paper's final research perspective ("compare ourselves to …
//! the partitioning approach in \[13\]", Yang et al. 2019, which partitions
//! *objects* rather than attributes).
//!
//! Where TD-AC groups attributes whose truth vectors (over
//! `(object, source)` pairs) coincide, TD-OC groups **objects** whose
//! truth vectors over `(attribute, source)` pairs coincide — useful when
//! sources specialize per *topic* (objects) rather than per *property*
//! (attributes). The machinery is deliberately symmetric: reference truth
//! from a base run, k-means + paper silhouette over `k ∈ [2, |O|-1]`,
//! base re-run per object cluster, merge.
//!
//! Because a dataset view restricts attributes (not objects), the
//! per-cluster runs filter predictions by object after running on the
//! full view; source trust is still estimated per cluster by running the
//! base on a *claim-filtered* clone of the dataset.

use clustering::{BitMatrix, Rows};
use serde::{Deserialize, Serialize};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::{Dataset, DatasetBuilder, ObjectId};
use td_obs::Counter;

use crate::config::{ClusterMethod, TdacConfig};
use crate::tdac::{scan_sweep, sweep, TdacError};

/// A partition of the object set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectPartition {
    /// Groups of object ids (disjoint, exhaustive over claimed objects).
    pub groups: Vec<Vec<ObjectId>>,
}

impl ObjectPartition {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The group index containing `object`, if any.
    pub fn group_of(&self, object: ObjectId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&object))
    }
}

/// Outcome of a TD-OC run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TdocOutcome {
    /// Merged predictions.
    pub result: TruthResult,
    /// The selected object partition.
    pub partition: ObjectPartition,
    /// Silhouette of the selected partition.
    pub silhouette: f64,
    /// Every `(k, silhouette)` evaluated.
    pub k_scores: Vec<(usize, f64)>,
    /// Whether TD-OC fell back to the un-partitioned run.
    pub fallback: bool,
}

/// The TD-OC algorithm (object-clustering dual of [`crate::Tdac`]).
#[derive(Debug, Clone)]
pub struct Tdoc {
    config: TdacConfig,
}

impl Tdoc {
    /// A TD-OC instance; reuses [`TdacConfig`] (k range, metric, seed).
    pub fn new(config: TdacConfig) -> Self {
        Self { config }
    }

    /// Runs TD-OC over `dataset` with base algorithm `base`.
    ///
    /// Same signature shape as [`crate::Tdac::run`], and the same k
    /// sweep: k-means for every k over one shared distance matrix, each
    /// k in parallel under panic isolation. Observation via the config's
    /// [`td_obs::Observer`] uses the same span taxonomy as TD-AC.
    pub fn run(
        &self,
        base: &(dyn TruthDiscovery + Sync),
        dataset: &Dataset,
    ) -> Result<TdocOutcome, TdacError> {
        let obs = &self.config.observer;
        let n_objects = dataset.n_objects();
        if n_objects == 0 {
            return Err(TdacError::NoAttributes);
        }
        let ks = self.config.k_range(n_objects);
        if ks.is_empty() {
            let mut result = {
                let _s = obs.span("per_group_run");
                base.discover_observed(&dataset.view_all(), obs)
            };
            result.iterations = 1;
            return Ok(TdocOutcome {
                result,
                partition: ObjectPartition {
                    groups: vec![dataset.object_ids().collect()],
                },
                silhouette: 0.0,
                k_scores: Vec::new(),
                fallback: true,
            });
        }

        // Object truth vectors: row per object, column per
        // (attribute, source) pair, scattered straight into bits.
        let (bits, reference) = {
            let _s = obs.span("truth_vectors");
            let reference = base.discover_observed(&dataset.view_all(), obs);
            let n_sources = dataset.n_sources();
            let mut bits = BitMatrix::zeros(n_objects, dataset.n_attributes() * n_sources);
            for cell in dataset.cells() {
                let Some(truth) = reference.prediction(cell.object, cell.attribute) else {
                    continue;
                };
                for claim in dataset.cell_claims(cell) {
                    if claim.value == truth {
                        let col = cell.attribute.index() * n_sources + claim.source.index();
                        bits.set_bit(cell.object.index(), col, true);
                    }
                }
            }
            (bits, reference)
        };

        // TD-AC's own k sweep, with k-means: every k is clustered and
        // scored from one shared distance matrix.
        let opts = self.config.distance_options(obs);
        let dist = {
            let _s = obs.span("distance_matrix");
            obs.incr(Counter::DistCacheMisses, 1);
            opts.pairwise(&bits, self.config.metric.as_metric())
        };
        let evals = sweep(
            &self.config,
            ClusterMethod::KMeans,
            Rows::Packed(&bits),
            &dist,
            &ks,
            &opts,
            None,
        );
        let (k_scores, best) = scan_sweep(&ks, evals)?;
        let (silhouette, assignments) = best.expect("a sweep without a budget scores every k");

        // Group objects.
        let n_groups = assignments.iter().copied().max().unwrap_or(0) + 1;
        let mut groups: Vec<Vec<ObjectId>> = vec![Vec::new(); n_groups];
        for (oi, &g) in assignments.iter().enumerate() {
            groups[g].push(ObjectId::new(oi as u32));
        }
        groups.retain(|g| !g.is_empty());
        groups.sort_by_key(|g| g[0]);

        // Run the base per object group on claim-filtered clones.
        let _pg = obs.span("per_group_run");
        let mut result = TruthResult::for_view(&dataset.view_all(), 0.0);
        for group in &groups {
            let sub = object_subset(dataset, group);
            let partial = base.discover_observed(&sub.view_all(), obs);
            // Map the subset's ids back to the parent's (names are
            // preserved, so translate through them).
            for (o, a, v, c) in partial.iter() {
                let obj = dataset
                    .object_id(sub.object_name(o))
                    .expect("object preserved");
                let attr = dataset
                    .attribute_id(sub.attribute_name(a))
                    .expect("attribute preserved");
                let value = dataset
                    .value_id(sub.value(v))
                    .expect("value preserved");
                result.set_prediction(obj, attr, value, c);
            }
        }
        result.source_trust = reference.source_trust.clone();
        result.iterations = 1;

        Ok(TdocOutcome {
            result,
            partition: ObjectPartition { groups },
            silhouette,
            k_scores,
            fallback: false,
        })
    }
}

/// Clones the claims of `objects` into a fresh dataset (names preserved).
fn object_subset(dataset: &Dataset, objects: &[ObjectId]) -> Dataset {
    let keep: std::collections::HashSet<ObjectId> = objects.iter().copied().collect();
    let mut b = DatasetBuilder::new();
    // Preserve the full source roster so trust vectors stay comparable.
    for s in dataset.source_ids() {
        b.source(dataset.source_name(s));
    }
    for cell in dataset.cells() {
        if !keep.contains(&cell.object) {
            continue;
        }
        for claim in dataset.cell_claims(cell) {
            b.claim(
                dataset.source_name(claim.source),
                dataset.object_name(cell.object),
                dataset.attribute_name(cell.attribute),
                dataset.value(claim.value).clone(),
            )
            .expect("clone of a valid dataset cannot conflict");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetricKind;
    use clustering::{silhouette_paper, KMeans, KMeansConfig, Matrix};
    use td_algorithms::MajorityVote;
    use td_model::{DatasetBuilder, Value};

    /// Sources specialize per *topic*: g-sources are right on objects
    /// o0..o2, h-sources on o3..o5 (same attributes throughout).
    fn topic_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for o in 0..6i64 {
            let obj = format!("o{o}");
            let g_right = o < 3;
            for a in ["a1", "a2", "a3"] {
                let (g_val, h_val) = if g_right {
                    (Value::int(o), Value::int(500 + o))
                } else {
                    (Value::int(600 + o), Value::int(o))
                };
                b.claim("g1", &obj, a, g_val.clone()).unwrap();
                b.claim("g2", &obj, a, g_val).unwrap();
                b.claim("h1", &obj, a, h_val.clone()).unwrap();
                b.claim("h2", &obj, a, h_val).unwrap();
                b.claim("tiebreak", &obj, a, Value::int(o)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn recovers_topic_structure() {
        let d = topic_dataset();
        let out = Tdoc::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert!(!out.fallback);
        assert_eq!(out.partition.len(), 2, "two topics: {:?}", out.partition);
        let o0 = d.object_id("o0").unwrap();
        let o1 = d.object_id("o1").unwrap();
        let o3 = d.object_id("o3").unwrap();
        assert_eq!(out.partition.group_of(o0), out.partition.group_of(o1));
        assert_ne!(out.partition.group_of(o0), out.partition.group_of(o3));
    }

    #[test]
    fn predicts_every_cell() {
        let d = topic_dataset();
        let out = Tdoc::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert_eq!(out.result.len(), d.n_cells());
        // And the predictions are correct (tiebreak source makes truth
        // the per-topic majority).
        for o in 0..6i64 {
            let obj = d.object_id(&format!("o{o}")).unwrap();
            for a in ["a1", "a2", "a3"] {
                let attr = d.attribute_id(a).unwrap();
                assert_eq!(
                    out.result.prediction(obj, attr),
                    d.value_id(&Value::int(o)),
                    "cell (o{o}, {a})"
                );
            }
        }
    }

    #[test]
    fn few_objects_fall_back() {
        let mut b = DatasetBuilder::new();
        b.claim("s", "only", "a", Value::int(1)).unwrap();
        let d = b.build();
        let out = Tdoc::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        assert!(out.fallback);
        assert_eq!(out.result.len(), 1);
    }

    #[test]
    fn empty_dataset_errors() {
        let d = DatasetBuilder::new().build();
        assert!(Tdoc::new(TdacConfig::default()).run(&MajorityVote, &d).is_err());
    }

    /// Dense object truth vectors, scattered straight from Eq. 1: row
    /// per object, column per `(attribute, source)` pair.
    fn dense_object_vectors(dataset: &Dataset, reference: &TruthResult) -> Matrix {
        let n_sources = dataset.n_sources();
        let mut m = Matrix::zeros(dataset.n_objects(), dataset.n_attributes() * n_sources);
        for cell in dataset.cells() {
            let truth = reference.prediction(cell.object, cell.attribute);
            for claim in dataset.cell_claims(cell) {
                if Some(claim.value) == truth {
                    let col = cell.attribute.index() * n_sources + claim.source.index();
                    m.set(cell.object.index(), col, 1.0);
                }
            }
        }
        m
    }

    #[test]
    fn k_scores_are_the_paper_silhouette_of_dense_object_vectors() {
        let world = datagen::generate_synthetic(&datagen::SyntheticConfig::ds1().scaled(24));
        for dataset in [topic_dataset(), world.dataset] {
            let dense =
                dense_object_vectors(&dataset, &MajorityVote.discover(&dataset.view_all()));
            for metric in [MetricKind::Hamming, MetricKind::Euclidean, MetricKind::Cosine] {
                let config = TdacConfig {
                    metric,
                    ..TdacConfig::default()
                };
                let out = Tdoc::new(config.clone()).run(&MajorityVote, &dataset).unwrap();
                assert_eq!(out.k_scores.len(), dataset.n_objects() - 2, "{metric:?}");
                for &(k, silhouette) in &out.k_scores {
                    let fit = KMeans::new(KMeansConfig {
                        k,
                        n_init: config.n_init,
                        seed: config.seed,
                        ..KMeansConfig::with_k(k)
                    })
                    .fit(&dense)
                    .unwrap();
                    let want = silhouette_paper(&dense, &fit.assignments, metric.as_metric());
                    assert_eq!(silhouette.to_bits(), want.to_bits(), "{metric:?}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn object_subset_preserves_names_and_sources() {
        let d = topic_dataset();
        let objs: Vec<ObjectId> = d.object_ids().take(2).collect();
        let sub = object_subset(&d, &objs);
        assert_eq!(sub.n_sources(), d.n_sources());
        assert_eq!(sub.n_objects(), 2);
        assert_eq!(sub.n_claims(), 2 * 3 * 5);
        assert!(sub.object_id("o0").is_some());
        assert!(sub.object_id("o5").is_none());
    }
}
