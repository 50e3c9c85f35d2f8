//! Canonical bit-exact fingerprints of truth-discovery outcomes.
//!
//! The parallel-execution contract of this workspace is *bit identity*:
//! the same configuration must produce the same [`TruthResult`] at any
//! thread count. [`TruthResult`] itself cannot be compared directly —
//! its grid's shape depends on how it was built and `f64` does not
//! implement `Eq` — so the harness canonicalizes results into sorted,
//! bit-pattern form first. Two fingerprints are equal **iff** every
//! prediction, every confidence bit, every trust bit, and the iteration
//! counter agree.

use td_algorithms::TruthResult;
use td_model::{AttributeId, ObjectId, ValueId};
use tdac_core::{AccuGenOutcome, TdacOutcome};

/// A canonical, totally ordered, `Eq`-comparable image of a
/// [`TruthResult`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ResultFingerprint {
    /// `(object, attribute, value, confidence bits)` sorted by cell.
    pub predictions: Vec<(ObjectId, AttributeId, ValueId, u64)>,
    /// Per-source trust, as raw bit patterns.
    pub source_trust: Vec<u64>,
    /// Outer iteration count.
    pub iterations: u32,
}

impl ResultFingerprint {
    /// Canonicalizes a result ([`TruthResult::iter`] already yields
    /// cells in order).
    pub fn of(result: &TruthResult) -> Self {
        Self {
            predictions: result
                .iter()
                .map(|(o, a, v, c)| (o, a, v, c.to_bits()))
                .collect(),
            source_trust: result.source_trust.iter().map(|t| t.to_bits()).collect(),
            iterations: result.iterations,
        }
    }

    /// First difference against another fingerprint, as a human-readable
    /// description — `None` when bit-identical. Used by the differential
    /// suites to fail with *which cell diverged* instead of two opaque
    /// dumps.
    pub fn diff(&self, other: &ResultFingerprint) -> Option<String> {
        if self.predictions.len() != other.predictions.len() {
            return Some(format!(
                "prediction counts differ: {} vs {}",
                self.predictions.len(),
                other.predictions.len()
            ));
        }
        for (a, b) in self.predictions.iter().zip(&other.predictions) {
            if a != b {
                return Some(format!(
                    "cell ({}, {}): value {} conf {:e} vs value {} conf {:e}",
                    a.0,
                    a.1,
                    a.2,
                    f64::from_bits(a.3),
                    b.2,
                    f64::from_bits(b.3)
                ));
            }
        }
        if self.source_trust != other.source_trust {
            let i = self
                .source_trust
                .iter()
                .zip(&other.source_trust)
                .position(|(x, y)| x != y);
            return Some(match i {
                Some(i) => format!(
                    "source trust [{i}]: {:e} vs {:e}",
                    f64::from_bits(self.source_trust[i]),
                    f64::from_bits(other.source_trust[i])
                ),
                None => format!(
                    "trust lengths differ: {} vs {}",
                    self.source_trust.len(),
                    other.source_trust.len()
                ),
            });
        }
        if self.iterations != other.iterations {
            return Some(format!(
                "iterations: {} vs {}",
                self.iterations, other.iterations
            ));
        }
        None
    }

    /// FNV-1a 64 digest of the fingerprint's little-endian encoding
    /// (lengths, then every field in order), so a golden can pin a whole
    /// result in one word. Equal fingerprints have equal digests.
    pub fn digest(&self) -> u64 {
        let mut bytes =
            Vec::with_capacity(24 * self.predictions.len() + 8 * self.source_trust.len() + 20);
        bytes.extend_from_slice(&(self.predictions.len() as u64).to_le_bytes());
        for &(o, a, v, c) in &self.predictions {
            for id in [o.index(), a.index(), v.index()] {
                bytes.extend_from_slice(&(id as u32).to_le_bytes());
            }
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&(self.source_trust.len() as u64).to_le_bytes());
        for t in &self.source_trust {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        bytes.extend_from_slice(&self.iterations.to_le_bytes());
        td_store::fnv1a(&bytes)
    }

    /// The predictions only, for comparisons where trust vectors are
    /// legitimately incomparable (e.g. a global run vs a merged
    /// per-partition run, whose trusts are per-view accuracies).
    pub fn predictions_only(&self) -> &[(ObjectId, AttributeId, ValueId, u64)] {
        &self.predictions
    }
}

/// Canonical image of a whole TD-AC outcome (result plus the model
/// selection that produced it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeFingerprint {
    /// The merged result.
    pub result: ResultFingerprint,
    /// The selected partition, rendered canonically.
    pub partition: String,
    /// Bit pattern of the winning silhouette.
    pub silhouette: u64,
    /// `(k, silhouette bits)` for the whole sweep.
    pub k_scores: Vec<(usize, u64)>,
    /// Whether the run fell back to the un-partitioned base run.
    pub fallback: bool,
}

impl OutcomeFingerprint {
    /// Canonicalizes a TD-AC outcome.
    pub fn of(outcome: &TdacOutcome) -> Self {
        Self {
            result: ResultFingerprint::of(&outcome.result),
            partition: outcome.partition.to_string(),
            silhouette: outcome.silhouette.to_bits(),
            k_scores: outcome
                .k_scores
                .iter()
                .map(|&(k, s)| (k, s.to_bits()))
                .collect(),
            fallback: outcome.fallback,
        }
    }

    /// Canonicalizes an AccuGenPartition outcome (the sweep fields that
    /// do not apply are left empty).
    pub fn of_accugen(outcome: &AccuGenOutcome) -> Self {
        Self {
            result: ResultFingerprint::of(&outcome.result),
            partition: outcome.partition.to_string(),
            silhouette: outcome.score.to_bits(),
            k_scores: Vec::new(),
            fallback: false,
        }
    }

    /// First difference against another outcome fingerprint, as a
    /// human-readable description — `None` when bit-identical.
    pub fn diff(&self, other: &OutcomeFingerprint) -> Option<String> {
        if let Some(d) = self.result.diff(&other.result) {
            return Some(d);
        }
        if self.partition != other.partition {
            return Some(format!(
                "partition: {} vs {}",
                self.partition, other.partition
            ));
        }
        if self.silhouette != other.silhouette {
            return Some(format!(
                "silhouette: {:e} vs {:e}",
                f64::from_bits(self.silhouette),
                f64::from_bits(other.silhouette)
            ));
        }
        if self.k_scores != other.k_scores {
            return Some(format!(
                "k_scores: {:?} vs {:?}",
                self.k_scores, other.k_scores
            ));
        }
        if self.fallback != other.fallback {
            return Some(format!(
                "fallback: {} vs {}",
                self.fallback, other.fallback
            ));
        }
        None
    }
}

/// Panics with a contextualized first-difference message unless the two
/// results are bit-identical.
pub fn assert_bit_identical(a: &TruthResult, b: &TruthResult, context: &str) {
    let (fa, fb) = (ResultFingerprint::of(a), ResultFingerprint::of(b));
    if let Some(diff) = fa.diff(&fb) {
        panic!("{context}: results are not bit-identical — {diff}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(cells: &[(u32, u32, u32, f64)], trust: &[f64]) -> TruthResult {
        let mut r = TruthResult::with_sources(0, 0.0);
        r.source_trust = trust.to_vec();
        for &(o, a, v, c) in cells {
            r.set_prediction(ObjectId::new(o), AttributeId::new(a), ValueId::new(v), c);
        }
        r
    }

    #[test]
    fn identical_results_fingerprint_equal() {
        let a = result(&[(0, 0, 1, 0.5), (1, 0, 2, 0.25)], &[0.1, 0.9]);
        let b = result(&[(1, 0, 2, 0.25), (0, 0, 1, 0.5)], &[0.1, 0.9]);
        assert_eq!(ResultFingerprint::of(&a), ResultFingerprint::of(&b));
        assert!(ResultFingerprint::of(&a)
            .diff(&ResultFingerprint::of(&b))
            .is_none());
        assert_bit_identical(&a, &b, "insertion order must not matter");
    }

    #[test]
    fn one_ulp_of_confidence_is_detected() {
        let a = result(&[(0, 0, 1, 0.5)], &[]);
        let b = result(&[(0, 0, 1, f64::from_bits(0.5f64.to_bits() + 1))], &[]);
        let diff = ResultFingerprint::of(&a)
            .diff(&ResultFingerprint::of(&b))
            .expect("one ulp apart");
        assert!(diff.contains("cell (o0, a0)"), "{diff}");
    }

    #[test]
    fn trust_difference_is_located() {
        let a = result(&[], &[0.5, 0.5]);
        let b = result(&[], &[0.5, 0.5 + 1e-16]);
        let diff = ResultFingerprint::of(&a)
            .diff(&ResultFingerprint::of(&b))
            .expect("trust differs");
        assert!(diff.contains("source trust [1]"), "{diff}");
    }

    #[test]
    fn digest_follows_the_bits() {
        let a = result(&[(0, 0, 1, 0.5), (1, 0, 2, 0.25)], &[0.1, 0.9]);
        let b = result(&[(1, 0, 2, 0.25), (0, 0, 1, 0.5)], &[0.1, 0.9]);
        let c = result(&[(0, 0, 1, 0.5), (1, 0, 2, 0.25)], &[0.1, 0.9 + 1e-16]);
        let digest = |r: &TruthResult| ResultFingerprint::of(r).digest();
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn negative_zero_is_not_positive_zero() {
        // Bit identity is stricter than numeric equality — by design.
        let a = result(&[(0, 0, 1, 0.0)], &[]);
        let b = result(&[(0, 0, 1, -0.0)], &[]);
        assert_ne!(ResultFingerprint::of(&a), ResultFingerprint::of(&b));
    }
}
