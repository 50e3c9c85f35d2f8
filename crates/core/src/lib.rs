#![warn(missing_docs)]
// Numeric kernels index several parallel arrays in lockstep; iterator
// rewrites obscure them without gain.
#![allow(clippy::needless_range_loop)]
#![allow(clippy::vec_init_then_push)]

//! # tdac-core — Truth Discovery with Attribute Clustering
//!
//! The primary contribution of the TD-AC paper (Tossou & Ba, EDBT 2021),
//! plus the brute-force baseline it improves on.
//!
//! ## The problem
//!
//! When data attributes are *structurally correlated* — sources exhibit
//! the same reliability within groups of attributes but different
//! reliability across groups — running one truth-discovery process over
//! all attributes biases the learned source trust. The fix is to
//! partition the attributes into the correlated groups and run the base
//! algorithm per group (Problem 2 of the paper).
//!
//! ## The TD-AC pipeline (Algorithm 1)
//!
//! 1. run a base algorithm `F` once to get a *reference truth*;
//! 2. build the **attribute truth-vector matrix** (Eq. 1): one row per
//!    attribute, one column per `(object, source)` pair, a `1` where the
//!    source's claim matches the reference truth — see
//!    [`truth_vectors`];
//! 3. sweep `k ∈ [2, |A|-1]`, clustering the rows with k-means and
//!    scoring each partition with the silhouette index (Eqs. 5–7); keep
//!    the best — see [`tdac`];
//! 4. run `F` on each cluster of the winning partition and merge the
//!    partial results.
//!
//! ## The baseline
//!
//! [`accugen`] implements **AccuGenPartition** (Ba et al., WebDB 2015):
//! exhaustive enumeration of *all* set partitions of the attributes
//! (Bell(|A|) of them — see [`partition`]), running `F` on every group of
//! every partition, and selecting by a weighting function over source
//! reliabilities (`Max`, `Avg`) or by ground truth (`Oracle`). Its cost
//! is what motivates TD-AC.
//!
//! ```
//! use td_model::{DatasetBuilder, Value};
//! use td_algorithms::MajorityVote;
//! use tdac_core::{Tdac, TdacConfig};
//!
//! // Two correlated attribute groups: s1/s2 are right on a1, a2;
//! // s3 is right on b1, b2.
//! let mut b = DatasetBuilder::new();
//! for o in ["o1", "o2", "o3"] {
//!     for a in ["a1", "a2"] {
//!         b.claim("s1", o, a, Value::text("good")).unwrap();
//!         b.claim("s2", o, a, Value::text("good")).unwrap();
//!         b.claim("s3", o, a, Value::text("bad")).unwrap();
//!     }
//!     for a in ["b1", "b2"] {
//!         b.claim("s1", o, a, Value::text("bad")).unwrap();
//!         b.claim("s2", o, a, Value::text("oops")).unwrap();
//!         b.claim("s3", o, a, Value::text("good")).unwrap();
//!     }
//! }
//! let dataset = b.build();
//! let outcome = Tdac::new(TdacConfig::default())
//!     .run(&MajorityVote, &dataset)
//!     .unwrap();
//! assert_eq!(outcome.result.len(), 12); // every cell predicted
//! ```

pub mod accugen;
pub mod backend;
pub mod config;
pub mod error;
pub mod masked;
pub mod object_clustering;
pub mod partition;
pub mod query;
pub mod session;
pub mod tdac;
pub mod truth_vectors;

pub use accugen::{
    run_partition, AccuGenError, AccuGenOutcome, AccuGenPartition, Weighting,
};
pub use backend::{ExecutionBackend, RetryPolicy, ShardPlan, ShardStrategy};
pub use config::{
    ClusterMethod, MetricKind, Parallelism, TdacConfig, TdacConfigBuilder,
};
pub use error::TdError;
pub use masked::MaskedTruthVectors;
pub use object_clustering::{ObjectPartition, Tdoc, TdocOutcome};
pub use partition::{bell_number, partitions_iter, AttributePartition, PartitionIter};
pub use query::{Prediction, QueryResponse, SourceTrust, TruthQuery};
pub use session::{IngestReport, RepartitionPolicy, SessionError, TdacSession};
pub use tdac::{ModelSelection, PartitionedModel, Tdac, TdacError, TdacOutcome};
pub use truth_vectors::{truth_vector_set, truth_vector_set_from_result, TruthVectors};

// Re-export the representation-aware distance vocabulary so downstream
// crates can pick kernels without a direct clustering dependency.
pub use clustering::{BitMatrix, DistanceOptions, KernelPolicy, Rows};

// Re-export the persistent dataset-store vocabulary so downstream
// crates can pack and load `.tds` files without a direct td-store
// dependency.
pub use td_store::{DatasetStore, StoreError, TruthPage};

// Re-export the observability + execution-limits vocabulary so
// downstream crates can enable profiling and budgets without a direct
// td-obs dependency.
pub use td_obs::{
    CancelToken, Counter, Degradation, DegradationReason, ExecutionLimits, Observer, PhaseHook,
    RunProfile, ShardFault, WorkCompleted,
};
