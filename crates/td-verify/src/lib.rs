#![warn(missing_docs)]

//! # td-verify — the workspace's verification harness
//!
//! Three independent layers of evidence that the TD-AC stack computes
//! what the paper says, documented in `docs/VERIFICATION.md`:
//!
//! 1. **Differential oracles** ([`oracle`], [`worlds`], [`kernels`]) —
//!    TD-AC checked against the brute-force AccuGenPartition search on
//!    separable micro-worlds where the exact optimum is known, against a
//!    replay of its own chosen partition on any input, against itself at
//!    pinned thread counts (`Threads(1)` / `Threads(2)` / `Threads(8)`),
//!    and against itself under every distance-kernel policy (`Dense` /
//!    `Packed` / `Auto`), all compared through bit-exact
//!    [`fingerprint`]s; [`kmeans`] holds the exact packed k-means path
//!    to the dense Lloyd loop's bits on random binary matrices and the
//!    Exam shape.
//! 2. **Metamorphic invariants** (the `tests/` suites of this crate and
//!    of `clustering` / `td-metrics`) — properties that must hold under
//!    input transformations: relabeling sources/objects, shuffling claim
//!    order, duplicating claims, removing claims (DCR monotonicity).
//! 3. **Paper-conformance goldens** ([`golden`], [`store`],
//!    [`base_runs`]) — committed DS1 preset tables, a committed `.tds`
//!    binary store and every algorithm's base-run fingerprints on six
//!    worlds, all checked bit-exactly by tier-1 and regenerable only
//!    through the explicit `--bless` flow. The store golden additionally gates the
//!    hostile-input contract of the `.tds` decoder (`tests/store.rs`:
//!    corruption matrix, fuzzing, round-trip properties).
//! 4. **Chaos oracles** ([`chaos`], `tests/chaos.rs`) — faults (panics,
//!    stalls, cancellations) injected at phase boundaries through the
//!    observability hook, proving every failure surfaces as a typed
//!    error or a flagged degraded outcome, never an abort or a silently
//!    wrong result, and that the limits layer is bit-invisible when off.
//!
//! The expensive Bell-number oracle cases (`|A|` = 7 / 8, up to 4140
//! partitions per sweep) sit behind the `expensive-oracles` feature so
//! the default test run stays fast; `scripts/verify.sh` turns them on.

pub mod base_runs;
pub mod chaos;
pub mod fingerprint;
pub mod golden;
pub mod kernels;
pub mod kmeans;
pub mod oracle;
pub mod store;
pub mod worlds;

pub use base_runs::{bless_base_runs, check_base_runs, compute_base_runs, BaseRunsGolden};
pub use chaos::ChaosHook;
pub use fingerprint::{assert_bit_identical, OutcomeFingerprint, ResultFingerprint};
pub use golden::{bless_ds1, check_ds1, compute_ds1, Ds1Golden};
pub use store::{bless_ds1_store, check_ds1_store, compute_ds1_store};
pub use kernels::{check_ds1_kernel_parity, check_kernel_outcome_invariance, check_kernel_parity};
pub use worlds::{separable_world, SmallWorld};
