//! Incremental truth discovery: delta ingestion with dirty-attribute
//! recomputation.
//!
//! [`TdacSession`] keeps a TD-AC pipeline alive across claim batches.
//! Where [`crate::Tdac::run`] recomputes everything from scratch, the
//! session maintains the expensive intermediates and recomputes only
//! what a batch actually touched:
//!
//! * **Truth vectors** (Eq. 1) — new attributes append rows, new objects
//!   append `(object, source)` columns at the tail (the column index is
//!   `object · n_sources + source`, so only new *sources* reshuffle the
//!   space), and only *dirty* attribute rows are rescattered against the
//!   fresh reference truth.
//! * **The shared distance matrix** — updated with
//!   [`clustering::DistanceOptions::update_pairwise`], which
//!   re-evaluates only pairs with a dirty endpoint and copies every
//!   clean entry bit-for-bit.
//! * **Per-group base runs** — a group whose attributes are all clean
//!   (and whose source count is unchanged) reuses the cached
//!   [`TruthResult`] partial from the previous ingest instead of
//!   re-running the base algorithm; reuse is counted on
//!   [`Counter::PartitionsReused`].
//!
//! An attribute is **dirty** when the batch appended a claim touching it
//! (claim-dirty) *or* when the new reference truth changed any of its
//! cell predictions as a knock-on effect (reference-dirty) — both kinds
//! are detected per ingest and counted on [`Counter::DirtyAttributes`].
//!
//! The k-sweep itself is governed by a [`RepartitionPolicy`]:
//! [`RepartitionPolicy::Always`] re-sweeps every ingest and makes the
//! session's outcome **bit-identical** to a from-scratch
//! [`crate::Tdac::run`] on the accumulated claim set (the differential
//! oracle in `td-verify` gates exactly this, across thread counts and
//! kernel policies); [`RepartitionPolicy::Never`] pins the partition;
//! [`RepartitionPolicy::OnDrift`] pins it until the pinned grouping's
//! silhouette — recomputed each ingest from the maintained distances —
//! drops more than a threshold below its value at pin time, then
//! re-sweeps (counted on [`Counter::DriftRepartitions`]). New attributes
//! force a re-sweep under every policy (the pinned partition does not
//! cover them), and new sources force a full rebuild of vectors and
//! distances (every column index shifts — the honest fallback).
//!
//! The session accepts every dense-path [`TdacConfig`], including
//! [`td_obs::ExecutionLimits`] (each ingest is budgeted like one run)
//! and observers; `missing_aware` configs are rejected up front because
//! the masked pipeline has no incremental maintenance rules yet.
//! See `docs/STREAMING.md` for the full contract.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use clustering::{silhouette_paper_dist, BitMatrix, Rows};
use serde::{Deserialize, Serialize};
use td_algorithms::{TruthDiscovery, TruthResult};
use td_model::{
    AttributeId, ClaimBatch, Dataset, DeltaDataset, DeltaSummary, ModelError,
};
use td_obs::{Budget, Counter, Degradation, Observer};
use td_store::DatasetStore;

use crate::config::TdacConfig;
use crate::partition::AttributePartition;
use crate::tdac::{
    exhausted, half_pairs, merge_partials, per_group_partials, run_spine, select_partition,
    store_seed, sweep, PartitionedModel, TdacError, TdacOutcome, Verdict,
};
use crate::truth_vectors::{rescatter_rows, truth_bits, truth_bits_from_result};

/// When an ingest re-runs the silhouette k-sweep instead of keeping the
/// pinned attribute partition. Independent of the policy, new
/// attributes always force a re-sweep (the pin does not cover them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepartitionPolicy {
    /// Re-sweep on every ingest. Most expensive, but the outcome is
    /// bit-identical to a from-scratch [`crate::Tdac::run`] on the
    /// accumulated claim set — the mode the differential oracle gates.
    Always,
    /// Keep the pinned partition forever; only the per-group runs for
    /// dirty groups are recomputed. Cheapest, blind to drift.
    Never,
    /// Keep the pinned partition until its silhouette (recomputed each
    /// ingest from the maintained distance matrix) falls more than the
    /// given threshold below the value it had when pinned, then
    /// re-sweep. The threshold must be finite and non-negative.
    OnDrift(f64),
}

/// Errors from [`TdacSession`]: either the model layer rejected the
/// data (conflicting claim, degenerate dataset) or the pipeline failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The base dataset or a claim batch was rejected; the accumulated
    /// dataset is unchanged.
    Model(ModelError),
    /// The TD-AC pipeline failed (invalid config, clusterer error,
    /// isolated worker panic).
    Tdac(TdacError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Model(e) => write!(f, "model error: {e}"),
            SessionError::Tdac(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Model(e) => Some(e),
            SessionError::Tdac(e) => Some(e),
        }
    }
}

impl From<ModelError> for SessionError {
    fn from(e: ModelError) -> Self {
        SessionError::Model(e)
    }
}

impl From<TdacError> for SessionError {
    fn from(e: TdacError) -> Self {
        SessionError::Tdac(e)
    }
}

/// What one [`TdacSession::ingest`] did: the model-layer delta, the full
/// dirty set, how much cached state survived, and the fresh outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestReport {
    /// The model-layer view of the batch (appended claims, new
    /// entities, claim-dirty attributes).
    pub summary: DeltaSummary,
    /// Every attribute recomputed this ingest: claim-dirty ones plus
    /// those whose reference predictions changed as a knock-on effect.
    pub dirty_attributes: Vec<AttributeId>,
    /// Whether the k-sweep ran (policy, drift, or new attributes).
    pub repartitioned: bool,
    /// Whether vectors and distances were rebuilt from scratch (new
    /// sources, or no dense state to maintain).
    pub rebuilt: bool,
    /// Groups whose cached partial result was reused verbatim.
    pub groups_reused: usize,
    /// Total groups in the outcome's partition.
    pub groups_total: usize,
    /// The full TD-AC outcome over the accumulated claim set, shared
    /// with the session (cloning the handle copies nothing).
    pub outcome: Arc<TdacOutcome>,
}

/// The maintained intermediates of the unmasked pipeline: the packed
/// Eq. 1 truth vectors and the shared pairwise distance matrix.
#[derive(Debug, Clone)]
struct Derived {
    vectors: BitMatrix,
    dist: Vec<f64>,
}

/// Everything one full (non-incremental) pipeline pass produces — the
/// outcome plus the state the session keeps for the next ingest.
struct PassOutput {
    outcome: TdacOutcome,
    reference: TruthResult,
    derived: Option<Derived>,
    pin: AttributePartition,
    pin_is_fallback: bool,
    silhouette_at_pin: f64,
    /// `(group attributes, partial result)` pairs to seed the reuse
    /// cache; empty on degraded passes (the pruned cache survives).
    partials: Vec<(Vec<AttributeId>, TruthResult)>,
    groups_reused: usize,
}

struct IngestStats {
    outcome: TdacOutcome,
    dirty: Vec<AttributeId>,
    reused: usize,
    repartitioned: bool,
    rebuilt: bool,
}

/// An incremental TD-AC engine: ingests claim batches and maintains the
/// pipeline's intermediates instead of recomputing them. See the module
/// docs for the maintenance rules and the identity contract.
///
/// Cloning snapshots the whole session (dataset, caches, pin): a
/// service can fork a what-if session, feed it speculative batches, and
/// discard it without touching the live one.
#[derive(Clone)]
pub struct TdacSession<B> {
    base: B,
    config: TdacConfig,
    policy: RepartitionPolicy,
    delta: DeltaDataset,
    reference: TruthResult,
    derived: Option<Derived>,
    pin: AttributePartition,
    pin_is_fallback: bool,
    silhouette_at_pin: f64,
    cache: HashMap<Vec<AttributeId>, TruthResult>,
    outcome: Arc<TdacOutcome>,
}

impl<B: TruthDiscovery + Sync> TdacSession<B> {
    /// Starts a session: validates the config and base dataset, runs the
    /// initial full pipeline (bit-identical to [`crate::Tdac::run`]),
    /// and pins the selected partition.
    ///
    /// # Errors
    /// [`SessionError::Tdac`] with [`TdacError::InvalidConfig`] for
    /// `missing_aware` configs (no incremental maintenance rules exist
    /// for the masked pipeline) or a non-finite/negative drift
    /// threshold; [`SessionError::Model`] for degenerate base datasets;
    /// any pipeline error from the initial run.
    pub fn start(
        base: B,
        config: TdacConfig,
        policy: RepartitionPolicy,
        dataset: Dataset,
    ) -> Result<Self, SessionError> {
        Self::start_inner(base, config, policy, dataset, None)
    }

    /// Starts a session from a store-backed dataset.
    ///
    /// When the store carries a [`td_store::TruthPage`] for this base
    /// algorithm's dense pipeline whose dimensions match the dataset,
    /// the initial full pass reuses the page's reference truth instead
    /// of re-running the base algorithm — the build phase a stream
    /// restart would otherwise repeat. The resulting session state is
    /// bit-identical to [`TdacSession::start`] on the same dataset
    /// because the page stores the reference verbatim and the truth
    /// vectors are rescattered deterministically from it. A missing or
    /// mismatched page falls back to the from-scratch start.
    pub fn start_store(
        base: B,
        config: TdacConfig,
        policy: RepartitionPolicy,
        store: &DatasetStore,
    ) -> Result<Self, SessionError> {
        let seed = store_seed(store, base.name(), false).map(|p| p.reference.clone());
        Self::start_inner(base, config, policy, store.dataset.clone(), seed)
    }

    fn start_inner(
        base: B,
        config: TdacConfig,
        policy: RepartitionPolicy,
        dataset: Dataset,
        seed: Option<TruthResult>,
    ) -> Result<Self, SessionError> {
        if config.missing_aware {
            return Err(SessionError::Tdac(TdacError::InvalidConfig(
                "the incremental session supports only the dense Eq. 1 pipeline; \
                 missing_aware mode has no incremental maintenance rules yet"
                    .to_string(),
            )));
        }
        if config.backend.is_sharded() {
            return Err(SessionError::Tdac(TdacError::InvalidConfig(
                "config.backend is Sharded: the incremental session executes in-process \
                 only — hand this config to td_shard::ShardRunner (or `tdc shard`) for \
                 batch runs instead"
                    .to_string(),
            )));
        }
        if let RepartitionPolicy::OnDrift(threshold) = policy {
            if !threshold.is_finite() || threshold < 0.0 {
                return Err(SessionError::Tdac(TdacError::InvalidConfig(format!(
                    "drift threshold must be finite and non-negative, got {threshold}"
                ))));
            }
        }
        let delta = DeltaDataset::new(dataset)?;
        let cache = HashMap::new();
        let (mut pass, profile) = run_spine(&config, |obs, budget| {
            pass_full(&base, &config, delta.current(), seed, &cache, obs, budget)
        })?;
        pass.outcome.profile = profile;
        Ok(Self {
            base,
            config,
            policy,
            delta,
            reference: pass.reference,
            derived: pass.derived,
            pin: pass.pin,
            pin_is_fallback: pass.pin_is_fallback,
            silhouette_at_pin: pass.silhouette_at_pin,
            cache: pass.partials.into_iter().collect(),
            outcome: Arc::new(pass.outcome),
        })
    }

    /// Ingests one claim batch: appends it to the accumulated dataset
    /// (stable entity ids, append-only conflict discipline), recomputes
    /// the dirty attributes, and returns the fresh outcome with an
    /// account of how much cached state survived.
    ///
    /// Under [`RepartitionPolicy::Always`] the returned outcome is
    /// bit-identical to [`crate::Tdac::run`] on the accumulated claim
    /// set. On [`SessionError::Model`] the session (dataset included)
    /// is unchanged; on [`SessionError::Tdac`] the dataset keeps the
    /// batch and the maintained intermediates are conservatively
    /// invalidated, so the next ingest rebuilds what it needs.
    pub fn ingest(&mut self, batch: &ClaimBatch) -> Result<IngestReport, SessionError> {
        let summary = self.delta.apply(batch)?;
        // The spine reads the config while the body mutates the session.
        let config = self.config.clone();
        let (mut stats, profile) =
            match run_spine(&config, |obs, budget| self.ingest_inner(&summary, obs, budget)) {
                Ok(done) => done,
                Err(e) => {
                    // A failure may have interrupted state maintenance, or
                    // left state built for the dataset before this batch:
                    // invalidate the incremental intermediates so the next
                    // ingest rebuilds from the (consistent) dataset.
                    self.derived = None;
                    self.cache.clear();
                    return Err(e.into());
                }
            };
        stats.outcome.profile = profile;
        self.outcome = Arc::new(stats.outcome);
        Ok(IngestReport {
            groups_total: self.outcome.partition.len(),
            outcome: Arc::clone(&self.outcome),
            summary,
            dirty_attributes: stats.dirty,
            repartitioned: stats.repartitioned,
            rebuilt: stats.rebuilt,
            groups_reused: stats.reused,
        })
    }

    fn ingest_inner(
        &mut self,
        summary: &DeltaSummary,
        obs: &Observer,
        budget: Option<&Budget>,
    ) -> Result<IngestStats, TdacError> {
        let Self {
            base,
            config,
            policy,
            delta,
            reference,
            derived,
            pin,
            pin_is_fallback,
            silhouette_at_pin,
            cache,
            outcome: _,
        } = self;
        let dataset = delta.current();
        let view = dataset.view_all();
        let attrs = view.attributes().to_vec();
        let n = attrs.len();

        // New sources shift every (object, source) column index, and a
        // session without dense state (previous pass was a small-|A|
        // fallback) has nothing to maintain: both rebuild from scratch.
        let rebuild = derived.is_none() || summary.new_sources > 0;

        // Reference truth + the dirty set: claim-dirty attributes from
        // the batch, plus attributes whose reference predictions changed
        // as a knock-on effect. Rows of dirty attributes are then
        // rescattered in place (the incremental path only).
        let (new_reference, dirty, old_n) = {
            let _s = obs.span("truth_vectors");
            let new_reference = base.discover_observed(&view, obs);
            let mut dirty_flag = vec![false; dataset.n_attributes()];
            for a in &summary.dirty_attributes {
                dirty_flag[a.index()] = true;
            }
            for cell in view.cells() {
                if dirty_flag[cell.attribute.index()] {
                    continue;
                }
                if new_reference.prediction(cell.object, cell.attribute)
                    != reference.prediction(cell.object, cell.attribute)
                {
                    dirty_flag[cell.attribute.index()] = true;
                }
            }
            let dirty: Vec<AttributeId> =
                attrs.iter().copied().filter(|a| dirty_flag[a.index()]).collect();
            obs.incr(Counter::DirtyAttributes, dirty.len() as u64);

            let old_n = if rebuild {
                0
            } else {
                let d = derived.as_mut().expect("incremental path has dense state");
                let old_n = d.vectors.n_rows();
                // New attributes append zero rows (rescattered below: they
                // arrive with claims). New objects append their block of
                // `n_sources` columns at the tail, since the column index is
                // `object · n_sources + source`, so every existing bit keeps
                // its coordinate.
                d.vectors.append_zero_rows(n - old_n);
                let target_cols = dataset.n_objects() * dataset.n_sources();
                d.vectors.append_cols(target_cols - d.vectors.n_cols());
                rescatter_rows(&mut d.vectors, &view, &new_reference, &dirty);
                old_n
            };
            (new_reference, dirty, old_n)
        };

        // Cached per-group partials survive only for groups the batch
        // could not have changed: prune dirty ones now, before any
        // lookup; a changed source count invalidates everything (trust
        // vectors change length).
        if summary.new_sources > 0 {
            cache.clear();
        } else if !dirty.is_empty() {
            cache.retain(|group, _| !group.iter().any(|a| dirty.binary_search(a).is_ok()));
        }

        if rebuild {
            let pass =
                pass_full(&*base, config, dataset, Some(new_reference), cache, obs, budget)?;
            let reused = pass.groups_reused;
            let out = adopt(
                pass,
                reference,
                derived,
                pin,
                pin_is_fallback,
                silhouette_at_pin,
                cache,
            );
            return Ok(IngestStats {
                outcome: out,
                dirty,
                reused,
                repartitioned: true,
                rebuilt: true,
            });
        }
        *reference = new_reference;

        // Distance maintenance: only pairs with a dirty endpoint are
        // re-evaluated; budget probes mirror the batch pipeline's
        // boundaries, pre-charging just the re-evaluated pairs (the
        // whole point of the incremental path).
        let d = derived.as_mut().expect("incremental path has dense state");
        let dirty_rows: Vec<usize> = dirty.iter().map(|a| a.index()).collect();
        let recomputed = half_pairs(n) - half_pairs(n - dirty_rows.len());
        if let Some(deg) = exhausted(budget, "truth_vectors", recomputed) {
            // The distance matrix was not updated; drop the dense state
            // so the next ingest rebuilds instead of trusting it.
            *derived = None;
            let out = TdacOutcome::whole(reference.clone(), &attrs, Vec::new(), Some(deg));
            return Ok(IngestStats {
                outcome: out,
                dirty,
                reused: 0,
                repartitioned: false,
                rebuilt: false,
            });
        }
        {
            let _s = obs.span("distance_matrix");
            obs.incr(Counter::DistCacheMisses, 1);
            let updated = config.distance_options(obs).update_pairwise(
                &d.dist,
                old_n,
                &d.vectors,
                config.metric.as_metric(),
                &dirty_rows,
            );
            d.dist = updated;
        }

        // Partition decision. The pinned grouping's silhouette is
        // recomputed from the maintained distances whenever the pin is a
        // real (multi-group) partition — it is both the drift signal and
        // the silhouette reported on pinned outcomes.
        let forced = summary.new_attributes > 0;
        // A pin that does not cover the new attributes cannot be scored
        // (forced re-sweep replaces it regardless).
        let multi = !forced && !*pin_is_fallback && pin.len() >= 2;
        let current_sil = if multi {
            let assignments = assignments_of(pin, &attrs);
            silhouette_paper_dist(&d.dist, n, &assignments)
        } else {
            0.0
        };
        let (resweep, drift) = match *policy {
            RepartitionPolicy::Always => (true, false),
            RepartitionPolicy::Never => (forced, false),
            RepartitionPolicy::OnDrift(threshold) => {
                if forced {
                    (true, false)
                } else if multi && *silhouette_at_pin - current_sil > threshold {
                    (true, true)
                } else {
                    (false, false)
                }
            }
        };

        if resweep {
            if drift {
                obs.incr(Counter::DriftRepartitions, 1);
            }
            let din = derived.take().expect("incremental path has dense state");
            let pass = sweep_and_finish(
                &*base,
                config,
                dataset,
                &attrs,
                din,
                reference.clone(),
                cache,
                obs,
                budget,
            )?;
            let reused = pass.groups_reused;
            let out = adopt(
                pass,
                reference,
                derived,
                pin,
                pin_is_fallback,
                silhouette_at_pin,
                cache,
            );
            return Ok(IngestStats {
                outcome: out,
                dirty,
                reused,
                repartitioned: true,
                rebuilt: false,
            });
        }

        // Pinned path: per-group runs under the pinned partition, with
        // clean groups served from the cache. Refuse to start on an
        // exhausted budget, exactly like the batch pipeline.
        if let Some(b) = budget {
            if let Some(deg) = b.check("per_group_run") {
                let out = TdacOutcome::whole(reference.clone(), &attrs, Vec::new(), Some(deg));
                return Ok(IngestStats {
                    outcome: out,
                    dirty,
                    reused: 0,
                    repartitioned: false,
                    rebuilt: false,
                });
            }
        }
        // The cache is rebuilt from this ingest's partials below (and
        // cleared on an error), so clean groups' partials move out of it
        // and back in instead of being copied.
        let groups = pin.groups().to_vec();
        let cached: Vec<Option<TruthResult>> = groups.iter().map(|g| cache.remove(g)).collect();
        let reused = cached.iter().flatten().count();
        let partials = per_group_partials(&*base, dataset, &groups, cached, obs)?;
        let result = merge_partials(&partials, obs);
        *cache = groups.into_iter().zip(partials).collect();
        let out = TdacOutcome {
            result,
            partition: pin.clone(),
            silhouette: current_sil,
            k_scores: Vec::new(),
            fallback: *pin_is_fallback,
            degradation: None,
            profile: None,
        };
        Ok(IngestStats {
            outcome: out,
            dirty,
            reused,
            repartitioned: false,
            rebuilt: false,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &TdacConfig {
        &self.config
    }

    /// The active repartition policy.
    pub fn policy(&self) -> RepartitionPolicy {
        self.policy
    }

    /// The accumulated dataset (base plus every ingested batch).
    pub fn dataset(&self) -> &Dataset {
        self.delta.current()
    }

    /// The latest outcome (from [`TdacSession::start`] or the most
    /// recent successful [`TdacSession::ingest`]).
    pub fn outcome(&self) -> &TdacOutcome {
        &self.outcome
    }

    /// [`TdacSession::outcome`] as a shared handle, for holders that
    /// outlive the borrow (a served snapshot): cloning it copies nothing.
    pub fn shared_outcome(&self) -> Arc<TdacOutcome> {
        Arc::clone(&self.outcome)
    }

    /// The currently pinned attribute partition.
    pub fn partition(&self) -> &AttributePartition {
        &self.pin
    }

    /// Number of batches ingested since the base dataset.
    pub fn batches_applied(&self) -> usize {
        self.delta.batches_applied()
    }

    /// Total claims appended since the base dataset.
    pub fn claims_appended(&self) -> usize {
        self.delta.claims_appended()
    }

    /// Replaces the execution limits applied to subsequent ingests.
    ///
    /// A serving front end maps each request's remaining deadline onto
    /// the session before ingesting, so one slow batch degrades (flagged
    /// best-so-far outcome) instead of stalling the queue behind it.
    /// Only the limits change; observer, parallelism and every pipeline
    /// knob are untouched, preserving the bit-identity contract for
    /// work that completes within budget.
    ///
    /// # Errors
    /// [`TdacError::InvalidConfig`] when the limits fail
    /// [`td_obs::ExecutionLimits::validate`] (zero budgets); the
    /// session keeps its previous limits.
    pub fn set_limits(
        &mut self,
        limits: td_obs::ExecutionLimits,
    ) -> Result<(), TdacError> {
        limits
            .validate()
            .map_err(TdacError::InvalidConfig)?;
        self.config.limits = limits;
        Ok(())
    }
}

impl<B: fmt::Debug> fmt::Debug for TdacSession<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TdacSession")
            .field("base", &self.base)
            .field("policy", &self.policy)
            .field("batches_applied", &self.delta.batches_applied())
            .field("claims_appended", &self.delta.claims_appended())
            .field("pin", &self.pin)
            .field("pin_is_fallback", &self.pin_is_fallback)
            .field("silhouette_at_pin", &self.silhouette_at_pin)
            .finish_non_exhaustive()
    }
}

/// Cluster assignment per attribute (in `attrs` order) induced by a
/// partition covering exactly those attributes.
fn assignments_of(pin: &AttributePartition, attrs: &[AttributeId]) -> Vec<usize> {
    let max = attrs.iter().map(|a| a.index()).max().unwrap_or(0);
    let mut group_of = vec![usize::MAX; max + 1];
    for (gi, group) in pin.groups().iter().enumerate() {
        for a in group {
            if a.index() <= max {
                group_of[a.index()] = gi;
            }
        }
    }
    attrs.iter().map(|a| group_of[a.index()]).collect()
}

/// Installs a pass's outputs into the session state and returns the
/// outcome. Degraded passes carry no partials; the (already pruned)
/// cache then survives as-is.
fn adopt(
    pass: PassOutput,
    reference: &mut TruthResult,
    derived: &mut Option<Derived>,
    pin: &mut AttributePartition,
    pin_is_fallback: &mut bool,
    silhouette_at_pin: &mut f64,
    cache: &mut HashMap<Vec<AttributeId>, TruthResult>,
) -> TdacOutcome {
    *reference = pass.reference;
    *derived = pass.derived;
    *pin = pass.pin;
    *pin_is_fallback = pass.pin_is_fallback;
    *silhouette_at_pin = pass.silhouette_at_pin;
    if !pass.partials.is_empty() {
        *cache = pass.partials.into_iter().collect();
    }
    pass.outcome
}

/// A pass answering with the reference under the un-partitioned whole.
/// A fallback seeds the reuse cache with the reference as the whole
/// group's partial (same algorithm, same view, same bits); a degraded
/// pass carries no partials, so the (already pruned) cache survives.
fn whole_pass(
    reference: TruthResult,
    attrs: &[AttributeId],
    k_scores: Vec<(usize, f64)>,
    degradation: Option<Degradation>,
    derived: Option<Derived>,
) -> PassOutput {
    let partials = match degradation {
        None => vec![(attrs.to_vec(), reference.clone())],
        Some(_) => Vec::new(),
    };
    let outcome = TdacOutcome::whole(reference.clone(), attrs, k_scores, degradation);
    PassOutput {
        pin: outcome.partition.clone(),
        outcome,
        reference,
        derived,
        pin_is_fallback: true,
        silhouette_at_pin: 0.0,
        partials,
        groups_reused: 0,
    }
}

/// One full pipeline pass over the accumulated dataset, mirroring
/// [`crate::Tdac::run_view`]'s dense path statement-for-statement (the
/// shared sweep/scan/per-group functions make the hot parts literally
/// the same code). `reference` skips the base run when the caller
/// already computed it this ingest; `cache` seeds per-group reuse.
fn pass_full(
    base: &(dyn TruthDiscovery + Sync),
    config: &TdacConfig,
    dataset: &Dataset,
    reference: Option<TruthResult>,
    cache: &HashMap<Vec<AttributeId>, TruthResult>,
    obs: &Observer,
    budget: Option<&Budget>,
) -> Result<PassOutput, TdacError> {
    let view = dataset.view_all();
    let attrs = view.attributes().to_vec();
    if attrs.is_empty() {
        return Err(TdacError::NoAttributes);
    }
    if config.k_range(attrs.len()).is_empty() {
        // Mirror the batch pipeline's small-|A| fallback: one
        // un-partitioned base run (the reference itself when already
        // computed — same algorithm, same view, same bits).
        let reference = reference.unwrap_or_else(|| {
            let _s = obs.span("per_group_run");
            base.discover_observed(&view, obs)
        });
        return Ok(whole_pass(reference, &attrs, Vec::new(), None, None));
    }

    let (vectors, reference) = {
        let _s = obs.span("truth_vectors");
        match reference {
            Some(r) => (truth_bits_from_result(&view, &r), r),
            None => truth_bits(base, &view, obs),
        }
    };
    if let Some(deg) = exhausted(budget, "truth_vectors", half_pairs(attrs.len())) {
        return Ok(whole_pass(reference, &attrs, Vec::new(), Some(deg), None));
    }
    let dist = {
        let _s = obs.span("distance_matrix");
        obs.incr(Counter::DistCacheMisses, 1);
        config
            .distance_options(obs)
            .pairwise(&vectors, config.metric.as_metric())
    };
    sweep_and_finish(
        base,
        config,
        dataset,
        &attrs,
        Derived { vectors, dist },
        reference,
        cache,
        obs,
        budget,
    )
}

/// The silhouette k-sweep plus the per-group finish, over
/// already-maintained truth vectors and distances. Shared by the full
/// pass and the incremental re-sweep; the sweep and the selection
/// policy are [`crate::Tdac::run_view`]'s own. Step 4 + 5 are
/// cache-aware: clean groups reuse their cached partial, dirty ones run
/// fresh, the merge is unchanged.
#[allow(clippy::too_many_arguments)]
fn sweep_and_finish(
    base: &(dyn TruthDiscovery + Sync),
    config: &TdacConfig,
    dataset: &Dataset,
    attrs: &[AttributeId],
    derived: Derived,
    reference: TruthResult,
    cache: &HashMap<Vec<AttributeId>, TruthResult>,
    obs: &Observer,
    budget: Option<&Budget>,
) -> Result<PassOutput, TdacError> {
    let ks = config.k_range(attrs.len());
    let Derived { vectors, dist } = &derived;
    let opts = config.distance_options(obs);
    let evals = sweep(
        config,
        config.method,
        Rows::Packed(vectors),
        dist,
        &ks,
        &opts,
        budget,
    );
    let PartitionedModel { reference, partition, silhouette, k_scores, degradation } =
        match select_partition(config, attrs, &ks, evals, budget, reference)? {
            Verdict::Partition(model) => model,
            // The batch pipeline's floor fallback re-runs the base
            // algorithm on the full view; that run is bit-identical to
            // the reference, which is reused instead.
            Verdict::Floor(reference, k_scores) => {
                return Ok(whole_pass(reference, attrs, k_scores, None, Some(derived)))
            }
            Verdict::Degraded(reference, k_scores, deg) => {
                return Ok(whole_pass(reference, attrs, k_scores, Some(deg), Some(derived)))
            }
        };
    let groups = partition.groups().to_vec();
    let cached: Vec<Option<TruthResult>> = groups.iter().map(|g| cache.get(g).cloned()).collect();
    let groups_reused = cached.iter().flatten().count();
    let partials = per_group_partials(base, dataset, &groups, cached, obs)?;
    let result = merge_partials(&partials, obs);
    Ok(PassOutput {
        outcome: TdacOutcome {
            result,
            partition: partition.clone(),
            silhouette,
            k_scores,
            fallback: false,
            degradation,
            profile: None,
        },
        partials: groups.into_iter().zip(partials).collect(),
        reference,
        derived: Some(derived),
        pin: partition,
        pin_is_fallback: false,
        silhouette_at_pin: silhouette,
        groups_reused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accugen::run_partition;
    use crate::tdac::Tdac;
    use td_algorithms::MajorityVote;
    use td_model::{DatasetBuilder, Value};

    /// The planted two-group fixture from `tdac::tests`: sources g1, g2
    /// are right on a0..a2, sources h1, h2 on a3..a5.
    fn correlated_dataset() -> Dataset {
        let mut b = DatasetBuilder::new();
        for o in 0..6i64 {
            let obj = format!("o{o}");
            for ai in 0..3u32 {
                let a = format!("a{ai}");
                b.claim("g1", &obj, &a, Value::int(o)).unwrap();
                b.claim("g2", &obj, &a, Value::int(o)).unwrap();
                b.claim("h1", &obj, &a, Value::int(1000 + o + ai as i64)).unwrap();
                b.claim("h2", &obj, &a, Value::int(2000 + o + ai as i64)).unwrap();
            }
            for ai in 3..6u32 {
                let a = format!("a{ai}");
                b.claim("g1", &obj, &a, Value::int(3000 + o + ai as i64)).unwrap();
                b.claim("g2", &obj, &a, Value::int(4000 + o + ai as i64)).unwrap();
                b.claim("h1", &obj, &a, Value::int(o)).unwrap();
                b.claim("h2", &obj, &a, Value::int(o)).unwrap();
            }
        }
        b.build()
    }

    fn assert_same_outcome(session: &TdacOutcome, batch: &TdacOutcome) {
        assert_eq!(session.partition, batch.partition);
        assert_eq!(session.silhouette.to_bits(), batch.silhouette.to_bits());
        assert_eq!(session.k_scores.len(), batch.k_scores.len());
        for (&(k1, s1), &(k2, s2)) in session.k_scores.iter().zip(&batch.k_scores) {
            assert_eq!(k1, k2);
            assert_eq!(s1.to_bits(), s2.to_bits());
        }
        assert_eq!(session.fallback, batch.fallback);
        assert_eq!(session.result.iterations, batch.result.iterations);
        assert_eq!(session.result.len(), batch.result.len());
    }

    fn assert_same_predictions(dataset: &Dataset, a: &TruthResult, b: &TruthResult) {
        let view = dataset.view_all();
        for cell in view.cells() {
            assert_eq!(
                a.prediction(cell.object, cell.attribute),
                b.prediction(cell.object, cell.attribute),
                "prediction mismatch at {:?}/{:?}",
                cell.object,
                cell.attribute
            );
        }
    }

    #[test]
    fn start_store_matches_start_and_skips_the_reference_run() {
        let d = correlated_dataset();
        let store = Tdac::new(TdacConfig::default()).pack(&MajorityVote, &d);
        let plain =
            TdacSession::start(MajorityVote, TdacConfig::default(), RepartitionPolicy::Always, d.clone())
                .unwrap();
        let run_seeded = || {
            let config = TdacConfig {
                observer: Observer::enabled(),
                ..Default::default()
            };
            TdacSession::start_store(MajorityVote, config, RepartitionPolicy::Always, &store)
                .unwrap()
        };
        let seeded = run_seeded();
        assert_same_outcome(seeded.outcome(), plain.outcome());
        assert_same_predictions(&d, &seeded.outcome().result, &plain.outcome().result);
        // The seeded start rescatters vectors from the page's reference
        // instead of re-running the base algorithm over the full view:
        // fewer recorded fixpoint iterations than a fresh observed start.
        let fresh_obs = {
            let config = TdacConfig {
                observer: Observer::enabled(),
                ..Default::default()
            };
            TdacSession::start(MajorityVote, config, RepartitionPolicy::Always, d.clone()).unwrap()
        };
        let iters = |s: &TdacSession<MajorityVote>| {
            s.outcome()
                .profile
                .as_ref()
                .unwrap()
                .counter("fixpoint_iterations")
                .unwrap_or(0)
        };
        assert!(iters(&seeded) < iters(&fresh_obs));
    }

    #[test]
    fn rejects_missing_aware_and_bad_drift_thresholds() {
        let d = correlated_dataset();
        let cfg = TdacConfig {
            missing_aware: true,
            ..Default::default()
        };
        let err = TdacSession::start(MajorityVote, cfg, RepartitionPolicy::Always, d.clone())
            .unwrap_err();
        assert!(matches!(err, SessionError::Tdac(TdacError::InvalidConfig(_))));
        for t in [f64::NAN, f64::INFINITY, -0.5] {
            let err = TdacSession::start(
                MajorityVote,
                TdacConfig::default(),
                RepartitionPolicy::OnDrift(t),
                d.clone(),
            )
            .unwrap_err();
            assert!(matches!(err, SessionError::Tdac(TdacError::InvalidConfig(_))), "{t}");
        }
    }

    #[test]
    fn start_matches_batch_run() {
        let d = correlated_dataset();
        let oracle = Tdac::new(TdacConfig::default()).run(&MajorityVote, &d).unwrap();
        let session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Always,
            d.clone(),
        )
        .unwrap();
        assert!(!session.outcome().fallback);
        assert_same_outcome(session.outcome(), &oracle);
        assert_same_predictions(&d, &session.outcome().result, &oracle.result);
    }

    #[test]
    fn always_policy_ingest_matches_batch_recompute() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Always,
            correlated_dataset(),
        )
        .unwrap();
        // A new object claimed on one attribute: appends pair columns
        // and dirties a0 only, yet under Always the sweep re-runs.
        let mut batch = ClaimBatch::new();
        batch
            .claim("g1", "o6", "a0", Value::int(6))
            .claim("g2", "o6", "a0", Value::int(6))
            .claim("h1", "o6", "a0", Value::int(1006));
        let report = session.ingest(&batch).unwrap();
        assert!(report.repartitioned);
        assert!(!report.rebuilt);
        assert_eq!(report.summary.new_objects, 1);
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_same_outcome(session.outcome(), &oracle);
        assert_same_predictions(session.dataset(), &session.outcome().result, &oracle.result);
    }

    #[test]
    fn pinned_ingest_reuses_clean_groups_and_matches_run_partition() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Never,
            correlated_dataset(),
        )
        .unwrap();
        assert_eq!(session.partition().len(), 2);
        let pin = session.partition().clone();
        let mut batch = ClaimBatch::new();
        batch.claim("g1", "o6", "a0", Value::int(6));
        let report = session.ingest(&batch).unwrap();
        assert!(!report.repartitioned);
        assert!(!report.rebuilt);
        assert_eq!(report.groups_total, 2);
        assert_eq!(report.groups_reused, 1, "the a3..a5 group is clean");
        assert_eq!(report.dirty_attributes.len(), 1);
        assert_eq!(session.partition(), &pin);
        // The pinned outcome must equal a from-scratch per-group replay
        // under the same partition (the reduced oracle).
        let mut oracle =
            run_partition(&MajorityVote, session.dataset(), &pin, &Observer::default());
        oracle.iterations = 1;
        assert_eq!(session.outcome().result.iterations, 1);
        assert_same_predictions(session.dataset(), &session.outcome().result, &oracle);
    }

    #[test]
    fn noop_batch_reuses_every_group() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Never,
            correlated_dataset(),
        )
        .unwrap();
        let mut batch = ClaimBatch::new();
        batch.claim("g1", "o0", "a0", Value::int(0)); // exact duplicate
        let report = session.ingest(&batch).unwrap();
        assert!(report.summary.is_noop());
        assert!(report.dirty_attributes.is_empty());
        assert_eq!(report.groups_reused, report.groups_total);
        assert!(!report.repartitioned);
        assert!(!report.rebuilt);
    }

    #[test]
    fn new_source_forces_full_rebuild() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Never,
            correlated_dataset(),
        )
        .unwrap();
        let mut batch = ClaimBatch::new();
        batch.claim("s9", "o0", "a0", Value::int(0));
        let report = session.ingest(&batch).unwrap();
        assert!(report.rebuilt, "a new source shifts every pair column");
        assert!(report.repartitioned);
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_same_outcome(session.outcome(), &oracle);
        assert_same_predictions(session.dataset(), &session.outcome().result, &oracle.result);
    }

    #[test]
    fn new_attribute_forces_resweep_under_pinned_policy() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Never,
            correlated_dataset(),
        )
        .unwrap();
        let mut batch = ClaimBatch::new();
        for o in 0..6i64 {
            let obj = format!("o{o}");
            batch
                .claim("g1", &obj, "a6", Value::int(5000 + o))
                .claim("g2", &obj, "a6", Value::int(6000 + o))
                .claim("h1", &obj, "a6", Value::int(o))
                .claim("h2", &obj, "a6", Value::int(o));
        }
        let report = session.ingest(&batch).unwrap();
        assert!(report.repartitioned, "the pin does not cover a6");
        assert!(!report.rebuilt);
        assert_eq!(session.partition().n_attributes(), 7);
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_same_outcome(session.outcome(), &oracle);
    }

    #[test]
    fn loose_drift_threshold_stays_pinned() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::OnDrift(10.0),
            correlated_dataset(),
        )
        .unwrap();
        let mut batch = ClaimBatch::new();
        batch.claim("g1", "o6", "a0", Value::int(6));
        let report = session.ingest(&batch).unwrap();
        assert!(!report.repartitioned, "silhouette cannot drop by 10");
        assert!(report.outcome.silhouette > 0.0, "pinned outcomes re-score the pin");
    }

    #[test]
    fn counters_account_for_dirt_reuse_and_drift() {
        let obs = Observer::enabled();
        let cfg = TdacConfig {
            observer: obs.clone(),
            ..Default::default()
        };
        let mut session = TdacSession::start(
            MajorityVote,
            cfg,
            RepartitionPolicy::Never,
            correlated_dataset(),
        )
        .unwrap();
        let mut batch = ClaimBatch::new();
        batch.claim("g1", "o6", "a0", Value::int(6));
        session.ingest(&batch).unwrap();
        assert_eq!(obs.counter_value(Counter::DirtyAttributes), 1);
        assert_eq!(obs.counter_value(Counter::PartitionsReused), 1);
        assert_eq!(obs.counter_value(Counter::DriftRepartitions), 0);
    }

    #[test]
    fn model_error_leaves_the_session_usable() {
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Always,
            correlated_dataset(),
        )
        .unwrap();
        let mut bad = ClaimBatch::new();
        bad.claim("g1", "o0", "a0", Value::int(999)); // contradicts the base
        let err = session.ingest(&bad).unwrap_err();
        assert!(matches!(err, SessionError::Model(_)));
        assert_eq!(session.batches_applied(), 0);

        let mut good = ClaimBatch::new();
        good.claim("g1", "o6", "a0", Value::int(6));
        session.ingest(&good).unwrap();
        assert_eq!(session.batches_applied(), 1);
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_same_outcome(session.outcome(), &oracle);
    }

    #[test]
    fn session_grows_out_of_small_dataset_fallback() {
        // A two-attribute base pins the un-partitioned fallback with no
        // dense state; a batch growing |A| past the sweep threshold must
        // rebuild and partition like a from-scratch run.
        let mut b = DatasetBuilder::new();
        for o in 0..6i64 {
            let obj = format!("o{o}");
            b.claim("g1", &obj, "a0", Value::int(o)).unwrap();
            b.claim("g2", &obj, "a0", Value::int(o)).unwrap();
            b.claim("h1", &obj, "a0", Value::int(1000 + o)).unwrap();
            b.claim("h2", &obj, "a0", Value::int(2000 + o)).unwrap();
            b.claim("g1", &obj, "a3", Value::int(3000 + o)).unwrap();
            b.claim("g2", &obj, "a3", Value::int(4000 + o)).unwrap();
            b.claim("h1", &obj, "a3", Value::int(o)).unwrap();
            b.claim("h2", &obj, "a3", Value::int(o)).unwrap();
        }
        let mut session = TdacSession::start(
            MajorityVote,
            TdacConfig::default(),
            RepartitionPolicy::Always,
            b.build(),
        )
        .unwrap();
        assert!(session.outcome().fallback);

        let mut batch = ClaimBatch::new();
        for o in 0..6i64 {
            let obj = format!("o{o}");
            for ai in [1u32, 2] {
                let a = format!("a{ai}");
                batch
                    .claim("g1", &obj, &a, Value::int(o))
                    .claim("g2", &obj, &a, Value::int(o))
                    .claim("h1", &obj, &a, Value::int(1000 + o + ai as i64))
                    .claim("h2", &obj, &a, Value::int(2000 + o + ai as i64));
            }
            for ai in [4u32, 5] {
                let a = format!("a{ai}");
                batch
                    .claim("g1", &obj, &a, Value::int(3000 + o + ai as i64))
                    .claim("g2", &obj, &a, Value::int(4000 + o + ai as i64))
                    .claim("h1", &obj, &a, Value::int(o))
                    .claim("h2", &obj, &a, Value::int(o));
            }
        }
        let report = session.ingest(&batch).unwrap();
        assert!(report.rebuilt, "no dense state existed to maintain");
        assert!(!session.outcome().fallback);
        assert_eq!(session.partition().len(), 2);
        let oracle = Tdac::new(TdacConfig::default())
            .run(&MajorityVote, session.dataset())
            .unwrap();
        assert_same_outcome(session.outcome(), &oracle);
        assert_same_predictions(session.dataset(), &session.outcome().result, &oracle.result);
    }
}
