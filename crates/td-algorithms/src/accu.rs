//! The Dong–Berti-Équille–Srivastava algorithm family (*Integrating
//! Conflicting Data: The Role of Source Dependence*, VLDB 2009):
//! **Depen**, **Accu** and **AccuSim**.
//!
//! All three share one engine with three orthogonal switches:
//!
//! * **dependence detection** — Bayesian analysis of pairwise source
//!   overlap. For every source pair the engine counts, under the current
//!   truth estimate, the cells where both provide the *same true* value
//!   (`kt`), the *same false* value (`kf`, the smoking gun of copying),
//!   and *different* values (`kd`), then compares the likelihood of that
//!   evidence under independence vs. copying. Votes of likely copiers are
//!   discounted before counting.
//! * **source accuracy** — per-source accuracy `A(s)` re-estimated every
//!   round (Depen keeps it uniform at `1 - ε`; Accu/AccuSim learn it).
//! * **value similarity** — AccuSim adds TruthFinder-style mutual support
//!   between similar values on top of Accu.
//!
//! | Variant | dependence | learned accuracy | similarity |
//! |---|---|---|---|
//! | [`Depen`]   | ✓ | ✗ | ✗ |
//! | [`Accu`]    | ✓ | ✓ | ✗ |
//! | [`AccuSim`] | ✓ | ✓ | ✓ |

use td_model::{DatasetView, SimilarityConfig, ValueSimilarity};

use crate::common::{clamp_unit, effective_n_false, max_abs_diff, softmax, Workspace};
use crate::result::TruthResult;
use crate::traits::TruthDiscovery;

/// Hyper-parameters shared by [`Depen`], [`Accu`] and [`AccuSim`],
/// defaulting to the values of the VLDB 2009 paper.
#[derive(Debug, Clone, Copy)]
pub struct AccuConfig {
    /// Initial source accuracy `A₀` (paper: 0.8).
    pub initial_accuracy: f64,
    /// Assumed number of uniformly-distributed false values per cell,
    /// `n` (paper: 100 in experiments; also the denominator of the
    /// same-false-value probability in dependence detection). The engine
    /// clamps it into `[1, 10¹²]` and counts NaN as 1, for the vote weight
    /// and the copy likelihoods alike, so both stay finite.
    pub n_false: f64,
    /// A-priori probability `α` that two overlapping sources are
    /// dependent (paper: 0.2).
    pub alpha: f64,
    /// Probability `c` that a copier copies a particular value
    /// (paper: 0.8).
    pub copy_rate: f64,
    /// Error rate `ε` used inside the dependence likelihoods (paper: 0.2).
    pub epsilon: f64,
    /// Similarity weight `ρ` for the AccuSim adjustment (paper: 0.5).
    pub similarity_weight: f64,
    /// Value-similarity tuning (AccuSim only).
    pub similarity: SimilarityConfig,
    /// Convergence threshold on the max accuracy change (and prediction
    /// stability for Depen).
    pub tolerance: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for AccuConfig {
    fn default() -> Self {
        Self {
            initial_accuracy: 0.8,
            n_false: 100.0,
            alpha: 0.2,
            copy_rate: 0.8,
            epsilon: 0.2,
            similarity_weight: 0.5,
            similarity: SimilarityConfig::default(),
            tolerance: 1e-4,
            max_iterations: 30,
        }
    }
}

/// Which features of the engine a variant enables (all three variants
/// detect dependence).
#[derive(Debug, Clone, Copy)]
struct Features {
    learn_accuracy: bool,
    similarity: bool,
}

/// Depen: copy detection with uniform source accuracy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Depen {
    /// Engine hyper-parameters.
    pub config: AccuConfig,
}

/// Accu: copy detection plus learned per-source accuracy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Accu {
    /// Engine hyper-parameters.
    pub config: AccuConfig,
}

/// AccuSim: Accu plus value-similarity support.
#[derive(Debug, Clone, Copy, Default)]
pub struct AccuSim {
    /// Engine hyper-parameters.
    pub config: AccuConfig,
}

impl Depen {
    /// Depen with custom hyper-parameters.
    pub fn new(config: AccuConfig) -> Self {
        Self { config }
    }
}

impl Accu {
    /// Accu with custom hyper-parameters.
    pub fn new(config: AccuConfig) -> Self {
        Self { config }
    }
}

impl AccuSim {
    /// AccuSim with custom hyper-parameters.
    pub fn new(config: AccuConfig) -> Self {
        Self { config }
    }
}

impl TruthDiscovery for Depen {
    fn name(&self) -> &'static str {
        "DEPEN"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        run_engine(
            view,
            &self.config,
            Features {
                learn_accuracy: false,
                similarity: false,
            },
        )
    }
}

impl TruthDiscovery for Accu {
    fn name(&self) -> &'static str {
        "Accu"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        run_engine(
            view,
            &self.config,
            Features {
                learn_accuracy: true,
                similarity: false,
            },
        )
    }
}

impl TruthDiscovery for AccuSim {
    fn name(&self) -> &'static str {
        "AccuSim"
    }

    fn discover(&self, view: &DatasetView<'_>) -> TruthResult {
        run_engine(
            view,
            &self.config,
            Features {
                learn_accuracy: true,
                similarity: true,
            },
        )
    }
}

/// Pairwise dependence probabilities and the vote discounts they imply,
/// stored densely.
struct DependenceMatrix {
    n: usize,
    /// Copy rate `c` of the run.
    copy_rate: f64,
    /// `P(s1 ~ s2 | Φ)`, symmetric, zero diagonal.
    prob: Vec<f64>,
    /// `1 − c·P(s1 ~ s2 | Φ)`: the factor by which an already-counted
    /// supporter `s2` discounts `s1`'s vote for the same value.
    keep: Vec<f64>,
}

impl DependenceMatrix {
    fn zero(n: usize, copy_rate: f64) -> Self {
        Self {
            n,
            copy_rate,
            prob: vec![0.0; n * n],
            keep: vec![1.0; n * n],
        }
    }

    #[cfg(test)]
    fn get(&self, a: usize, b: usize) -> f64 {
        self.prob[a * self.n + b]
    }

    #[inline]
    fn keep(&self, a: usize, b: usize) -> f64 {
        self.keep[a * self.n + b]
    }

    #[inline]
    fn set(&mut self, a: usize, b: usize, p: f64) {
        let keep = 1.0 - self.copy_rate * p;
        for idx in [a * self.n + b, b * self.n + a] {
            self.prob[idx] = p;
            self.keep[idx] = keep;
        }
    }
}

/// The copy-detection likelihoods of one run: the prior log-odds of
/// independence and, per shared cell, the log-likelihood ratio of
/// independence over copying for each outcome — same true value (`l_t`),
/// same false value (`l_f`), different values (`l_d`).
struct CopyModel {
    prior: f64,
    l_t: f64,
    l_f: f64,
    l_d: f64,
}

impl CopyModel {
    fn new(cfg: &AccuConfig, n_false: f64) -> Self {
        let e = cfg.epsilon;
        let c = cfg.copy_rate;
        // Per-cell outcome probabilities under independence / dependence.
        let pt_i = (1.0 - e) * (1.0 - e);
        let pf_i = e * e / n_false;
        let pd_i = (1.0 - pt_i - pf_i).max(1e-12);
        let pt_d = c * (1.0 - e) + (1.0 - c) * pt_i;
        let pf_d = c * e + (1.0 - c) * pf_i;
        let pd_d = ((1.0 - c) * pd_i).max(1e-12);
        Self {
            prior: ((1.0 - cfg.alpha) / cfg.alpha).ln(),
            l_t: (pt_i / pt_d).ln(),
            l_f: (pf_i / pf_d).ln(),
            l_d: (pd_i / pd_d).ln(),
        }
    }
}

/// Every candidate's supporting sources, grouped: candidate `g` (a
/// workspace-wide candidate index) is supported by
/// `src[off[g]..off[g + 1]]`. The engine keeps each group in ascending
/// source rank.
struct Supporters {
    off: Vec<usize>,
    src: Vec<u32>,
}

impl Supporters {
    /// Groups the claims by candidate, each group in claim order.
    fn new(ws: &Workspace) -> Self {
        let mut off = Vec::with_capacity(ws.n_candidates() + 1);
        off.push(0);
        for &count in &ws.counts {
            off.push(off[off.len() - 1] + count as usize);
        }
        let mut src = vec![0; ws.claim_sources.len()];
        let mut next = off.clone();
        for cell in ws.cells() {
            for (&s, &v) in cell.claim_sources.iter().zip(cell.claim_cand) {
                let g = cell.cand_base + v as usize;
                src[next[g]] = s.index() as u32;
                next[g] += 1;
            }
        }
        Self { off, src }
    }

    #[inline]
    fn group(&self, g: usize) -> &[u32] {
        &self.src[self.off[g]..self.off[g + 1]]
    }

    #[inline]
    fn group_mut(&mut self, g: usize) -> &mut [u32] {
        &mut self.src[self.off[g]..self.off[g + 1]]
    }
}

/// Stable insertion sort of a supporter group by source rank. Ranks
/// settle after a few iterations, and then this is one comparison per
/// supporter.
fn sort_by_rank(group: &mut [u32], rank: &[u32]) {
    for i in 1..group.len() {
        let x = group[i];
        let rx = rank[x as usize];
        let mut j = i;
        while j > 0 && rank[group[j - 1] as usize] > rx {
            group[j] = group[j - 1];
            j -= 1;
        }
        group[j] = x;
    }
}

/// Copy evidence for every source pair `a < b` (at index `a·n + b`),
/// kept in step with the prediction.
///
/// `overlap` (cells both sources claim) and `same` (cells where both
/// claim the same value) do not depend on the prediction, so they are
/// counted once per run. `kt` (same value, and it is the predicted one)
/// is counted once from the seed prediction; afterwards a cell whose
/// prediction flips takes its old winner's supporter pairs off `kt` and
/// adds its new winner's. The engine reads `kf = same − kt` and
/// `kd = overlap − same`: the integers a full recount would give.
struct PairCounts {
    n: usize,
    overlap: Vec<u32>,
    same: Vec<u32>,
    kt: Vec<u32>,
}

impl PairCounts {
    /// Counts all three in one pass over every cell's claim pairs.
    fn new(ws: &Workspace, pred: &[u32]) -> Self {
        let n = ws.n_sources;
        let (mut overlap, mut same, mut kt) = (vec![0; n * n], vec![0; n * n], vec![0; n * n]);
        for (cell, &p) in ws.cells().zip(pred) {
            let (src, cand) = (cell.claim_sources, cell.claim_cand);
            for i in 0..src.len() {
                let (si, vi) = (src[i].index(), cand[i]);
                for j in (i + 1)..src.len() {
                    let sj = src[j].index();
                    let idx = si.min(sj) * n + si.max(sj);
                    let agree = vi == cand[j];
                    overlap[idx] += 1;
                    same[idx] += u32::from(agree);
                    kt[idx] += u32::from(agree && vi == p);
                }
            }
        }
        Self {
            n,
            overlap,
            same,
            kt,
        }
    }

    /// Adds (or removes) the pairs of a predicted candidate's supporters
    /// to (or from) `kt`.
    fn shift_kt(&mut self, group: &[u32], add: bool) {
        for (i, &a) in group.iter().enumerate() {
            for &b in &group[i + 1..] {
                let idx = a.min(b) as usize * self.n + a.max(b) as usize;
                if add {
                    self.kt[idx] += 1;
                } else {
                    self.kt[idx] -= 1;
                }
            }
        }
    }

    /// `(kt, kf, kd)` of the pair `a < b`.
    #[inline]
    fn kt_kf_kd(&self, a: usize, b: usize) -> (u32, u32, u32) {
        let idx = a * self.n + b;
        let (kt, same, overlap) = (self.kt[idx], self.same[idx], self.overlap[idx]);
        (kt, same - kt, overlap - same)
    }

    /// Recomputes the dependence matrix from the current counts.
    fn dependence(&self, model: &CopyModel, dep: &mut DependenceMatrix) {
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if self.overlap[a * self.n + b] == 0 {
                    dep.set(a, b, 0.0);
                    continue;
                }
                let (kt, kf, kd) = self.kt_kf_kd(a, b);
                // log Bayes factor of independence over dependence; large
                // and positive ⇒ independent, very negative ⇒ copier.
                let log_bf = model.prior
                    + kt as f64 * model.l_t
                    + kf as f64 * model.l_f
                    + kd as f64 * model.l_d;
                let p_dep = 1.0 / (1.0 + log_bf.exp());
                dep.set(a, b, p_dep);
            }
        }
    }
}

/// Accuracies are clamped into `[EPS, 1 − EPS]` so every vote weight
/// `ln(n·A/(1−A))` stays finite.
const EPS: f64 = 1e-6;

/// The shared Depen/Accu/AccuSim fixpoint over one view. See
/// `DESIGN.md` § "Accu fixpoint engine" for what is computed per run, per
/// iteration and per prediction flip.
struct Engine<'c> {
    cfg: &'c AccuConfig,
    feat: Features,
    ws: Workspace,
    n_false: f64,
    model: CopyModel,
    supporters: Supporters,
    pairs: PairCounts,
    dep: DependenceMatrix,
    accuracy: Vec<f64>,
    /// Winning candidate per cell (cell-local index).
    pred: Vec<u32>,
    /// Posterior per candidate, parallel to the workspace's candidates.
    conf: Vec<f64>,
    /// Per-iteration source tables: vote weight and accuracy rank.
    tau: Vec<f64>,
    rank: Vec<u32>,
    /// Scratch: sources in rank order; one cell's raw scores.
    by_rank: Vec<u32>,
    scores: Vec<f64>,
    sums: Vec<f64>,
}

impl<'c> Engine<'c> {
    fn new(view: &DatasetView<'_>, cfg: &'c AccuConfig, feat: Features) -> Self {
        let sim = ValueSimilarity::new(cfg.similarity);
        let ws = Workspace::build(view, feat.similarity.then_some(&sim));
        let n = ws.n_sources;
        let n_false = effective_n_false(cfg.n_false);
        let init_acc = if feat.learn_accuracy {
            cfg.initial_accuracy
        } else {
            1.0 - cfg.epsilon
        };

        // Current winning candidate per cell; seeded by vote counts so the
        // first dependence computation has a truth estimate to work from.
        let pred: Vec<u32> = ws
            .cells()
            .map(|cell| {
                let mut best = 0usize;
                for i in 1..cell.k() {
                    if cell.counts[i] > cell.counts[best]
                        || (cell.counts[i] == cell.counts[best]
                            && cell.values[i] < cell.values[best])
                    {
                        best = i;
                    }
                }
                best as u32
            })
            .collect();
        let supporters = Supporters::new(&ws);
        let pairs = PairCounts::new(&ws, &pred);
        Self {
            cfg,
            feat,
            n_false,
            model: CopyModel::new(cfg, n_false),
            supporters,
            pairs,
            dep: DependenceMatrix::zero(n, cfg.copy_rate),
            accuracy: vec![init_acc; n],
            pred,
            conf: vec![0.0; ws.n_candidates()],
            tau: vec![0.0; n],
            // No source holds this rank, so the first tables re-sort.
            rank: vec![u32::MAX; n],
            by_rank: Vec::with_capacity(n),
            scores: Vec::new(),
            sums: vec![0.0; n],
            ws,
        }
    }

    /// Fills the per-iteration source tables: the vote weight
    /// `τ(s) = ln(n·A(s)/(1−A(s)))` and the rank of `s` in (accuracy
    /// descending, source id ascending) order. Ranks are unique, so
    /// ordering a cell's claims by rank orders them as sorting the cell
    /// by (accuracy, source) would. Returns whether any rank moved, i.e.
    /// whether the supporter groups need re-sorting.
    fn source_tables(&mut self) -> bool {
        for (t, &acc) in self.tau.iter_mut().zip(&self.accuracy) {
            let a = clamp_unit(acc, EPS);
            *t = (self.n_false * a / (1.0 - a)).ln();
        }
        let accuracy = &self.accuracy;
        self.by_rank.clear();
        self.by_rank.extend(0..accuracy.len() as u32);
        // Learned accuracies are clamped, so `total_cmp` orders them as
        // `partial_cmp` would; unlike it, it cannot panic.
        self.by_rank.sort_unstable_by(|&x, &y| {
            accuracy[y as usize]
                .total_cmp(&accuracy[x as usize])
                .then(x.cmp(&y))
        });
        let mut moved = false;
        for (r, &s) in self.by_rank.iter().enumerate() {
            moved |= self.rank[s as usize] != r as u32;
            self.rank[s as usize] = r as u32;
        }
        moved
    }

    /// One fixpoint round: dependence from the pair counts, a rescore of
    /// every cell, then the accuracy update. Returns whether the run has
    /// converged.
    fn iterate(&mut self) -> bool {
        self.pairs.dependence(&self.model, &mut self.dep);
        let resort = self.source_tables();
        let Self {
            cfg,
            feat,
            ws,
            supporters,
            pairs,
            dep,
            accuracy,
            pred,
            conf,
            tau,
            rank,
            scores,
            sums,
            ..
        } = self;
        sums.fill(0.0);
        let mut changed = false;

        for (c, cell) in ws.cells().enumerate() {
            let k = cell.k();
            scores.clear();
            // Count votes value by value, highest-ranked source first,
            // discounting each by the probability of having copied from
            // an already-counted supporter of the same value.
            for v in 0..k {
                let group = supporters.group_mut(cell.cand_base + v);
                if resort {
                    sort_by_rank(group, rank);
                }
                let mut score = 0.0;
                for (r, &s) in group.iter().enumerate() {
                    let mut independence = 1.0;
                    for &s2 in &group[..r] {
                        independence *= dep.keep(s as usize, s2 as usize);
                    }
                    score += tau[s as usize] * independence;
                }
                scores.push(score);
            }

            let post = &mut conf[cell.cand_base..cell.cand_base + k];
            if feat.similarity {
                for i in 0..k {
                    let mut infl = 0.0;
                    for j in 0..k {
                        if i != j {
                            infl += scores[j] * cell.sim(j, i);
                        }
                    }
                    post[i] = scores[i] + cfg.similarity_weight * infl;
                }
            } else {
                post.copy_from_slice(scores);
            }

            // Softmax over vote counts = Bayesian posterior over candidates.
            softmax(post);
            let mut best = 0usize;
            for i in 1..k {
                if post[i] > post[best]
                    || (post[i] == post[best] && cell.values[i] < cell.values[best])
                {
                    best = i;
                }
            }
            let best = best as u32;
            if pred[c] != best {
                pairs.shift_kt(supporters.group(cell.cand_base + pred[c] as usize), false);
                pairs.shift_kt(supporters.group(cell.cand_base + best as usize), true);
                pred[c] = best;
                changed = true;
            }
            for (&src, &v) in cell.claim_sources.iter().zip(cell.claim_cand) {
                sums[src.index()] += post[v as usize];
            }
        }

        if feat.learn_accuracy {
            let mut new_acc = accuracy.clone();
            for s in 0..new_acc.len() {
                if ws.claims_per_source[s] > 0 {
                    new_acc[s] = clamp_unit(sums[s] / ws.claims_per_source[s] as f64, EPS);
                }
            }
            let delta = max_abs_diff(accuracy, &new_acc);
            *accuracy = new_acc;
            delta < cfg.tolerance && !changed
        } else {
            !changed
        }
    }

    fn finish(self, view: &DatasetView<'_>, iterations: u32) -> TruthResult {
        let mut result = TruthResult::for_view(view, 0.0);
        for (cell, &p) in self.ws.cells().zip(&self.pred) {
            let best = cell.cand_base + p as usize;
            result.set_prediction(
                cell.object,
                cell.attribute,
                self.ws.values[best],
                self.conf[best],
            );
        }
        result.source_trust = self.accuracy;
        result.iterations = iterations;
        result
    }
}

fn run_engine(view: &DatasetView<'_>, cfg: &AccuConfig, feat: Features) -> TruthResult {
    let mut engine = Engine::new(view, cfg, feat);
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        let converged = engine.iterate();
        if converged || iterations >= cfg.max_iterations {
            break;
        }
    }
    engine.finish(view, iterations)
}

/// The engine as it was before per-source tables, supporter groups and
/// incremental copy counts, kept verbatim (with the per-cell-`Vec`
/// workspace it ran on) as the oracle the rewrite is checked against.
#[cfg(test)]
mod reference {
    #![allow(dead_code)]

    use td_model::{AttributeId, DatasetView, ObjectId, SourceId, ValueId, ValueSimilarity};

    use super::AccuConfig;
    use crate::common::{clamp_unit, group_candidates, max_abs_diff, Candidate};
    use crate::result::TruthResult;

    /// Pairwise dependence probabilities, stored densely.
    struct DependenceMatrix {
        n: usize,
        /// `P(s1 ~ s2 | Φ)`, symmetric, zero diagonal.
        prob: Vec<f64>,
    }

    impl DependenceMatrix {
        fn zero(n: usize) -> Self {
            Self {
                n,
                prob: vec![0.0; n * n],
            }
        }

        #[inline]
        fn get(&self, a: usize, b: usize) -> f64 {
            self.prob[a * self.n + b]
        }

        #[inline]
        fn set(&mut self, a: usize, b: usize, p: f64) {
            self.prob[a * self.n + b] = p;
            self.prob[b * self.n + a] = p;
        }
    }

    /// Which features of the engine a variant enables.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Features {
        pub(super) dependence: bool,
        pub(super) learn_accuracy: bool,
        pub(super) similarity: bool,
    }

    /// Precomputed per-cell structure of a dataset view.
    ///
    /// Iterative algorithms walk the same cells dozens of times; grouping
    /// claims into candidates and (optionally) evaluating pairwise value
    /// similarities once up front turns every subsequent iteration into pure
    /// arithmetic over flat vectors.
    #[derive(Debug, Clone)]
    pub struct CellData {
        /// Object of the cell.
        pub object: ObjectId,
        /// Attribute of the cell.
        pub attribute: AttributeId,
        /// Distinct claimed values, in order of first claim.
        pub values: Vec<ValueId>,
        /// Supporter count per candidate (parallel to `values`).
        pub counts: Vec<u32>,
        /// Source of each claim of the cell.
        pub claim_sources: Vec<SourceId>,
        /// Candidate index of each claim (parallel to `claim_sources`).
        pub claim_cand: Vec<u32>,
        /// Row-major `k×k` pairwise similarity matrix over `values`; empty
        /// when similarity was not requested.
        pub sim: Vec<f64>,
    }

    impl CellData {
        /// Number of distinct candidates.
        #[inline]
        pub fn k(&self) -> usize {
            self.values.len()
        }

        /// Similarity between candidates `i` and `j` (requires the matrix).
        #[inline]
        pub fn sim(&self, i: usize, j: usize) -> f64 {
            self.sim[i * self.values.len() + j]
        }
    }

    /// A fully materialized working copy of a view, shared by all iterative
    /// algorithms in this crate.
    #[derive(Debug, Clone)]
    pub struct Workspace {
        /// One entry per non-empty cell of the view.
        pub cells: Vec<CellData>,
        /// Global source-id-space size.
        pub n_sources: usize,
        /// Number of claims each source has inside the view.
        pub claims_per_source: Vec<u32>,
    }

    impl Workspace {
        /// Builds the workspace; pass a [`ValueSimilarity`] to also
        /// precompute per-cell pairwise similarity matrices.
        pub fn build(view: &DatasetView<'_>, similarity: Option<&ValueSimilarity>) -> Self {
            let n_sources = view.n_sources();
            let mut claims_per_source = vec![0u32; n_sources];
            let mut cells = Vec::with_capacity(view.n_cells());
            let mut cands: Vec<Candidate> = Vec::new();
            let mut claim_cand: Vec<u32> = Vec::new();

            for cell in view.cells() {
                let claims = view.cell_claims(cell);
                group_candidates(claims, &mut cands, &mut claim_cand);
                let values: Vec<ValueId> = cands.iter().map(|c| c.value).collect();
                let counts: Vec<u32> = cands.iter().map(|c| c.count).collect();
                let claim_sources: Vec<SourceId> = claims.iter().map(|c| c.source).collect();
                for s in &claim_sources {
                    claims_per_source[s.index()] += 1;
                }
                let sim = match similarity {
                    Some(vs) => {
                        let k = values.len();
                        let mut m = vec![0.0; k * k];
                        for i in 0..k {
                            m[i * k + i] = 1.0;
                            for j in (i + 1)..k {
                                let s = vs.sim(view.value(values[i]), view.value(values[j]));
                                m[i * k + j] = s;
                                m[j * k + i] = s;
                            }
                        }
                        m
                    }
                    None => Vec::new(),
                };
                cells.push(CellData {
                    object: cell.object,
                    attribute: cell.attribute,
                    values,
                    counts,
                    claim_sources,
                    claim_cand: claim_cand.clone(),
                    sim,
                });
            }

            Self {
                cells,
                n_sources,
                claims_per_source,
            }
        }
    }

    /// Recomputes the dependence matrix from per-cell co-claim statistics
    /// under the current prediction (`pred[cell] = winning candidate index`).
    fn compute_dependence(
        ws: &Workspace,
        pred: &[u32],
        cfg: &AccuConfig,
        dep: &mut DependenceMatrix,
    ) {
        let n = ws.n_sources;
        // kt / kf / kd counters per ordered pair (only a < b used).
        let mut kt = vec![0u32; n * n];
        let mut kf = vec![0u32; n * n];
        let mut kd = vec![0u32; n * n];

        for (cell, &p) in ws.cells.iter().zip(pred) {
            let m = cell.claim_sources.len();
            for i in 0..m {
                let si = cell.claim_sources[i].index();
                let vi = cell.claim_cand[i];
                for j in (i + 1)..m {
                    let sj = cell.claim_sources[j].index();
                    let vj = cell.claim_cand[j];
                    let (a, b) = if si < sj { (si, sj) } else { (sj, si) };
                    let idx = a * n + b;
                    if vi == vj {
                        if vi == p {
                            kt[idx] += 1;
                        } else {
                            kf[idx] += 1;
                        }
                    } else {
                        kd[idx] += 1;
                    }
                }
            }
        }

        let e = cfg.epsilon;
        let nf = cfg.n_false.max(1.0);
        let c = cfg.copy_rate;
        // Per-cell outcome probabilities under independence / dependence.
        let pt_i = (1.0 - e) * (1.0 - e);
        let pf_i = e * e / nf;
        let pd_i = (1.0 - pt_i - pf_i).max(1e-12);
        let pt_d = c * (1.0 - e) + (1.0 - c) * pt_i;
        let pf_d = c * e + (1.0 - c) * pf_i;
        let pd_d = ((1.0 - c) * pd_i).max(1e-12);

        let l_t = (pt_i / pt_d).ln();
        let l_f = (pf_i / pf_d).ln();
        let l_d = (pd_i / pd_d).ln();
        let prior = ((1.0 - cfg.alpha) / cfg.alpha).ln();

        for a in 0..n {
            for b in (a + 1)..n {
                let idx = a * n + b;
                let overlap = kt[idx] + kf[idx] + kd[idx];
                if overlap == 0 {
                    dep.set(a, b, 0.0);
                    continue;
                }
                // log Bayes factor of independence over dependence; large and
                // positive ⇒ independent, very negative ⇒ copier.
                let log_bf =
                    prior + kt[idx] as f64 * l_t + kf[idx] as f64 * l_f + kd[idx] as f64 * l_d;
                let p_dep = 1.0 / (1.0 + log_bf.exp());
                dep.set(a, b, p_dep);
            }
        }
    }

    pub(super) fn run_engine(
        view: &DatasetView<'_>,
        cfg: &AccuConfig,
        feat: Features,
    ) -> TruthResult {
        let sim = ValueSimilarity::new(cfg.similarity);
        let ws = Workspace::build(view, feat.similarity.then_some(&sim));
        let n = ws.n_sources;
        const EPS: f64 = 1e-6;

        let init_acc = if feat.learn_accuracy {
            cfg.initial_accuracy
        } else {
            1.0 - cfg.epsilon
        };
        let mut accuracy = vec![init_acc; n];
        let mut result = TruthResult::for_view(view, init_acc);

        // Current winning candidate per cell; seeded by vote counts so the
        // first dependence computation has a truth estimate to work from.
        let mut pred: Vec<u32> = ws
            .cells
            .iter()
            .map(|cell| {
                let mut best = 0usize;
                for i in 1..cell.k() {
                    if cell.counts[i] > cell.counts[best]
                        || (cell.counts[i] == cell.counts[best]
                            && cell.values[i] < cell.values[best])
                    {
                        best = i;
                    }
                }
                best as u32
            })
            .collect();

        let mut dep = DependenceMatrix::zero(if feat.dependence { n } else { 0 });
        let mut confidences: Vec<Vec<f64>> = ws.cells.iter().map(|c| vec![0.0; c.k()]).collect();
        // Scratch: claims of one cell ordered by accuracy (for vote discount).
        let mut order: Vec<usize> = Vec::new();
        let mut scores: Vec<f64> = Vec::new();
        let mut adjusted: Vec<f64> = Vec::new();
        let mut sums = vec![0.0f64; n];

        let mut iterations = 0u32;
        loop {
            iterations += 1;
            if feat.dependence {
                compute_dependence(&ws, &pred, cfg, &mut dep);
            }

            for s in sums.iter_mut() {
                *s = 0.0;
            }
            let mut changed = false;

            for (ci, cell) in ws.cells.iter().enumerate() {
                let k = cell.k();
                scores.clear();
                scores.resize(k, 0.0);

                if feat.dependence {
                    // Count votes value-by-value, highest-accuracy source
                    // first, discounting by the probability of having copied
                    // from an already-counted supporter of the same value.
                    order.clear();
                    order.extend(0..cell.claim_sources.len());
                    order.sort_by(|&x, &y| {
                        let ax = accuracy[cell.claim_sources[x].index()];
                        let ay = accuracy[cell.claim_sources[y].index()];
                        ay.partial_cmp(&ax)
                            .unwrap()
                            .then(cell.claim_sources[x].cmp(&cell.claim_sources[y]))
                    });
                    for (rank, &ic) in order.iter().enumerate() {
                        let s = cell.claim_sources[ic].index();
                        let v = cell.claim_cand[ic] as usize;
                        let a = clamp_unit(accuracy[s], EPS);
                        let tau = (cfg.n_false * a / (1.0 - a)).ln();
                        let mut independence = 1.0;
                        for &jc in &order[..rank] {
                            if cell.claim_cand[jc] == cell.claim_cand[ic] {
                                let s2 = cell.claim_sources[jc].index();
                                independence *= 1.0 - cfg.copy_rate * dep.get(s, s2);
                            }
                        }
                        scores[v] += tau * independence;
                    }
                } else {
                    for (ic, &src) in cell.claim_sources.iter().enumerate() {
                        let a = clamp_unit(accuracy[src.index()], EPS);
                        let tau = (cfg.n_false * a / (1.0 - a)).ln();
                        scores[cell.claim_cand[ic] as usize] += tau;
                    }
                }

                if feat.similarity {
                    adjusted.clear();
                    adjusted.extend_from_slice(&scores);
                    for i in 0..k {
                        let mut infl = 0.0;
                        for j in 0..k {
                            if i != j {
                                infl += scores[j] * cell.sim(j, i);
                            }
                        }
                        adjusted[i] += cfg.similarity_weight * infl;
                    }
                    scores.copy_from_slice(&adjusted);
                }

                // Softmax over vote counts = Bayesian posterior over candidates.
                let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let mut z = 0.0;
                for s in scores.iter_mut() {
                    *s = (*s - max).exp();
                    z += *s;
                }
                let conf = &mut confidences[ci];
                let mut best = 0usize;
                for i in 0..k {
                    conf[i] = scores[i] / z;
                    if conf[i] > conf[best]
                        || (conf[i] == conf[best] && cell.values[i] < cell.values[best])
                    {
                        best = i;
                    }
                }
                if pred[ci] != best as u32 {
                    pred[ci] = best as u32;
                    changed = true;
                }
                for (ic, &src) in cell.claim_sources.iter().enumerate() {
                    sums[src.index()] += conf[cell.claim_cand[ic] as usize];
                }
            }

            let converged = if feat.learn_accuracy {
                let mut new_acc = accuracy.clone();
                for s in 0..n {
                    if ws.claims_per_source[s] > 0 {
                        new_acc[s] = clamp_unit(sums[s] / ws.claims_per_source[s] as f64, EPS);
                    }
                }
                let delta = max_abs_diff(&accuracy, &new_acc);
                accuracy = new_acc;
                delta < cfg.tolerance && !changed
            } else {
                !changed
            };

            if converged || iterations >= cfg.max_iterations {
                break;
            }
        }

        for (ci, cell) in ws.cells.iter().enumerate() {
            let best = pred[ci] as usize;
            result.set_prediction(
                cell.object,
                cell.attribute,
                cell.values[best],
                confidences[ci][best],
            );
        }
        result.source_trust = accuracy;
        result.iterations = iterations;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use td_model::{Dataset, DatasetBuilder, Value};

    /// s1, s2 honest and agreeing on 4 cells; s3 wrong everywhere.
    fn honest_vs_liar() -> Dataset {
        let mut b = DatasetBuilder::new();
        for i in 0..4 {
            let a = format!("a{i}");
            b.claim("s1", "o", &a, Value::int(i)).unwrap();
            b.claim("s2", "o", &a, Value::int(i)).unwrap();
            b.claim("s3", "o", &a, Value::int(100 + i)).unwrap();
        }
        b.build()
    }

    /// Four independent mostly-right sources plus a copier clique of three
    /// sources sharing identical wrong answers. Without copy detection the
    /// clique outvotes the majority on the poisoned cells.
    fn copier_clique() -> Dataset {
        let mut b = DatasetBuilder::new();
        // 8 cells; independents agree on the truth everywhere but each
        // also makes one (distinct) unique error, so they're not copies.
        for cell in 0..8i64 {
            let a = format!("a{cell}");
            for ind in 0..4 {
                let s = format!("ind{ind}");
                let v = if cell == ind { Value::int(900 + ind) } else { Value::int(cell) };
                b.claim(&s, "o", &a, v).unwrap();
            }
            // Copier clique: identical answers, wrong on every cell.
            for cp in 0..3 {
                let s = format!("cp{cp}");
                b.claim(&s, "o", &a, Value::int(500 + cell)).unwrap();
            }
        }
        b.build()
    }

    #[test]
    fn accu_learns_source_accuracy() {
        let d = honest_vs_liar();
        let r = Accu::default().discover(&d.view_all());
        let s1 = d.source_id("s1").unwrap();
        let s3 = d.source_id("s3").unwrap();
        assert!(
            r.source_trust[s1.index()] > r.source_trust[s3.index()],
            "honest source must end more accurate: {:?}",
            r.source_trust
        );
        let o = d.object_id("o").unwrap();
        for i in 0..4 {
            let a = d.attribute_id(&format!("a{i}")).unwrap();
            assert_eq!(r.prediction(o, a), Some(d.value_id(&Value::int(i)).unwrap()));
        }
    }

    #[test]
    fn depen_discounts_copier_clique() {
        let d = copier_clique();
        let r = Depen::default().discover(&d.view_all());
        let o = d.object_id("o").unwrap();
        // On unpoisoned cells (cells 4..8) independents have 4 distinct...
        // actually all four agree; clique has 3 — majority already wins.
        // The interesting cells are 0..4 where one independent defects:
        // 3 honest vs 3 copies. Copy detection must break the tie for the
        // independents.
        let mut correct = 0;
        for cell in 0..8 {
            let a = d.attribute_id(&format!("a{cell}")).unwrap();
            if r.prediction(o, a) == d.value_id(&Value::int(cell)) {
                correct += 1;
            }
        }
        assert!(
            correct >= 7,
            "copy-aware voting should recover nearly all cells, got {correct}/8"
        );
    }

    #[test]
    fn accu_beats_uniform_on_copier_clique() {
        let d = copier_clique();
        let r = Accu::default().discover(&d.view_all());
        let ind0 = d.source_id("ind0").unwrap();
        let cp0 = d.source_id("cp0").unwrap();
        assert!(r.source_trust[ind0.index()] > r.source_trust[cp0.index()]);
    }

    #[test]
    fn accusim_groups_similar_values() {
        // Truth 100; supporters split between 100 and 101 (close), while
        // two sources push 999. Similarity support must rescue the close
        // pair.
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::int(100)).unwrap();
        b.claim("s2", "o", "a", Value::int(101)).unwrap();
        b.claim("s3", "o", "a", Value::int(999)).unwrap();
        b.claim("s4", "o", "a", Value::int(999)).unwrap();
        // Ballast cells so accuracies stay informative.
        for i in 0..3 {
            let a = format!("b{i}");
            for s in ["s1", "s2", "s3", "s4"] {
                b.claim(s, "o", &a, Value::int(7)).unwrap();
            }
        }
        let d = b.build();
        let o = d.object_id("o").unwrap();
        let a = d.attribute_id("a").unwrap();
        let v100 = d.value_id(&Value::int(100)).unwrap();
        let v101 = d.value_id(&Value::int(101)).unwrap();
        let v999 = d.value_id(&Value::int(999)).unwrap();

        // Plain Accu follows the two exact votes.
        let base = Accu::default().discover(&d.view_all());
        assert_eq!(base.prediction(o, a), Some(v999));

        // With a strong similarity weight the mutually-supporting close
        // values overcome the vote deficit.
        let strong = AccuSim::new(AccuConfig {
            similarity_weight: 2.0,
            ..Default::default()
        })
        .discover(&d.view_all());
        let picked = strong.prediction(o, a).unwrap();
        assert!(picked == v100 || picked == v101, "similar pair should win");
    }

    #[test]
    fn all_variants_are_deterministic() {
        let d = copier_clique();
        for algo in [
            Box::new(Depen::default()) as Box<dyn TruthDiscovery>,
            Box::new(Accu::default()),
            Box::new(AccuSim::default()),
        ] {
            let r1 = algo.discover(&d.view_all());
            let r2 = algo.discover(&d.view_all());
            assert_eq!(r1.source_trust, r2.source_trust, "{}", algo.name());
            assert_eq!(r1.iterations, r2.iterations);
        }
    }

    #[test]
    fn iteration_counts_reported() {
        let d = honest_vs_liar();
        let r = Accu::default().discover(&d.view_all());
        assert!(r.iterations >= 1 && r.iterations <= AccuConfig::default().max_iterations);
        let rd = Depen::default().discover(&d.view_all());
        assert!(rd.iterations >= 1);
    }

    #[test]
    fn confidences_sum_sensibly() {
        let d = honest_vs_liar();
        let r = Accu::default().discover(&d.view_all());
        for (_, _, _, c) in r.iter() {
            assert!((0.0..=1.0).contains(&c));
        }
    }

    #[test]
    fn restricted_view_keeps_global_source_space() {
        let d = honest_vs_liar();
        let a0 = d.attribute_id("a0").unwrap();
        let r = Accu::default().discover(&d.view_of(&[a0]));
        assert_eq!(r.source_trust.len(), d.n_sources());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn empty_view_yields_empty_result() {
        let d = DatasetBuilder::new().build();
        for algo in [
            Box::new(Depen::default()) as Box<dyn TruthDiscovery>,
            Box::new(Accu::default()),
            Box::new(AccuSim::default()),
        ] {
            assert!(algo.discover(&d.view_all()).is_empty());
        }
    }

    #[test]
    fn dependence_matrix_flags_identical_sources() {
        // Build workspace manually: two sources agreeing on many false
        // values should be detected as dependent.
        let mut b = DatasetBuilder::new();
        for i in 0..10 {
            let a = format!("a{i}");
            b.claim("cp1", "o", &a, Value::int(555)).unwrap();
            b.claim("cp2", "o", &a, Value::int(555)).unwrap();
            b.claim("ind", "o", &a, Value::int(i)).unwrap();
        }
        let d = b.build();
        let ws = Workspace::build(&d.view_all(), None);
        let cfg = AccuConfig::default();
        // Truth estimate: the independent source is right (candidate
        // index of `ind`'s value). Find per-cell index of value Int(i).
        let pred: Vec<u32> = ws
            .cells()
            .map(|c| {
                c.values
                    .iter()
                    .position(|&v| matches!(d.value(v), Value::Int(x) if *x < 100))
                    .unwrap() as u32
            })
            .collect();
        let pairs = PairCounts::new(&ws, &pred);
        let mut dep = DependenceMatrix::zero(3, cfg.copy_rate);
        pairs.dependence(
            &CopyModel::new(&cfg, effective_n_false(cfg.n_false)),
            &mut dep,
        );
        let cp1 = d.source_id("cp1").unwrap().index();
        let cp2 = d.source_id("cp2").unwrap().index();
        let ind = d.source_id("ind").unwrap().index();
        assert!(
            dep.get(cp1, cp2) > 0.9,
            "shared false values ⇒ dependence: {}",
            dep.get(cp1, cp2)
        );
        assert!(
            dep.get(cp1, ind) < 0.5,
            "disagreeing sources look independent: {}",
            dep.get(cp1, ind)
        );
    }

    const DEPEN: Features = Features {
        learn_accuracy: false,
        similarity: false,
    };
    const ACCU: Features = Features {
        learn_accuracy: true,
        similarity: false,
    };
    const ACCU_SIM: Features = Features {
        learn_accuracy: true,
        similarity: true,
    };

    /// The reference engine's switches for a variant of this engine.
    fn reference_features(feat: Features) -> reference::Features {
        reference::Features {
            dependence: true,
            learn_accuracy: feat.learn_accuracy,
            similarity: feat.similarity,
        }
    }

    /// Shape of a random world for the engine-vs-reference property.
    #[derive(Debug, Clone)]
    struct WorldSpec {
        seed: u64,
        n_sources: usize,
        n_objects: usize,
        n_attributes: usize,
        coverage: f64,
        domain: i64,
        /// Sources that copy source 0 (a planted copier clique).
        clique: usize,
        /// Whether the clique copies verbatim, so its members' learned
        /// accuracies tie bit for bit.
        exact_copies: bool,
    }

    /// Builds the world: every source covers a cell with probability
    /// `coverage` and is right with its own accuracy, else claims one of
    /// the cell's `domain − 1` false values; the last `clique` sources
    /// instead copy source 0 wherever it claims (verbatim with
    /// `exact_copies`, else with probability 0.8).
    fn random_world(spec: &WorldSpec) -> Dataset {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(spec.seed);
        let accuracy: Vec<f64> = (0..spec.n_sources)
            .map(|_| rng.gen_range(0.1..0.95))
            .collect();
        let first_copier = spec.n_sources - spec.clique.min(spec.n_sources - 1);
        let mut b = DatasetBuilder::new();
        for o in 0..spec.n_objects {
            let obj = format!("o{o}");
            for a in 0..spec.n_attributes {
                let attr = format!("a{a}");
                let mut claimed: Vec<Option<i64>> = Vec::with_capacity(spec.n_sources);
                for s in 0..spec.n_sources {
                    let own = |rng: &mut rand_chacha::ChaCha8Rng| {
                        if rng.gen_bool(accuracy[s]) {
                            0
                        } else {
                            rng.gen_range(1..spec.domain)
                        }
                    };
                    let value = if s >= first_copier {
                        claimed[0].map(|v| {
                            if spec.exact_copies || rng.gen_bool(0.8) {
                                v
                            } else {
                                own(&mut rng)
                            }
                        })
                    } else if rng.gen_bool(spec.coverage) {
                        Some(own(&mut rng))
                    } else {
                        None
                    };
                    if let Some(v) = value {
                        b.claim(&format!("s{s}"), &obj, &attr, Value::int(v))
                            .unwrap();
                    }
                    claimed.push(value);
                }
            }
        }
        b.build()
    }

    /// `(object, attribute, value, confidence bits)` sorted, trust bits,
    /// iterations: equal iff the two runs are bit-identical.
    type Bits = (Vec<(u32, u32, u32, u64)>, Vec<u64>, u32);

    fn bits(r: &TruthResult) -> Bits {
        let mut cells: Vec<_> = r
            .iter()
            .map(|(o, a, v, c)| {
                (
                    o.index() as u32,
                    a.index() as u32,
                    v.index() as u32,
                    c.to_bits(),
                )
            })
            .collect();
        cells.sort_unstable();
        let trust = r.source_trust.iter().map(|t| t.to_bits()).collect();
        (cells, trust, r.iterations)
    }

    fn world_spec() -> impl Strategy<Value = WorldSpec> {
        (
            (any::<u64>(), 2usize..=40, 1usize..=12, 1usize..=4),
            (0.3f64..=1.0, 2i64..=20, 0usize..=4, any::<bool>()),
        )
            .prop_map(
                |(
                    (seed, n_sources, n_objects, n_attributes),
                    (coverage, domain, clique, exact_copies),
                )| WorldSpec {
                    seed,
                    n_sources,
                    n_objects,
                    n_attributes,
                    coverage,
                    domain,
                    clique,
                    exact_copies,
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn engine_matches_the_reference_bit_for_bit(
            spec in world_spec(),
            max_iterations in 1u32..=30,
        ) {
            let d = random_world(&spec);
            let cfg = AccuConfig { max_iterations, ..AccuConfig::default() };
            for feat in [DEPEN, ACCU, ACCU_SIM] {
                let got = run_engine(&d.view_all(), &cfg, feat);
                let want = reference::run_engine(&d.view_all(), &cfg, reference_features(feat));
                prop_assert_eq!(bits(&got), bits(&want), "{:?} on {:?}", feat, spec);
            }
        }
    }

    #[test]
    fn engine_matches_the_reference_on_attribute_views() {
        // Group runs see a restricted view: fewer cells, same sources.
        let spec = WorldSpec {
            seed: 7,
            n_sources: 12,
            n_objects: 20,
            n_attributes: 4,
            coverage: 0.7,
            domain: 6,
            clique: 3,
            exact_copies: false,
        };
        let d = random_world(&spec);
        let cfg = AccuConfig::default();
        let attrs: Vec<_> = d.attribute_ids().collect();
        for view in [
            d.view_of(&attrs[..1]),
            d.view_of(&attrs[1..3]),
            d.view_all(),
        ] {
            for feat in [DEPEN, ACCU, ACCU_SIM] {
                let got = run_engine(&view, &cfg, feat);
                let want = reference::run_engine(&view, &cfg, reference_features(feat));
                assert_eq!(bits(&got), bits(&want), "{feat:?}");
            }
        }
    }

    /// `(kt, kf, kd)` of every pair `a < b`, counted from scratch over
    /// every cell's claim pairs under `pred`.
    fn recount(ws: &Workspace, pred: &[u32]) -> Vec<(u32, u32, u32)> {
        let n = ws.n_sources;
        let mut k = vec![(0, 0, 0); n * n];
        for (cell, &p) in ws.cells().zip(pred) {
            let m = cell.claim_sources.len();
            for i in 0..m {
                for j in (i + 1)..m {
                    let (si, sj) = (cell.claim_sources[i].index(), cell.claim_sources[j].index());
                    let e = &mut k[si.min(sj) * n + si.max(sj)];
                    let (vi, vj) = (cell.claim_cand[i], cell.claim_cand[j]);
                    if vi != vj {
                        e.2 += 1;
                    } else if vi == p {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
        }
        k
    }

    #[test]
    fn maintained_pair_counts_equal_a_recount_after_every_iteration() {
        let spec = WorldSpec {
            seed: 3,
            n_sources: 15,
            n_objects: 30,
            n_attributes: 3,
            coverage: 0.6,
            domain: 4,
            clique: 4,
            exact_copies: false,
        };
        let d = random_world(&spec);
        let view = d.view_all();
        let cfg = AccuConfig::default();
        let mut flips = 0;
        for feat in [DEPEN, ACCU, ACCU_SIM] {
            let mut engine = Engine::new(&view, &cfg, feat);
            for _ in 0..cfg.max_iterations {
                let before = engine.pred.clone();
                let converged = engine.iterate();
                flips += before
                    .iter()
                    .zip(&engine.pred)
                    .filter(|(a, b)| a != b)
                    .count();
                let fresh = recount(&engine.ws, &engine.pred);
                let n = engine.ws.n_sources;
                for a in 0..n {
                    for b in (a + 1)..n {
                        assert_eq!(
                            engine.pairs.kt_kf_kd(a, b),
                            fresh[a * n + b],
                            "pair ({a}, {b})"
                        );
                    }
                }
                if converged {
                    break;
                }
            }
        }
        assert!(flips > 0, "the world must exercise prediction flips");
    }

    #[test]
    fn degenerate_n_false_behaves_as_its_clamped_value() {
        // Non-finite or sub-1 `n_false` used to panic (Accu, AccuSim) or
        // return NaN confidences (Depen); it now acts as 1 or the cap.
        let d = copier_clique();
        let with = |n_false| AccuConfig {
            n_false,
            ..AccuConfig::default()
        };
        let variants: [fn(AccuConfig) -> Box<dyn TruthDiscovery>; 3] = [
            |c| Box::new(Depen::new(c)),
            |c| Box::new(Accu::new(c)),
            |c| Box::new(AccuSim::new(c)),
        ];
        for make in variants {
            let at_one = bits(&make(with(1.0)).discover(&d.view_all()));
            let at_cap = bits(&make(with(crate::common::N_FALSE_CAP)).discover(&d.view_all()));
            for (n_false, want) in [
                (0.0, &at_one),
                (-1.0, &at_one),
                (f64::NAN, &at_one),
                (f64::INFINITY, &at_cap),
            ] {
                let r = make(with(n_false)).discover(&d.view_all());
                for (_, _, _, c) in r.iter() {
                    assert!(
                        (0.0..=1.0).contains(&c),
                        "n_false {n_false}: confidence {c}"
                    );
                }
                assert!(r.source_trust.iter().all(|t| t.is_finite()));
                assert_eq!(&bits(&r), want, "{} with n_false {n_false}", r.iterations);
            }
        }
    }

    #[test]
    fn default_n_false_is_untouched_by_the_clamp() {
        let d = copier_clique();
        let cfg = AccuConfig::default();
        for feat in [DEPEN, ACCU, ACCU_SIM] {
            let got = run_engine(&d.view_all(), &cfg, feat);
            let want = reference::run_engine(&d.view_all(), &cfg, reference_features(feat));
            assert_eq!(bits(&got), bits(&want));
        }
    }
}
