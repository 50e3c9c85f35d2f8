//! Shared machinery for iterative truth-discovery algorithms: per-cell
//! candidate grouping, numerically-stable softmax, convergence tests, and
//! a precomputed per-view workspace.

use td_model::{
    AttributeId, Claim, DatasetView, ObjectId, SourceId, ValueId, ValueSimilarity,
};

/// One distinct claimed value of a cell with its supporter count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The distinct value.
    pub value: ValueId,
    /// Number of sources claiming it in this cell.
    pub count: u32,
    /// Working score (meaning is algorithm-specific).
    pub score: f64,
}

/// Groups a cell's claims into distinct candidates.
///
/// `cands` receives one entry per distinct value (scores zeroed) and
/// `claim_cand[i]` receives the candidate index of `claims[i]`. Both
/// buffers are caller-owned scratch, reused across cells to avoid per-cell
/// allocation. Candidates appear in order of first claim, and cells are
/// small (at most one claim per source), so the quadratic scan is cheap
/// and deterministic.
pub fn group_candidates(claims: &[Claim], cands: &mut Vec<Candidate>, claim_cand: &mut Vec<u32>) {
    cands.clear();
    claim_cand.clear();
    for claim in claims {
        let idx = match cands.iter().position(|c| c.value == claim.value) {
            Some(i) => {
                cands[i].count += 1;
                i
            }
            None => {
                cands.push(Candidate {
                    value: claim.value,
                    count: 1,
                    score: 0.0,
                });
                cands.len() - 1
            }
        };
        claim_cand.push(idx as u32);
    }
}

/// Index of the winning candidate: highest score, ties broken toward the
/// smallest [`ValueId`] so results never depend on grouping order.
pub fn argmax_candidate(cands: &[Candidate]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, c) in cands.iter().enumerate() {
        match best {
            None => best = Some(i),
            Some(b) => {
                let cb = &cands[b];
                if c.score > cb.score || (c.score == cb.score && c.value < cb.value) {
                    best = Some(i);
                }
            }
        }
    }
    best
}

/// Cosine similarity between two equal-length vectors; `1.0` for two
/// zero vectors (they are "as aligned as possible").
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (mut dot, mut na, mut nb) = (0.0, 0.0, 0.0);
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 && nb == 0.0 {
        return 1.0;
    }
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na.sqrt() * nb.sqrt())
}

/// Largest absolute element-wise difference between two vectors.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Clamps a probability-like score away from the 0 / 1 extremes so
/// log-odds stay finite (Dong et al. and Yin et al. both require this).
#[inline]
pub fn clamp_unit(p: f64, eps: f64) -> f64 {
    p.clamp(eps, 1.0 - eps)
}

/// Upper end of the `n_false` range the Bayesian vote engines accept
/// (see [`effective_n_false`]).
pub(crate) const N_FALSE_CAP: f64 = 1e12;

/// The number of false values per cell, `n`, that Accu's and DART's vote
/// weight `ln(n·A/(1−A))` and Accu's copy likelihoods use: the configured
/// value clamped into `[1, N_FALSE_CAP]`, with NaN counting as 1. Every
/// weight stays finite for a clamped accuracy `A`; any `n` in range,
/// including the papers' 100, passes through unchanged.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` would pass NaN through; `max` maps it to 1.
pub(crate) fn effective_n_false(n_false: f64) -> f64 {
    n_false.max(1.0).min(N_FALSE_CAP)
}

/// Replaces scores (log-odds / vote counts) by a probability
/// distribution via the max-shifted softmax. Safe on extreme scores; a
/// non-finite maximum degrades to uniform.
pub(crate) fn softmax(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !max.is_finite() {
        let u = 1.0 / scores.len() as f64;
        scores.fill(u);
        return;
    }
    let mut z = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        z += *s;
    }
    for s in scores.iter_mut() {
        *s /= z;
    }
}

/// One cell of a [`Workspace`], borrowed from its flat arrays.
#[derive(Debug, Clone, Copy)]
pub struct CellData<'a> {
    /// Object of the cell.
    pub object: ObjectId,
    /// Attribute of the cell.
    pub attribute: AttributeId,
    /// Workspace-wide index of the cell's first candidate: candidate `i`
    /// of the cell is entry `cand_base + i` of [`Workspace::values`].
    pub cand_base: usize,
    /// Distinct claimed values, in order of first claim.
    pub values: &'a [ValueId],
    /// Supporter count per candidate (parallel to `values`).
    pub counts: &'a [u32],
    /// Source of each claim of the cell, in the view's claim order.
    pub claim_sources: &'a [SourceId],
    /// Candidate index of each claim (parallel to `claim_sources`).
    pub claim_cand: &'a [u32],
    /// Pairwise similarities over `values`: the strict upper triangle of
    /// the symmetric, unit-diagonal `k×k` matrix, row-major, `k(k−1)/2`
    /// entries; empty when similarity was not requested. Read it through
    /// [`CellData::sim`].
    pub sim: &'a [f64],
}

impl CellData<'_> {
    /// Number of distinct candidates.
    #[inline]
    pub fn k(&self) -> usize {
        self.values.len()
    }

    /// Similarity between candidates `i` and `j` (requires the matrix).
    #[inline]
    pub fn sim(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        let (a, b) = (i.min(j), i.max(j));
        self.sim[a * (2 * self.values.len() - a - 1) / 2 + (b - a - 1)]
    }
}

/// Precomputed structure of a dataset view, shared by all iterative
/// algorithms in this crate.
///
/// Iterative algorithms walk the same cells dozens of times; grouping
/// claims into candidates and (optionally) evaluating pairwise value
/// similarities once up front turns every subsequent iteration into pure
/// arithmetic over flat vectors. Per-cell data lives in workspace-wide
/// arrays delimited by offset arrays with one entry per cell plus one:
/// cell `c` owns candidates `cand_off[c]..cand_off[c + 1]`, claims
/// `claim_off[c]..claim_off[c + 1]` and, with similarity,
/// `sim_off[c]..sim_off[c + 1]`. [`Workspace::cell`] borrows them back
/// as one [`CellData`].
#[derive(Debug, Clone)]
pub struct Workspace {
    /// Global source-id-space size.
    pub n_sources: usize,
    /// Number of claims each source has inside the view.
    pub claims_per_source: Vec<u32>,
    /// Object of each non-empty cell of the view.
    pub objects: Vec<ObjectId>,
    /// Attribute of each cell (parallel to `objects`).
    pub attributes: Vec<AttributeId>,
    /// Candidate offsets per cell.
    pub cand_off: Vec<usize>,
    /// Distinct values of every cell, cell after cell.
    pub values: Vec<ValueId>,
    /// Supporter count per candidate (parallel to `values`).
    pub counts: Vec<u32>,
    /// Claim offsets per cell.
    pub claim_off: Vec<usize>,
    /// Source of every claim; within a cell in the view's claim order.
    pub claim_sources: Vec<SourceId>,
    /// Cell-local candidate index of every claim (parallel to
    /// `claim_sources`).
    pub claim_cand: Vec<u32>,
    /// Similarity-matrix offsets per cell; empty without similarity.
    pub sim_off: Vec<usize>,
    /// Every cell's similarity triangle (see [`CellData::sim`]), cell
    /// after cell.
    pub sim: Vec<f64>,
}

impl Workspace {
    /// Builds the workspace; pass a [`ValueSimilarity`] to also
    /// precompute per-cell pairwise similarity matrices.
    pub fn build(view: &DatasetView<'_>, similarity: Option<&ValueSimilarity>) -> Self {
        let n_sources = view.n_sources();
        let n_cells = view.n_cells();
        let n_claims = view.n_claims();
        let mut ws = Self {
            n_sources,
            claims_per_source: vec![0; n_sources],
            objects: Vec::with_capacity(n_cells),
            attributes: Vec::with_capacity(n_cells),
            cand_off: Vec::with_capacity(n_cells + 1),
            values: Vec::with_capacity(n_claims),
            counts: Vec::with_capacity(n_claims),
            claim_off: Vec::with_capacity(n_cells + 1),
            claim_sources: Vec::with_capacity(n_claims),
            claim_cand: Vec::with_capacity(n_claims),
            sim_off: Vec::new(),
            sim: Vec::new(),
        };
        ws.cand_off.push(0);
        ws.claim_off.push(0);
        let mut cands: Vec<Candidate> = Vec::new();
        let mut claim_cand: Vec<u32> = Vec::new();

        for cell in view.cells() {
            let claims = view.cell_claims(cell);
            group_candidates(claims, &mut cands, &mut claim_cand);
            ws.objects.push(cell.object);
            ws.attributes.push(cell.attribute);
            ws.values.extend(cands.iter().map(|c| c.value));
            ws.counts.extend(cands.iter().map(|c| c.count));
            for claim in claims {
                ws.claim_sources.push(claim.source);
                ws.claims_per_source[claim.source.index()] += 1;
            }
            ws.claim_cand.extend_from_slice(&claim_cand);
            ws.cand_off.push(ws.values.len());
            ws.claim_off.push(ws.claim_sources.len());
        }

        if let Some(vs) = similarity {
            // Sized up front: growing one vector cell by cell would hold
            // up to twice the triangles at its peak.
            ws.sim_off.reserve(n_cells + 1);
            ws.sim_off.push(0);
            for k in ws.cand_off.windows(2).map(|w| w[1] - w[0]) {
                ws.sim_off
                    .push(ws.sim_off[ws.sim_off.len() - 1] + k * (k - 1) / 2);
            }
            ws.sim = Vec::with_capacity(ws.sim_off[n_cells]);
            for w in ws.cand_off.windows(2) {
                let values = &ws.values[w[0]..w[1]];
                for (i, &a) in values.iter().enumerate() {
                    for &b in &values[i + 1..] {
                        ws.sim.push(vs.sim(view.value(a), view.value(b)));
                    }
                }
            }
        }
        ws
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn n_cells(&self) -> usize {
        self.objects.len()
    }

    /// Number of candidates over all cells.
    #[inline]
    pub fn n_candidates(&self) -> usize {
        self.values.len()
    }

    /// Cell `c`, borrowed.
    #[inline]
    pub fn cell(&self, c: usize) -> CellData<'_> {
        let (k0, k1) = (self.cand_off[c], self.cand_off[c + 1]);
        let (m0, m1) = (self.claim_off[c], self.claim_off[c + 1]);
        let sim = if self.sim_off.is_empty() {
            &[][..]
        } else {
            &self.sim[self.sim_off[c]..self.sim_off[c + 1]]
        };
        CellData {
            object: self.objects[c],
            attribute: self.attributes[c],
            cand_base: k0,
            values: &self.values[k0..k1],
            counts: &self.counts[k0..k1],
            claim_sources: &self.claim_sources[m0..m1],
            claim_cand: &self.claim_cand[m0..m1],
            sim,
        }
    }

    /// Every cell, in view order.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = CellData<'_>> + '_ {
        (0..self.n_cells()).map(move |c| self.cell(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_model::{AttributeId, ObjectId, SourceId};

    fn claim(s: u32, v: u32) -> Claim {
        Claim::new(
            SourceId::new(s),
            ObjectId::new(0),
            AttributeId::new(0),
            ValueId::new(v),
        )
    }

    #[test]
    fn grouping_counts_supporters() {
        let claims = vec![claim(0, 5), claim(1, 7), claim(2, 5), claim(3, 5)];
        let mut cands = Vec::new();
        let mut map = Vec::new();
        group_candidates(&claims, &mut cands, &mut map);
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[0].value, ValueId::new(5));
        assert_eq!(cands[0].count, 3);
        assert_eq!(cands[1].value, ValueId::new(7));
        assert_eq!(cands[1].count, 1);
        assert_eq!(map, vec![0, 1, 0, 0]);
    }

    #[test]
    fn grouping_reuses_buffers() {
        let mut cands = vec![Candidate {
            value: ValueId::new(9),
            count: 99,
            score: 1.0,
        }];
        let mut map = vec![42];
        group_candidates(&[claim(0, 1)], &mut cands, &mut map);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].count, 1);
        assert_eq!(cands[0].score, 0.0);
        assert_eq!(map, vec![0]);
    }

    #[test]
    fn argmax_prefers_score_then_small_id() {
        let mut cands = vec![
            Candidate {
                value: ValueId::new(3),
                count: 1,
                score: 0.5,
            },
            Candidate {
                value: ValueId::new(1),
                count: 1,
                score: 0.5,
            },
            Candidate {
                value: ValueId::new(2),
                count: 1,
                score: 0.4,
            },
        ];
        assert_eq!(argmax_candidate(&cands), Some(1), "tie toward smaller id");
        cands[2].score = 0.9;
        assert_eq!(argmax_candidate(&cands), Some(2));
        assert_eq!(argmax_candidate(&[]), None);
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut scores = vec![1000.0, 998.0];
        softmax(&mut scores);
        let sum: f64 = scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(scores[0] > scores[1]);
        assert!(scores.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn softmax_handles_degenerate_inputs() {
        softmax(&mut []);
        for bad in [f64::NEG_INFINITY, f64::INFINITY, f64::NAN] {
            let mut scores = vec![bad, bad];
            softmax(&mut scores);
            assert_eq!(scores, vec![0.5, 0.5], "{bad}");
        }
    }

    #[test]
    fn effective_n_false_clamps_into_range() {
        assert_eq!(effective_n_false(100.0), 100.0);
        assert_eq!(effective_n_false(1.0), 1.0);
        for low in [0.0, -1.0, 0.5, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(effective_n_false(low), 1.0, "{low}");
        }
        assert_eq!(effective_n_false(f64::INFINITY), N_FALSE_CAP);
        let a = clamp_unit(1.0, 1e-6);
        assert!((N_FALSE_CAP * a / (1.0 - a)).ln().is_finite());
    }

    #[test]
    fn cosine_behaviour() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0], &[0.0]), 1.0);
        assert_eq!(cosine_similarity(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn max_abs_diff_finds_peak() {
        assert_eq!(max_abs_diff(&[1.0, 2.0], &[1.5, 1.0]), 1.0);
        assert_eq!(max_abs_diff(&[], &[]), 0.0);
    }

    #[test]
    fn clamp_unit_bounds() {
        assert_eq!(clamp_unit(1.5, 1e-6), 1.0 - 1e-6);
        assert_eq!(clamp_unit(-0.2, 1e-6), 1e-6);
        assert_eq!(clamp_unit(0.5, 1e-6), 0.5);
    }

    #[test]
    fn workspace_mirrors_view_structure() {
        use td_model::{DatasetBuilder, Value, ValueSimilarity};
        let mut b = DatasetBuilder::new();
        b.claim("s1", "o", "a", Value::text("x")).unwrap();
        b.claim("s2", "o", "a", Value::text("x")).unwrap();
        b.claim("s3", "o", "a", Value::text("y")).unwrap();
        b.claim("s1", "o", "b", Value::int(1)).unwrap();
        let d = b.build();
        let ws = Workspace::build(&d.view_all(), None);
        assert_eq!(ws.n_cells(), 2);
        assert_eq!(ws.n_candidates(), 3);
        assert_eq!(ws.cand_off.len(), 3);
        assert_eq!(ws.claim_off, vec![0, 3, 4]);
        assert_eq!(ws.n_sources, 3);
        let cell_a = ws
            .cells()
            .find(|c| c.attribute == d.attribute_id("a").unwrap())
            .unwrap();
        assert_eq!(cell_a.k(), 2);
        assert_eq!(cell_a.counts, &[2, 1]);
        assert_eq!(cell_a.claim_sources.len(), 3);
        assert_eq!(cell_a.claim_cand, &[0, 0, 1]);
        assert_eq!(ws.values[cell_a.cand_base], cell_a.values[0]);
        assert!(cell_a.sim.is_empty());
        let s1 = d.source_id("s1").unwrap();
        assert_eq!(ws.claims_per_source[s1.index()], 2);

        let ws_sim = Workspace::build(&d.view_all(), Some(&ValueSimilarity::default()));
        assert_eq!(ws_sim.sim_off, vec![0, 1, 1]);
        let cell_a = ws_sim
            .cells()
            .find(|c| c.attribute == d.attribute_id("a").unwrap())
            .unwrap();
        assert_eq!(cell_a.sim.len(), 1);
        assert_eq!(cell_a.sim(0, 0), 1.0);
        assert_eq!(cell_a.sim(0, 1), cell_a.sim(1, 0));
    }

    #[test]
    fn similarity_triangle_reads_back_every_pair() {
        use td_model::{DatasetBuilder, Value, ValueSimilarity};
        let mut b = DatasetBuilder::new();
        for (s, v) in [("s1", 10), ("s2", 11), ("s3", 40), ("s4", 10), ("s5", 900)] {
            b.claim(s, "o", "a", Value::int(v)).unwrap();
        }
        b.claim("s1", "o", "b", Value::int(1)).unwrap();
        let d = b.build();
        let vs = ValueSimilarity::default();
        let ws = Workspace::build(&d.view_all(), Some(&vs));
        for cell in ws.cells() {
            let k = cell.k();
            assert_eq!(cell.sim.len(), k * (k - 1) / 2);
            for i in 0..k {
                for j in 0..k {
                    let want = if i == j {
                        1.0
                    } else {
                        vs.sim(d.value(cell.values[i]), d.value(cell.values[j]))
                    };
                    assert_eq!(
                        cell.sim(i, j).to_bits(),
                        want.to_bits(),
                        "({i}, {j}) of {k}"
                    );
                }
            }
        }
    }
}
