//! Bit-packed binary matrices and the popcount Hamming kernels.
//!
//! TD-AC's hot path is the pairwise Hamming distance matrix over 0/1
//! attribute truth vectors (paper Eq. 2). On the dense [`Matrix`] that
//! costs an `O(d)` float loop per pair; packing each row into `u64`
//! words turns it into `⌈d/64⌉` XOR + `count_ones` word operations —
//! and because the distances are exact small-integer counts (every
//! intermediate sum is ≤ 2⁵³ and exactly representable), the packed
//! kernel is **bit-identical** to the dense `f64` path, not merely
//! close. See `docs/KERNELS.md` for the dispatch rules.
//!
//! The inner loops are written over 4-word chunks with independent
//! accumulators so the compiler can autovectorize them; no SIMD
//! intrinsics or non-vendored dependencies are involved.
//!
//! The same words feed the packed k-means: its screen reads the AND +
//! popcount pair counts of every two rows, and its centroids are exact
//! column counts over member rows, held bit-sliced (`SlicedCounts`) so
//! they are updated and read with word operations too.

use serde::{Deserialize, Serialize};

use crate::matrix::Matrix;

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Which kernels `pairwise_distances` and the k-means fits may use.
///
/// The packed distance kernel applies only when the data is binary
/// (packable) and the metric has an exact count form on 0/1 vectors
/// ([`crate::Metric::count_form`]); the packed k-means only needs
/// binary data. Outside that envelope every policy falls back to the
/// dense `f64` path. Results are bit-identical either way — the
/// policy is a performance knob and a pin for parity tests, never a
/// semantics switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelPolicy {
    /// Use the packed kernel whenever it applies (the default).
    #[default]
    Auto,
    /// Never pack; always run the dense `f64` kernel. Exists so parity
    /// gates can pin the reference path.
    Dense,
    /// Use the packed kernel whenever representable (today identical to
    /// `Auto`; `Auto` is free to grow heuristics, `Packed` is not).
    Packed,
}

/// A binary matrix with rows packed LSB-first into `u64` words, plus an
/// optional validity mask of the same shape for masked/ablation runs.
///
/// Column `j` of row `i` lives at bit `j % 64` of word `j / 64` of that
/// row's strip; bits beyond `n_cols` in the last word are always zero
/// (an invariant every constructor and setter maintains, so the XOR
/// kernels never need a tail mask).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Validity words (`1` = coordinate observed), or `None` when every
    /// coordinate counts. Same layout as `bits`.
    mask: Option<Vec<u64>>,
}

impl BitMatrix {
    /// A `rows × cols` all-zero matrix with no validity mask.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let words_per_row = cols.div_ceil(WORD_BITS);
        Self {
            rows,
            cols,
            words_per_row,
            bits: vec![0; rows * words_per_row],
            mask: None,
        }
    }

    /// A `rows × cols` all-zero matrix with an all-unobserved validity
    /// mask (use [`BitMatrix::set_observed`] while scattering claims).
    pub fn zeros_masked(rows: usize, cols: usize) -> Self {
        let mut m = Self::zeros(rows, cols);
        m.mask = Some(vec![0; rows * m.words_per_row]);
        m
    }

    /// Packs a dense matrix whose entries are all exactly `0.0` or
    /// `1.0`; returns `None` as soon as any entry is anything else
    /// (the caller then stays on the dense path).
    pub fn pack(dense: &Matrix) -> Option<Self> {
        let mut m = Self::zeros(dense.n_rows(), dense.n_cols());
        for (i, row) in dense.iter_rows().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v == 1.0 {
                    m.set_bit(i, j, true);
                } else if v != 0.0 {
                    return None;
                }
            }
        }
        Some(m)
    }

    /// Packs a dense 0/1 `values` matrix together with its 0/1
    /// observation `mask` (same shape). Returns `None` if either matrix
    /// has a non-binary entry or the shapes differ.
    pub fn pack_masked(values: &Matrix, mask: &Matrix) -> Option<Self> {
        if values.n_rows() != mask.n_rows() || values.n_cols() != mask.n_cols() {
            return None;
        }
        let mut m = Self::zeros_masked(values.n_rows(), values.n_cols());
        for i in 0..values.n_rows() {
            for (j, (&v, &ob)) in values.row(i).iter().zip(mask.row(i)).enumerate() {
                match ob {
                    1.0 => m.set_observed(i, j),
                    0.0 => {}
                    _ => return None,
                }
                match v {
                    1.0 => m.set_bit(i, j, true),
                    0.0 => {}
                    _ => return None,
                }
            }
        }
        Some(m)
    }

    /// Reassembles a matrix from raw word buffers in the exact layout
    /// [`BitMatrix::words`] exposes — how the `td-store` binary format
    /// loads a stored truth page. Returns `None` unless the buffers have
    /// exactly `rows × ⌈cols/64⌉` words **and** every row's tail bits
    /// beyond `cols` are zero (the invariant the XOR kernels rely on);
    /// a corrupt buffer is rejected, never repaired.
    pub fn from_words(
        rows: usize,
        cols: usize,
        bits: Vec<u64>,
        mask: Option<Vec<u64>>,
    ) -> Option<Self> {
        let words_per_row = cols.div_ceil(WORD_BITS);
        let expect = rows.checked_mul(words_per_row)?;
        if bits.len() != expect {
            return None;
        }
        if let Some(m) = &mask {
            if m.len() != expect {
                return None;
            }
        }
        let live = cols % WORD_BITS;
        if live != 0 && words_per_row > 0 {
            let dead = !((1u64 << live) - 1);
            for i in 0..rows {
                let last = i * words_per_row + words_per_row - 1;
                if bits[last] & dead != 0 {
                    return None;
                }
                if let Some(m) = &mask {
                    if m[last] & dead != 0 {
                        return None;
                    }
                }
            }
        }
        Some(Self {
            rows,
            cols,
            words_per_row,
            bits,
            mask,
        })
    }

    /// The whole packed word buffer, rows concatenated
    /// (`rows × words_per_row` words) — the serialization counterpart of
    /// [`BitMatrix::from_words`].
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// The whole validity-mask word buffer (same layout as
    /// [`BitMatrix::words`]), when a mask is attached.
    #[inline]
    pub fn mask_words_all(&self) -> Option<&[u64]> {
        self.mask.as_deref()
    }

    /// Number of rows (observations).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (bit dimensions).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.cols
    }

    /// `u64` words per packed row (`⌈n_cols / 64⌉`).
    #[inline]
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Whether a validity mask is attached.
    pub fn has_mask(&self) -> bool {
        self.mask.is_some()
    }

    /// Sets bit `(i, j)`.
    ///
    /// # Panics
    /// Panics if `j >= n_cols` (which would corrupt the zero-tail
    /// invariant) or `i >= n_rows`.
    #[inline]
    pub fn set_bit(&mut self, i: usize, j: usize, on: bool) {
        assert!(i < self.rows && j < self.cols, "bit ({i}, {j}) out of range");
        let w = i * self.words_per_row + j / WORD_BITS;
        let b = 1u64 << (j % WORD_BITS);
        if on {
            self.bits[w] |= b;
        } else {
            self.bits[w] &= !b;
        }
    }

    /// Reads bit `(i, j)`.
    #[inline]
    pub fn get_bit(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols, "bit ({i}, {j}) out of range");
        let w = i * self.words_per_row + j / WORD_BITS;
        self.bits[w] >> (j % WORD_BITS) & 1 == 1
    }

    /// Marks coordinate `(i, j)` observed in the validity mask.
    ///
    /// # Panics
    /// Panics if the matrix has no mask (construct with
    /// [`BitMatrix::zeros_masked`] or [`BitMatrix::pack_masked`]) or the
    /// coordinate is out of range.
    #[inline]
    pub fn set_observed(&mut self, i: usize, j: usize) {
        assert!(i < self.rows && j < self.cols, "bit ({i}, {j}) out of range");
        let w = i * self.words_per_row + j / WORD_BITS;
        let mask = self.mask.as_mut().expect("BitMatrix has no validity mask");
        mask[w] |= 1u64 << (j % WORD_BITS);
    }

    /// Whether coordinate `(i, j)` is observed in the validity mask.
    ///
    /// # Panics
    /// Panics if the matrix has no mask or the coordinate is out of
    /// range.
    #[inline]
    pub fn is_observed(&self, i: usize, j: usize) -> bool {
        assert!(i < self.rows && j < self.cols, "bit ({i}, {j}) out of range");
        let w = i * self.words_per_row + j / WORD_BITS;
        let mask = self.mask.as_ref().expect("BitMatrix has no validity mask");
        mask[w] >> (j % WORD_BITS) & 1 == 1
    }

    /// The packed words of row `i`.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// The validity words of row `i`, when a mask is attached.
    #[inline]
    pub fn mask_words(&self, i: usize) -> Option<&[u64]> {
        let m = self.mask.as_ref()?;
        Some(&m[i * self.words_per_row..(i + 1) * self.words_per_row])
    }

    /// Hamming distance between rows `i` and `j`: the exact number of
    /// disagreeing bit positions (the validity mask, if any, is
    /// ignored — see [`BitMatrix::masked_counts`] for the masked form).
    #[inline]
    pub fn hamming(&self, i: usize, j: usize) -> u64 {
        hamming_words(self.row_words(i), self.row_words(j))
    }

    /// Masked disagreement counts between rows `i` and `j`:
    /// `(disagreements, co_observed)` over the coordinates both rows'
    /// validity masks cover.
    ///
    /// # Panics
    /// Panics if the matrix has no validity mask.
    #[inline]
    pub fn masked_counts(&self, i: usize, j: usize) -> (u64, u64) {
        let (mi, mj) = (
            self.mask_words(i).expect("BitMatrix has no validity mask"),
            self.mask_words(j).expect("BitMatrix has no validity mask"),
        );
        masked_hamming_words(self.row_words(i), self.row_words(j), mi, mj)
    }

    /// Appends `extra` all-zero columns to every row, re-laying-out the
    /// word strips when `words_per_row` grows. Existing bits keep their
    /// positions and the tail-zero invariant holds for the new width
    /// (new columns are zero, and old tail bits were already zero). The
    /// validity mask, if any, is re-laid-out identically (new columns
    /// unobserved).
    pub fn append_cols(&mut self, extra: usize) {
        if extra == 0 {
            return;
        }
        let new_cols = self.cols + extra;
        let new_words = new_cols.div_ceil(WORD_BITS);
        if new_words != self.words_per_row {
            self.bits = relayout(&self.bits, self.rows, self.words_per_row, new_words);
            if let Some(mask) = &self.mask {
                self.mask = Some(relayout(mask, self.rows, self.words_per_row, new_words));
            }
            self.words_per_row = new_words;
        }
        self.cols = new_cols;
    }

    /// Appends `extra` all-zero rows (all-unobserved when a validity
    /// mask is attached).
    pub fn append_zero_rows(&mut self, extra: usize) {
        self.rows += extra;
        self.bits.resize(self.rows * self.words_per_row, 0);
        if let Some(mask) = &mut self.mask {
            mask.resize(self.rows * self.words_per_row, 0);
        }
    }

    /// Clears every bit of row `i` (the validity mask, if any, is left
    /// untouched — callers rescattering a row re-mark observations
    /// themselves).
    pub fn clear_row(&mut self, i: usize) {
        assert!(i < self.rows, "row {i} out of range");
        self.bits[i * self.words_per_row..(i + 1) * self.words_per_row].fill(0);
    }

    /// Unpacks to a dense `f64` matrix (values only; the validity mask
    /// is not representable in a plain [`Matrix`]).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for j in 0..self.cols {
                if self.get_bit(i, j) {
                    m.set(i, j, 1.0);
                }
            }
        }
        m
    }
}

/// Copies row strips from an `old_words`-per-row layout into a wider
/// `new_words`-per-row buffer, zero-filling the new trailing words.
fn relayout(words: &[u64], rows: usize, old_words: usize, new_words: usize) -> Vec<u64> {
    let mut out = vec![0u64; rows * new_words];
    for i in 0..rows {
        out[i * new_words..i * new_words + old_words]
            .copy_from_slice(&words[i * old_words..(i + 1) * old_words]);
    }
    out
}

/// XOR + popcount over two equal-length word strips, chunked by four
/// words with independent accumulators so the loop autovectorizes.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let (ca, ra) = a.split_at(a.len() & !3);
    let (cb, rb) = b.split_at(ca.len());
    let mut acc = [0u64; 4];
    for (wa, wb) in ca.chunks_exact(4).zip(cb.chunks_exact(4)) {
        acc[0] += u64::from((wa[0] ^ wb[0]).count_ones());
        acc[1] += u64::from((wa[1] ^ wb[1]).count_ones());
        acc[2] += u64::from((wa[2] ^ wb[2]).count_ones());
        acc[3] += u64::from((wa[3] ^ wb[3]).count_ones());
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for (wa, wb) in ra.iter().zip(rb) {
        total += u64::from((wa ^ wb).count_ones());
    }
    total
}

/// AND + popcount over two equal-length word strips: the columns both
/// rows set.
#[inline]
pub(crate) fn and_count_words(a: &[u64], b: &[u64]) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// Exact per-column counts over a set of packed rows, held bit-sliced:
/// bit `j` of plane `b` is bit `b` of column `j`'s count. This is a
/// binary k-means centroid before the division by its member count, in
/// a form that is updated and read a word at a time.
#[derive(Debug)]
pub(crate) struct SlicedCounts {
    words: usize,
    /// `⌊log₂ capacity⌋ + 1` planes of `words` words each.
    planes: Vec<u64>,
    members: u64,
}

impl SlicedCounts {
    /// An empty counter over `words`-word rows that can absorb up to
    /// `capacity` rows.
    pub(crate) fn new(words: usize, capacity: u64) -> Self {
        let n_planes = (u64::BITS - capacity.leading_zeros()) as usize;
        Self {
            words,
            planes: vec![0; n_planes * words],
            members: 0,
        }
    }

    /// Rows added so far (the centroid's member count `m`).
    #[inline]
    pub(crate) fn members(&self) -> u64 {
        self.members
    }

    /// Planes that can hold a nonzero bit: every count is at most
    /// `members`, so planes at or above its bit length are zero.
    #[inline]
    fn active_planes(&self) -> usize {
        (u64::BITS - self.members.leading_zeros()) as usize
    }

    /// Resets every count to zero.
    pub(crate) fn clear(&mut self) {
        self.planes.fill(0);
        self.members = 0;
    }

    /// Adds one packed row: a bit-sliced ripple-carry increment of every
    /// column the row sets, `words × planes` word operations at most.
    ///
    /// # Panics
    /// Panics if the counter is already at its capacity.
    pub(crate) fn add(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.words);
        self.members += 1;
        let top = self.active_planes();
        assert!(
            top * self.words <= self.planes.len(),
            "SlicedCounts over capacity"
        );
        for (w, &bits) in row.iter().enumerate() {
            let mut carry = bits;
            let mut b = 0;
            // Counts never exceed `members`, so the carry dies below `top`.
            while carry != 0 && b < top {
                let plane = &mut self.planes[b * self.words + w];
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
                b += 1;
            }
        }
    }

    /// Writes the count of every column position, `64·words` of them
    /// (positions past the last column count 0).
    pub(crate) fn write_counts(&self, out: &mut [u32]) {
        debug_assert_eq!(out.len(), self.words * WORD_BITS);
        out.fill(0);
        for (b, plane) in self
            .planes
            .chunks_exact(self.words)
            .take(self.active_planes())
            .enumerate()
        {
            for (&word, slots) in plane.iter().zip(out.chunks_exact_mut(WORD_BITS)) {
                for (bit, slot) in slots.iter_mut().enumerate() {
                    *slot |= ((word >> bit) as u32 & 1) << b;
                }
            }
        }
    }

    /// Fills `full` with the columns whose count is `members` and
    /// `mixed` with those whose count is strictly between 0 and
    /// `members` (the other columns, tail bits included, count 0).
    pub(crate) fn uniform_columns(&self, full: &mut [u64], mixed: &mut [u64]) {
        let top = self.active_planes();
        for w in 0..self.words {
            let (mut all, mut any) = (u64::MAX, 0u64);
            for b in 0..top {
                let plane = self.planes[b * self.words + w];
                all &= if self.members >> b & 1 == 1 {
                    plane
                } else {
                    !plane
                };
                any |= plane;
            }
            full[w] = all;
            mixed[w] = any & !all;
        }
    }

    /// Writes `fl(cnt_j / m)` for every column `j` of `out` — the value
    /// the dense update step's sum-then-divide produces, since its f64
    /// sums of 0/1 entries are the exact counts.
    pub(crate) fn write_means(&self, out: &mut [f64]) {
        let m = self.members.max(1) as f64;
        let mut counts = vec![0u32; self.words * WORD_BITS];
        self.write_counts(&mut counts);
        for (slot, &cnt) in out.iter_mut().zip(&counts) {
            *slot = f64::from(cnt) / m;
        }
    }
}

/// Masked variant of [`hamming_words`]: returns
/// `(popcount((a ^ b) & ma & mb), popcount(ma & mb))` — disagreements
/// and co-observed coordinates in one pass.
#[inline]
pub fn masked_hamming_words(a: &[u64], b: &[u64], ma: &[u64], mb: &[u64]) -> (u64, u64) {
    debug_assert!(a.len() == b.len() && a.len() == ma.len() && a.len() == mb.len());
    let mut diff = 0u64;
    let mut co = 0u64;
    for i in 0..a.len() {
        let both = ma[i] & mb[i];
        co += u64::from(both.count_ones());
        diff += u64::from(((a[i] ^ b[i]) & both).count_ones());
    }
    (diff, co)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrips_through_dense() {
        for cols in [1usize, 7, 63, 64, 65, 130] {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|r| (0..cols).map(|c| f64::from(u8::from((r * 13 + c * 7) % 3 == 0))).collect())
                .collect();
            let dense = Matrix::from_rows(&rows);
            let packed = BitMatrix::pack(&dense).expect("binary input packs");
            assert_eq!(packed.n_rows(), 5);
            assert_eq!(packed.n_cols(), cols);
            assert_eq!(packed.words_per_row(), cols.div_ceil(64));
            assert_eq!(packed.to_dense(), dense, "cols = {cols}");
        }
    }

    #[test]
    fn pack_rejects_non_binary_values() {
        assert!(BitMatrix::pack(&Matrix::from_rows(&[vec![0.0, 0.5]])).is_none());
        assert!(BitMatrix::pack(&Matrix::from_rows(&[vec![-1.0]])).is_none());
        assert!(BitMatrix::pack(&Matrix::from_rows(&[vec![2.0]])).is_none());
    }

    #[test]
    fn hamming_counts_disagreements_across_word_boundaries() {
        for cols in [63usize, 64, 65, 200] {
            let mut m = BitMatrix::zeros(2, cols);
            // Row 0 has every third bit set, row 1 every fourth.
            let mut expect = 0u64;
            for j in 0..cols {
                let a = j % 3 == 0;
                let b = j % 4 == 0;
                m.set_bit(0, j, a);
                m.set_bit(1, j, b);
                expect += u64::from(a != b);
            }
            assert_eq!(m.hamming(0, 1), expect, "cols = {cols}");
            assert_eq!(m.hamming(1, 0), expect);
            assert_eq!(m.hamming(0, 0), 0);
        }
    }

    #[test]
    fn tail_bits_stay_zero() {
        // 65 columns: the second word has 63 dead bits. Setting and
        // clearing the last live column must not disturb them.
        let mut m = BitMatrix::zeros(1, 65);
        m.set_bit(0, 64, true);
        assert_eq!(m.row_words(0)[1], 1);
        m.set_bit(0, 64, false);
        assert_eq!(m.row_words(0)[1], 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bit_panics() {
        BitMatrix::zeros(1, 10).set_bit(0, 10, true);
    }

    #[test]
    fn masked_counts_cover_only_co_observed_coordinates() {
        let mut m = BitMatrix::zeros_masked(2, 70);
        assert!(m.has_mask());
        // Coordinates 0..40 observed on row 0, 20..70 on row 1 — overlap
        // is 20..40. Disagreements planted at 25 and 66 (outside).
        for j in 0..40 {
            m.set_observed(0, j);
        }
        for j in 20..70 {
            m.set_observed(1, j);
        }
        assert!(m.is_observed(0, 39) && !m.is_observed(0, 40));
        assert!(!m.is_observed(1, 19) && m.is_observed(1, 69));
        m.set_bit(0, 25, true);
        m.set_bit(1, 66, true);
        let (diff, co) = m.masked_counts(0, 1);
        assert_eq!(co, 20);
        assert_eq!(diff, 1, "only the disagreement at 25 is co-observed");
    }

    #[test]
    fn all_missing_rows_have_zero_co_observation() {
        let mut m = BitMatrix::zeros_masked(2, 130);
        for j in 0..130 {
            m.set_observed(0, j);
        }
        // Row 1 never observed anything.
        let (diff, co) = m.masked_counts(0, 1);
        assert_eq!((diff, co), (0, 0));
    }

    #[test]
    fn pack_masked_matches_scatter_construction() {
        let values = Matrix::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 1.0, 0.0]]);
        let mask = Matrix::from_rows(&[vec![1.0, 1.0, 0.0], vec![1.0, 1.0, 1.0]]);
        let m = BitMatrix::pack_masked(&values, &mask).expect("binary inputs pack");
        let (diff, co) = m.masked_counts(0, 1);
        assert_eq!(co, 2);
        assert_eq!(diff, 2, "columns 0 and 1 disagree; column 2 is not co-observed");
        // Shape mismatch and fractional entries are rejected.
        assert!(BitMatrix::pack_masked(&values, &Matrix::zeros(2, 2)).is_none());
        let frac = Matrix::from_rows(&[vec![0.5, 0.0, 0.0], vec![0.0, 0.0, 0.0]]);
        assert!(BitMatrix::pack_masked(&frac, &mask).is_none());
    }

    #[test]
    fn append_cols_preserves_bits_across_word_growth() {
        for (cols, extra) in [(63usize, 1usize), (63, 2), (64, 1), (65, 64), (10, 0)] {
            let mut m = BitMatrix::zeros(3, cols);
            for j in (0..cols).step_by(3) {
                m.set_bit(1, j, true);
            }
            let before = m.to_dense();
            m.append_cols(extra);
            assert_eq!(m.n_cols(), cols + extra);
            assert_eq!(m.words_per_row(), (cols + extra).div_ceil(64));
            let after = m.to_dense();
            for i in 0..3 {
                assert_eq!(&after.row(i)[..cols], before.row(i), "cols={cols} extra={extra}");
                assert!(after.row(i)[cols..].iter().all(|&v| v == 0.0));
            }
        }
    }

    #[test]
    fn append_cols_preserves_mask_layout() {
        let mut m = BitMatrix::zeros_masked(2, 64);
        for j in 0..64 {
            m.set_observed(0, j);
        }
        m.set_bit(0, 5, true);
        m.set_bit(1, 5, true);
        m.append_cols(6);
        // Old co-observation untouched; new columns unobserved.
        for j in 0..64 {
            m.set_observed(1, j);
        }
        let (diff, co) = m.masked_counts(0, 1);
        assert_eq!((diff, co), (0, 64));
        // New columns are appendable after growth.
        m.set_observed(0, 69);
        m.set_observed(1, 69);
        m.set_bit(0, 69, true);
        let (diff, co) = m.masked_counts(0, 1);
        assert_eq!((diff, co), (1, 65));
    }

    #[test]
    fn append_zero_rows_and_clear_row() {
        let mut m = BitMatrix::zeros(1, 65);
        m.set_bit(0, 64, true);
        m.append_zero_rows(2);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.hamming(0, 1), 1);
        assert_eq!(m.hamming(1, 2), 0);
        m.clear_row(0);
        assert_eq!(m.hamming(0, 1), 0);
    }

    #[test]
    fn word_kernels_match_scalar_reference() {
        let a: Vec<u64> = (0..9).map(|i| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i + 1)).collect();
        let b: Vec<u64> = (0..9).map(|i| 0xc2b2_ae3d_27d4_eb4fu64.wrapping_mul(i + 3)).collect();
        let scalar: u64 = a.iter().zip(&b).map(|(x, y)| u64::from((x ^ y).count_ones())).sum();
        assert_eq!(hamming_words(&a, &b), scalar);
        let common: u32 = a.iter().zip(&b).map(|(x, y)| (x & y).count_ones()).sum();
        assert_eq!(and_count_words(&a, &b), u64::from(common));
        let ma = vec![u64::MAX; 9];
        let mb: Vec<u64> = (0..9).map(|i| 0x5555_5555_5555_5555u64.rotate_left(i)).collect();
        let (diff, co) = masked_hamming_words(&a, &b, &ma, &mb);
        let co_ref: u64 = mb.iter().map(|m| u64::from(m.count_ones())).sum();
        let diff_ref: u64 = a
            .iter()
            .zip(&b)
            .zip(&mb)
            .map(|((x, y), m)| u64::from(((x ^ y) & m).count_ones()))
            .sum();
        assert_eq!((diff, co), (diff_ref, co_ref));
    }

    #[test]
    fn sliced_counts_match_column_sums() {
        for cols in [1usize, 63, 64, 65, 130] {
            let rows = 11;
            let mut m = BitMatrix::zeros(rows, cols);
            for i in 0..rows {
                for j in 0..cols {
                    m.set_bit(i, j, (i * 7 + j * 13) % 5 < 2 || i % 4 == 0);
                }
            }
            let words = m.words_per_row();
            let mut counts = SlicedCounts::new(words, rows as u64);
            for i in 0..rows {
                counts.add(m.row_words(i));
            }
            let want: Vec<u32> = (0..words * WORD_BITS)
                .map(|j| (0..rows).filter(|&i| j < cols && m.get_bit(i, j)).count() as u32)
                .collect();
            let mut got = vec![0u32; words * WORD_BITS];
            counts.write_counts(&mut got);
            assert_eq!(got, want, "cols = {cols}");
            assert_eq!(counts.members(), rows as u64);
            let (mut full, mut mixed) = (vec![0u64; words], vec![0u64; words]);
            counts.uniform_columns(&mut full, &mut mixed);
            for (j, &c) in want.iter().enumerate() {
                let (w, b) = (j / WORD_BITS, j % WORD_BITS);
                assert_eq!(full[w] >> b & 1 == 1, c == rows as u32, "full, column {j}");
                assert_eq!(
                    mixed[w] >> b & 1 == 1,
                    c > 0 && c < rows as u32,
                    "mixed, column {j}"
                );
            }
            let mut means = vec![0.0; cols];
            counts.write_means(&mut means);
            assert!(means
                .iter()
                .zip(&want)
                .all(|(&q, &c)| q == f64::from(c) / rows as f64));
            counts.clear();
            counts.write_counts(&mut got);
            assert_eq!(counts.members(), 0);
            assert!(got.iter().all(|&c| c == 0));
        }
    }

    #[test]
    #[should_panic(expected = "over capacity")]
    fn sliced_counts_refuse_rows_past_capacity() {
        let mut counts = SlicedCounts::new(1, 1);
        counts.add(&[1]);
        counts.add(&[1]);
    }

    #[test]
    fn kernel_policy_default_is_auto() {
        assert_eq!(KernelPolicy::default(), KernelPolicy::Auto);
    }
}
