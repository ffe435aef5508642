//! SQ8 scalar quantization: a u8 code table + a *sound* skip bound
//! that lets exact scan loops discard most candidates from cheap
//! integer arithmetic without ever changing their answers.
//!
//! # The code table
//!
//! Each dimension `j` gets an affine map `v ≈ min_j + s_j · c` with
//! `c ∈ {0..255}`, trained from the per-dimension min/max of the rows
//! (`s_j = (max_j − min_j)/255`). Encoding rounds and clamps; rows
//! appended after training (the live memtable) reuse the trained maps,
//! so out-of-range values saturate — which is fine, because the scan
//! never trusts codes for distances, only for the lower bound below.
//!
//! # The skip bound
//!
//! Write `u = (v − min_j)/s_j` for the exact (unrounded) code of a
//! value. The encoder `C(u) = clamp(round(u), 0, 255)` moves a value
//! by at most `0.5` before clamping, and clamping is 1-Lipschitz, so
//! for any two values (in range or not):
//!
//! ```text
//! |u_x − u_q| ≥ |C(u_x) − C(u_q)| − 1
//! ```
//!
//! Multiplying by `s_j` and summing squares with `s_min = min{s_j > 0}`
//! (dimensions with `s_j = 0` encode identically on both sides and
//! contribute 0 to both sides):
//!
//! ```text
//! ‖x − q‖² ≥ s_min² · Σ_j max(|Δc_j| − 1, 0)²
//! ```
//!
//! The right-hand side is exact integer arithmetic (u8 diffs squared
//! into u32 lanes, flushed to u64), i.e. a certified lower bound on
//! the squared Euclidean distance. A candidate is skipped only when
//! the bound already exceeds the current k-th distance by a safety
//! margin covering every float rounding effect in the f32 path — so
//! the surviving set always contains the exact f32 top-k, and results
//! stay bit-identical to the unquantized scan (pinned by proptests).
//!
//! # One evaluation per candidate
//!
//! The bound of a row does not depend on the k-th distance; only the
//! threshold it is compared with does, and over one scan that threshold
//! only shrinks. So a loop that looks at a candidate twice — once to
//! decide on a prefetch, once to decide for real — reads the code row
//! once: [`Sq8Pruner::bound_within`] either says "skipped" (and a row
//! skipped under a larger threshold is skipped under every later one)
//! or hands back the full bound, which [`Sq8Pruner::bound_skips`]
//! compares with the later threshold. Both answers are, by
//! construction, what [`Sq8Pruner::skips`] would say at that moment.
//!
//! Angular queries prune through the chord identity
//! `‖x − q‖² = 2 − 2·cos θ` — valid only on the unit sphere, so the
//! pruner activates only when every encoded row and the query are
//! unit-norm (within tolerance). Hamming/Jaccard never prune: their
//! distances are not monotone in Euclidean distance.

use crate::metric::{self, Metric};

/// Tolerance for the "is this vector unit-norm" check gating Angular
/// pruning. Normalized f32 data lands well inside this.
const UNIT_NORM_TOL: f64 = 1e-3;

/// u8 lane-difference squares stay below `u32::MAX` for this many
/// dimensions per flush: `4096 · 254² < 2³²`.
const CHUNK: usize = 4096;

/// Dimensions per early-exit block of [`code_bound_within`]: small
/// enough that most of the table is skipped after one or two blocks,
/// large enough for the inner loop to vectorize.
const BLOCK: usize = 16;

/// A trained SQ8 code table over a row-major f32 dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Sq8 {
    dim: usize,
    mins: Vec<f32>,
    scales: Vec<f32>,
    codes: Vec<u8>,
    /// `min{s_j : s_j > 0}`; `0.0` when every dimension is constant
    /// (then the bound is vacuous and pruning disables itself).
    s_min: f32,
    /// Every encoded row was unit-norm at encode time (gates Angular).
    unit_rows: bool,
}

impl Sq8 {
    /// Trains per-dimension affine maps on `flat` (row-major, `dim`
    /// columns) and encodes every row.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `flat.len()` is not a multiple of `dim`.
    pub fn train(flat: &[f32], dim: usize) -> Sq8 {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(flat.len() % dim, 0, "flat buffer is not a multiple of dim");
        let rows = flat.len() / dim;
        let mut mins = vec![f32::INFINITY; dim];
        let mut maxs = vec![f32::NEG_INFINITY; dim];
        for row in flat.chunks_exact(dim) {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        if rows == 0 {
            mins.fill(0.0);
            maxs.fill(0.0);
        }
        let scales: Vec<f32> = mins.iter().zip(&maxs).map(|(&lo, &hi)| (hi - lo) / 255.0).collect();
        let mut sq = Sq8 {
            dim,
            mins,
            scales,
            codes: Vec::with_capacity(flat.len()),
            s_min: 0.0,
            unit_rows: true,
        };
        sq.s_min = Sq8::positive_min(&sq.scales);
        for row in flat.chunks_exact(dim) {
            sq.append(row);
        }
        sq
    }

    /// Reassembles a table from persisted parts (snapshot restore).
    ///
    /// # Panics
    /// Panics on shape mismatches (`mins`/`scales` not `dim` long,
    /// `codes` not a multiple of `dim`).
    pub fn from_parts(
        dim: usize,
        mins: Vec<f32>,
        scales: Vec<f32>,
        codes: Vec<u8>,
        unit_rows: bool,
    ) -> Sq8 {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(mins.len(), dim, "mins length mismatch");
        assert_eq!(scales.len(), dim, "scales length mismatch");
        assert_eq!(codes.len() % dim, 0, "codes length is not a multiple of dim");
        let s_min = Sq8::positive_min(&scales);
        Sq8 { dim, mins, scales, codes, s_min, unit_rows }
    }

    fn positive_min(scales: &[f32]) -> f32 {
        let m = scales.iter().copied().filter(|&s| s > 0.0).fold(f32::INFINITY, f32::min);
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// Encodes one value through dimension `j`'s affine map. Computed
    /// in f64 so the only rounding step is the final `round()` — the
    /// skip bound's `−1` slack covers it (see module docs).
    #[inline]
    fn encode(&self, j: usize, v: f32) -> u8 {
        let s = self.scales[j];
        if s <= 0.0 {
            return 0;
        }
        let u = (f64::from(v) - f64::from(self.mins[j])) / f64::from(s);
        u.round().clamp(0.0, 255.0) as u8
    }

    /// Appends one row, encoding it with the trained maps (values
    /// outside the trained range saturate; the bound stays sound).
    ///
    /// # Panics
    /// Panics if `row.len() != dim`.
    pub fn append(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        for (j, &v) in row.iter().enumerate() {
            let c = self.encode(j, v);
            self.codes.push(c);
        }
        if self.unit_rows && (metric::norm(row) - 1.0).abs() > UNIT_NORM_TOL {
            self.unit_rows = false;
        }
    }

    /// Drops all code rows beyond the first `rows` (live-insert
    /// rollback). A no-op if the table already holds fewer rows.
    pub fn truncate(&mut self, rows: usize) {
        self.codes.truncate(rows * self.dim);
    }

    /// Number of encoded rows.
    pub fn rows(&self) -> usize {
        self.codes.len() / self.dim
    }

    /// True when no rows are encoded.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dimensionality of the table.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-dimension minima of the affine maps.
    pub fn mins(&self) -> &[f32] {
        &self.mins
    }

    /// Per-dimension scales of the affine maps.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The flat row-major code matrix.
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Whether every encoded row was unit-norm at encode time.
    pub fn unit_rows(&self) -> bool {
        self.unit_rows
    }

    /// Code row `i`.
    #[inline]
    pub fn code_row(&self, i: usize) -> &[u8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    /// Reconstructs the approximate value of code row `i` (testing /
    /// introspection; the scan loops never use dequantized values).
    pub fn dequantize(&self, i: usize) -> Vec<f32> {
        self.code_row(i)
            .iter()
            .enumerate()
            .map(|(j, &c)| self.mins[j] + self.scales[j] * f32::from(c))
            .collect()
    }

    /// Encodes an external query vector through the trained maps.
    ///
    /// # Panics
    /// Panics if `q.len() != dim`.
    pub fn encode_query(&self, q: &[f32]) -> Vec<u8> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        q.iter().enumerate().map(|(j, &v)| self.encode(j, v)).collect()
    }

    /// Builds a skip-bound pruner for `q` under `metric`, or `None`
    /// when pruning cannot be sound or useful: non-Euclidean-monotone
    /// metrics (Hamming/Jaccard), an all-constant table (`s_min = 0`),
    /// an empty table, or an Angular query off the unit sphere.
    pub fn pruner(&self, q: &[f32], m: Metric) -> Option<Sq8Pruner<'_>> {
        if q.len() != self.dim || self.is_empty() || self.s_min <= 0.0 {
            return None;
        }
        match m {
            Metric::Euclidean => {}
            Metric::Angular => {
                if !self.unit_rows || (metric::norm(q) - 1.0).abs() > UNIT_NORM_TOL {
                    return None;
                }
            }
            Metric::Hamming | Metric::Jaccard => return None,
        }
        Some(Sq8Pruner {
            sq: self,
            qcode: self.encode_query(q),
            metric: m,
            inv_s2: 1.0 / (f64::from(self.s_min) * f64::from(self.s_min)),
            last_kth: f64::NAN,
            limit: u64::MAX,
        })
    }
}

/// Certified lower bound on `‖x − q‖²` in squared-code units:
/// `Σ_j max(|Δc_j| − 1, 0)²`, computed exactly in integers.
#[inline]
pub fn code_bound_sq(q: &[u8], x: &[u8]) -> u64 {
    debug_assert_eq!(q.len(), x.len());
    let mut total = 0u64;
    for (qc, xc) in q.chunks(CHUNK).zip(x.chunks(CHUNK)) {
        let mut acc = 0u32;
        for (&a, &b) in qc.iter().zip(xc.iter()) {
            // The lane difference fits u8, so the square fits u16
            // (254² < 2¹⁶): keeping the multiply in 16-bit lanes lets
            // the loop vectorize at twice the width of a u32 multiply.
            let t = u16::from(a.abs_diff(b).saturating_sub(1));
            acc += u32::from(t * t);
        }
        total += u64::from(acc);
    }
    total
}

/// `code_bound_sq(q, x)` when it does not exceed `limit`, `None` when it
/// does — decided block by block, bailing out as soon as the partial sum
/// (which only ever grows) already crosses the limit. For a scan where
/// most candidates are prunable, this touches only the first block or two
/// of most code rows, making the bound several times cheaper than the
/// full f32 distance it replaces; for the rest it has read the whole row
/// and hands back the number, so a caller that will meet a smaller limit
/// later compares the number instead of reading the row again.
///
/// Exactly `Some(b).filter(|&b| b <= limit)` for `b = code_bound_sq(q, x)`:
/// every partial sum is a lower bound on the total, so an early `None` can
/// never disagree with the full evaluation.
#[inline]
pub fn code_bound_within(q: &[u8], x: &[u8], limit: u64) -> Option<u64> {
    debug_assert_eq!(q.len(), x.len());
    let mut acc = 0u64;
    let mut qi = q.chunks_exact(BLOCK);
    let mut xi = x.chunks_exact(BLOCK);
    for (qc, xc) in (&mut qi).zip(&mut xi) {
        let mut block = 0u32;
        for (&a, &b) in qc.iter().zip(xc.iter()) {
            let t = u16::from(a.abs_diff(b).saturating_sub(1));
            block += u32::from(t * t);
        }
        acc += u64::from(block);
        if acc > limit {
            return None;
        }
    }
    let mut tail = 0u32;
    for (&a, &b) in qi.remainder().iter().zip(xi.remainder().iter()) {
        let t = u16::from(a.abs_diff(b).saturating_sub(1));
        tail += u32::from(t * t);
    }
    Some(acc + u64::from(tail)).filter(|&bound| bound <= limit)
}

/// Whether `code_bound_sq(q, x)` exceeds `limit`
/// ([`code_bound_within`] saying `None`).
#[inline]
pub fn code_bound_exceeds(q: &[u8], x: &[u8], limit: u64) -> bool {
    code_bound_within(q, x, limit).is_none()
}

/// A per-query skip filter over one [`Sq8`] table.
///
/// `skips(row, kth)` answers "is row `row` *provably* too far to beat
/// the current k-th surrogate distance `kth`?" — `true` only when the
/// certified bound exceeds `kth` by the full safety margin, so a scan
/// that consults it returns results bit-identical to one that does
/// not. Callers should only consult it once their top-k heap is full.
pub struct Sq8Pruner<'a> {
    sq: &'a Sq8,
    qcode: Vec<u8>,
    metric: Metric,
    inv_s2: f64,
    last_kth: f64,
    /// `⌊d2_limit(kth) / s_min²⌋` — the skip threshold in squared-code
    /// units, memoized until `kth` changes. Integral because the bound
    /// itself is an integer: `lb > ⌊limit⌋ ⟺ lb > limit` for any
    /// non-negative real limit, so flooring loses nothing and lets the
    /// scan compare (and early-exit) in pure integer arithmetic.
    limit: u64,
}

impl Sq8Pruner<'_> {
    /// Converts the metric's k-th *surrogate* distance into a skip
    /// threshold on true squared Euclidean distance, inflated by
    /// margins that absorb every rounding effect of the f32 path
    /// (4-lane f32 accumulation, `acos`, near-unit norms).
    fn d2_limit(&self, kth_surrogate: f64) -> f64 {
        let rel = 1e-3 + self.sq.dim as f64 * 1e-6;
        match self.metric {
            // Surrogate is already squared Euclidean distance.
            Metric::Euclidean => kth_surrogate * (1.0 + rel),
            // Surrogate is θ; on the (near-)unit sphere
            // ‖x−q‖² = 2 − 2cosθ up to the norm tolerance, which the
            // extra relative + absolute slack covers.
            Metric::Angular => {
                let chord_sq = 2.0 - 2.0 * kth_surrogate.cos();
                chord_sq * (1.0 + 4e-3 + rel) + 1e-5 + self.sq.dim as f64 * 1e-6
            }
            Metric::Hamming | Metric::Jaccard => {
                unreachable!("pruner is never constructed for non-Euclidean-monotone metrics")
            }
        }
    }

    /// Hints the CPU to start loading code row `row` into cache
    /// ([`mm::prefetch_read`]), ahead of the [`Sq8Pruner::skips`] call
    /// that will read it. Never changes a result.
    ///
    /// # Panics
    /// Panics if `row` is not an encoded row.
    #[inline]
    pub fn prefetch_code_row(&self, row: usize) {
        mm::prefetch_read(self.sq.code_row(row));
    }

    /// The skip threshold in squared-code units for the k-th surrogate
    /// distance `kth_surrogate` (memoized until it changes). Monotone: a
    /// smaller k-th never gives a larger threshold.
    #[inline]
    fn limit_for(&mut self, kth_surrogate: f64) -> u64 {
        if kth_surrogate != self.last_kth {
            self.last_kth = kth_surrogate;
            let l = self.d2_limit(kth_surrogate) * self.inv_s2;
            // Saturate the conversion: an infinite (or absurdly large)
            // limit must mean "never skip", and a NaN (impossible for
            // finite inputs, but belt-and-braces) must not collapse to
            // zero and start skipping everything.
            self.limit = if l.is_nan() { u64::MAX } else { l as u64 };
        }
        self.limit
    }

    /// Whether code row `row` is provably outside the current top-k
    /// given the k-th surrogate distance `kth_surrogate`.
    #[inline]
    pub fn skips(&mut self, row: usize, kth_surrogate: f64) -> bool {
        self.bound_within(row, kth_surrogate).is_none()
    }

    /// [`Sq8Pruner::skips`] that keeps what it computed: `None` when the
    /// row is skipped, its full certified bound (squared-code units) when
    /// it is not. The k-th distance of a scan only shrinks, so a `None`
    /// stays a skip for the rest of the scan, and a kept bound answers
    /// the question again under a later k-th through
    /// [`Sq8Pruner::bound_skips`] — the code row is read once.
    #[inline]
    pub fn bound_within(&mut self, row: usize, kth_surrogate: f64) -> Option<u64> {
        let limit = self.limit_for(kth_surrogate);
        code_bound_within(&self.qcode, self.sq.code_row(row), limit)
    }

    /// What [`Sq8Pruner::skips`] would answer for the row whose bound
    /// [`Sq8Pruner::bound_within`] returned as `bound`, under the k-th
    /// distance `kth_surrogate` of now.
    #[inline]
    pub fn bound_skips(&mut self, bound: u64, kth_surrogate: f64) -> bool {
        bound > self.limit_for(kth_surrogate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_to_flat(rows: &[Vec<f32>]) -> (Vec<f32>, usize) {
        let dim = rows[0].len();
        (rows.iter().flatten().copied().collect(), dim)
    }

    #[test]
    fn quantize_dequantize_error_is_within_half_scale() {
        let rows =
            vec![vec![0.0f32, -5.0, 100.0], vec![1.0, 5.0, 100.0], vec![0.25, 0.0, 100.0]];
        let (flat, dim) = rows_to_flat(&rows);
        let sq = Sq8::train(&flat, dim);
        assert_eq!(sq.rows(), 3);
        for (i, row) in rows.iter().enumerate() {
            let deq = sq.dequantize(i);
            for j in 0..dim {
                let err = (row[j] - deq[j]).abs();
                assert!(
                    f64::from(err) <= f64::from(sq.scales()[j]) * 0.5 + 1e-6,
                    "row {i} dim {j}: err {err} > scale/2 {}",
                    sq.scales()[j] / 2.0
                );
            }
        }
        // The constant dimension is exact and does not poison s_min.
        assert_eq!(sq.scales()[2], 0.0);
        assert!(sq.s_min > 0.0);
    }

    #[test]
    fn bound_is_a_true_lower_bound() {
        let rows = vec![
            vec![0.0f32, 1.0, 2.0, 3.0],
            vec![4.0, 3.0, 2.0, 1.0],
            vec![-1.0, -2.0, 5.5, 0.5],
        ];
        let (flat, dim) = rows_to_flat(&rows);
        let sq = Sq8::train(&flat, dim);
        let q = vec![0.5f32, 0.5, 0.5, 0.5];
        let qc = sq.encode_query(&q);
        for (i, row) in rows.iter().enumerate() {
            let lb = code_bound_sq(&qc, sq.code_row(i)) as f64
                * f64::from(sq.s_min)
                * f64::from(sq.s_min);
            let true_d2 = metric::squared_euclidean(row, &q);
            assert!(lb <= true_d2 + 1e-9, "row {i}: bound {lb} exceeds true {true_d2}");
        }
    }

    #[test]
    fn appended_out_of_range_rows_saturate_but_stay_sound() {
        let rows = vec![vec![0.0f32, 0.0], vec![1.0, 1.0]];
        let (flat, dim) = rows_to_flat(&rows);
        let mut sq = Sq8::train(&flat, dim);
        sq.append(&[10.0, -10.0]); // far outside the trained range
        assert_eq!(sq.rows(), 3);
        assert_eq!(sq.code_row(2), &[255, 0], "values clamp to the code range");
        let q = vec![10.0f32, -10.0];
        let qc = sq.encode_query(&q);
        let lb = code_bound_sq(&qc, sq.code_row(2)) as f64
            * f64::from(sq.s_min)
            * f64::from(sq.s_min);
        // True distance is 0; the bound must not exceed it.
        assert_eq!(lb, 0.0);
    }

    #[test]
    fn truncate_rolls_back_appends() {
        let rows = vec![vec![0.0f32], vec![1.0]];
        let (flat, dim) = rows_to_flat(&rows);
        let mut sq = Sq8::train(&flat, dim);
        sq.append(&[0.5]);
        assert_eq!(sq.rows(), 3);
        sq.truncate(2);
        assert_eq!(sq.rows(), 2);
        sq.truncate(5);
        assert_eq!(sq.rows(), 2, "truncating beyond the end is a no-op");
    }

    #[test]
    fn pruner_gating() {
        let rows = vec![vec![1.0f32, 0.0], vec![0.0, 1.0]];
        let (flat, dim) = rows_to_flat(&rows);
        let sq = Sq8::train(&flat, dim);
        let q = [1.0f32, 0.0];
        assert!(sq.pruner(&q, Metric::Euclidean).is_some());
        assert!(sq.pruner(&q, Metric::Angular).is_some(), "unit rows + unit query activate");
        assert!(sq.pruner(&q, Metric::Hamming).is_none());
        assert!(sq.pruner(&q, Metric::Jaccard).is_none());
        assert!(sq.pruner(&[5.0, 0.0], Metric::Angular).is_none(), "non-unit query deactivates");
        assert!(sq.pruner(&[1.0], Metric::Euclidean).is_none(), "dim mismatch deactivates");
        // Non-unit rows deactivate Angular but not Euclidean.
        let sq2 = Sq8::train(&[3.0f32, 4.0, 1.0, 0.0], 2);
        assert!(!sq2.unit_rows());
        assert!(sq2.pruner(&q, Metric::Angular).is_none());
        assert!(sq2.pruner(&q, Metric::Euclidean).is_some());
        // All-constant tables never prune.
        let sq3 = Sq8::train(&[2.0f32, 2.0, 2.0, 2.0], 2);
        assert!(sq3.pruner(&q, Metric::Euclidean).is_none());
    }

    #[test]
    fn pruner_never_skips_a_winner() {
        // Exhaustive-ish randomized check: for every candidate the
        // pruner skips, its true surrogate must exceed the kth value.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        for _ in 0..50 {
            let dim = rng.gen_range(1..24);
            let n = rng.gen_range(1..80);
            let flat: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let sq = Sq8::train(&flat, dim);
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let Some(mut p) = sq.pruner(&q, Metric::Euclidean) else { continue };
            for i in 0..n {
                let s = metric::squared_euclidean(&flat[i * dim..(i + 1) * dim], &q);
                // Use every other row's surrogate as a hypothetical kth.
                for j in 0..n {
                    let kth = metric::squared_euclidean(&flat[j * dim..(j + 1) * dim], &q);
                    if p.skips(i, kth) {
                        assert!(s > kth, "skipped row {i} with s={s} <= kth={kth}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let rows = vec![vec![0.0f32, 2.0], vec![1.0, 3.0]];
        let (flat, dim) = rows_to_flat(&rows);
        let sq = Sq8::train(&flat, dim);
        let back = Sq8::from_parts(
            sq.dim(),
            sq.mins().to_vec(),
            sq.scales().to_vec(),
            sq.codes().to_vec(),
            sq.unit_rows(),
        );
        assert_eq!(back, sq);
    }

    #[test]
    fn code_bound_within_agrees_with_the_full_bound() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xb10c);
        // Lengths straddling the early-exit block size (the remainder-only
        // and empty cases included), then whole blocks and a row longer
        // than one flush chunk of `code_bound_sq`.
        let random_dims: Vec<usize> = (0..200).map(|_| rng.gen_range(0..3 * BLOCK + 5)).collect();
        for dim in random_dims.into_iter().chain([1, 15, 16, 17, 128, CHUNK + 1]) {
            let q: Vec<u8> = (0..dim).map(|_| rng.gen()).collect();
            let x: Vec<u8> = (0..dim).map(|_| rng.gen()).collect();
            let full = code_bound_sq(&q, &x);
            // Probe right at the decision boundary and around it.
            for limit in [0, full.saturating_sub(1), full, full + 1, u64::MAX] {
                let want = (full <= limit).then_some(full);
                assert_eq!(code_bound_within(&q, &x, limit), want, "dim {dim} full {full} limit {limit}");
                assert_eq!(code_bound_exceeds(&q, &x, limit), full > limit);
            }
        }
    }

    #[test]
    fn a_kept_bound_answers_like_a_fresh_evaluation() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xb0a7);
        let (dim, n) = (20, 60);
        let flat: Vec<f32> = (0..n * dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let sq = Sq8::train(&flat, dim);
        let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-4.0..4.0)).collect();
        let mut p = sq.pruner(&q, Metric::Euclidean).expect("non-constant table");
        let dists: Vec<f64> =
            flat.chunks_exact(dim).map(|row| metric::squared_euclidean(row, &q)).collect();
        for row in 0..n {
            for &early in &dists {
                let kept = p.bound_within(row, early);
                assert_eq!(kept.is_none(), p.skips(row, early));
                // Any later k-th is no larger than the one the bound was
                // taken under.
                for &late in dists.iter().filter(|&&d| d <= early) {
                    let fresh = p.skips(row, late);
                    match kept {
                        None => assert!(fresh, "a skip stays a skip as the k-th shrinks"),
                        Some(b) => assert_eq!(p.bound_skips(b, late), fresh),
                    }
                }
            }
        }
    }

    #[test]
    fn code_bound_handles_long_vectors_without_overflow() {
        // Worst-case lane value everywhere, beyond one flush chunk.
        let dim = CHUNK + 17;
        let q = vec![0u8; dim];
        let x = vec![255u8; dim];
        let expect = (dim as u64) * 254 * 254;
        assert_eq!(code_bound_sq(&q, &x), expect);
    }
}
