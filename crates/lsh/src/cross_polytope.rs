//! The cross-polytope family for Angular distance
//! (Terasawa–Tanaka 2007; Andoni et al., NeurIPS 2015) — the paper's Eq. (3):
//!
//! ```text
//! h_A(o) = argmin_j || u_j − A·o / ||A·o|| ||,   u_j ∈ {± e_i}
//! ```
//!
//! i.e. rotate the (normalized) input and snap it to the nearest signed
//! standard basis vector — a vertex of the d-dimensional cross-polytope.
//! The symbol space has 2·d' values (`d'` = padded dimension).
//!
//! Two rotation backends are provided:
//!
//! * [`Rotation::Dense`] — a true Gaussian matrix, O(d²) per hash, the
//!   textbook construction used for correctness baselines;
//! * [`Rotation::FastHadamard`] — FALCONN's pseudo-random rotation
//!   `H D₃ H D₂ H D₁` with random sign diagonals, O(d log d) per hash, which
//!   is what makes cross-polytope hashing practical at Gist-like d = 960.

use crate::family::{LshFunction, ScoredAlt};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, StandardNormal};

/// Rotation backend for [`CrossPolytope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rotation {
    /// Dense Gaussian random rotation (exact, O(d²)).
    Dense,
    /// Three Hadamard-transform blocks with random sign flips (O(d log d)).
    FastHadamard,
}

/// One sampled cross-polytope hash function.
#[derive(Debug, Clone)]
pub struct CrossPolytope {
    dim: usize,
    padded: usize,
    backend: Backend,
}

#[derive(Debug, Clone)]
enum Backend {
    /// Row-major `padded × dim` Gaussian matrix.
    Dense(Vec<f32>),
    /// Three ±1 diagonals of length `padded`.
    Fast([Vec<f32>; 3]),
}

/// Encodes a polytope vertex `± e_i` as a symbol: `2 i + (sign < 0)`.
#[inline]
pub fn vertex_to_symbol(axis: usize, negative: bool) -> u64 {
    (axis as u64) << 1 | u64::from(negative)
}

/// Decodes a symbol back to `(axis, negative)`.
#[inline]
pub fn symbol_to_vertex(sym: u64) -> (usize, bool) {
    ((sym >> 1) as usize, sym & 1 == 1)
}

impl CrossPolytope {
    /// Samples a function for input dimension `dim`.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn sample(dim: usize, rotation: Rotation, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let padded = dim.next_power_of_two();
        let mut rng = StdRng::seed_from_u64(seed);
        let backend = match rotation {
            Rotation::Dense => {
                let mut mat = vec![0.0f32; padded * dim];
                for x in &mut mat {
                    let g: f64 = StandardNormal.sample(&mut rng);
                    *x = g as f32;
                }
                Backend::Dense(mat)
            }
            Rotation::FastHadamard => {
                let mut diags: [Vec<f32>; 3] = Default::default();
                for d in &mut diags {
                    *d = (0..padded).map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 }).collect();
                }
                Backend::Fast(diags)
            }
        };
        Self { dim, padded, backend }
    }

    /// The rotated vector `A·v` (padded to a power of two).
    pub fn rotate(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.dim, "dimension mismatch");
        match &self.backend {
            Backend::Dense(mat) => {
                let mut out = vec![0.0f32; self.padded];
                for (r, o) in out.iter_mut().enumerate() {
                    let row = &mat[r * self.dim..(r + 1) * self.dim];
                    *o = dataset::metric::dot(row, v) as f32;
                }
                out
            }
            Backend::Fast(diags) => {
                let mut buf = vec![0.0f32; self.padded];
                buf[..self.dim].copy_from_slice(v);
                for diag in diags {
                    for (x, s) in buf.iter_mut().zip(diag) {
                        *x *= s;
                    }
                    fht(&mut buf);
                }
                buf
            }
        }
    }

    /// The index of the winning axis and its signed value, i.e. the argmax of
    /// |y_i| over the rotated vector y.
    fn argmax(&self, v: &[f32]) -> (usize, f32) {
        let y = self.rotate(v);
        let mut best = 0usize;
        let mut best_abs = -1.0f32;
        for (i, &x) in y.iter().enumerate() {
            if x.abs() > best_abs {
                best_abs = x.abs();
                best = i;
            }
        }
        (best, y[best])
    }

    /// Number of distinct symbols: `2 × padded`.
    pub fn num_vertices(&self) -> usize {
        2 * self.padded
    }
}

/// In-place fast Walsh–Hadamard transform (unnormalized). Length must be a
/// power of two.
pub fn fht(buf: &mut [f32]) {
    debug_assert!(buf.len().is_power_of_two());
    let mut h = 1;
    while h < buf.len() {
        let mut i = 0;
        while i < buf.len() {
            for j in i..i + h {
                let x = buf[j];
                let y = buf[j + h];
                buf[j] = x + y;
                buf[j + h] = x - y;
            }
            i += 2 * h;
        }
        h *= 2;
    }
}

impl LshFunction for CrossPolytope {
    #[inline]
    fn hash(&self, v: &[f32]) -> u64 {
        let (axis, val) = self.argmax(v);
        vertex_to_symbol(axis, val < 0.0)
    }

    /// Other polytope vertices ranked by proximity to the rotated query.
    /// For a unit vector y, `||y − u||² = 2 − 2·⟨y, u⟩`, so ranking vertices
    /// by decreasing signed coordinate magnitude is exact; the score stored
    /// is `max_coord − |y_i|` (0 for the best alternative), matching
    /// FALCONN's log-likelihood-style ordering up to monotone transform.
    fn alternatives(&self, v: &[f32], max_alts: usize) -> Vec<ScoredAlt> {
        nearest_alternatives(vertex_scores(&self.rotate(v)), max_alts)
    }
}

/// Every vertex of the polytope scored by its squared distance to the
/// rotated query `y` (normalized), in symbol order.
fn vertex_scores(y: &[f32]) -> Vec<ScoredAlt> {
    let norm = dataset::metric::norm(y).max(1e-30);
    let mut scored: Vec<ScoredAlt> = Vec::with_capacity(2 * y.len());
    for (i, &x) in y.iter().enumerate() {
        let xi = f64::from(x) / norm;
        // vertex +e_i at distance² 2 − 2·xi ; vertex −e_i at 2 + 2·xi.
        scored.push(ScoredAlt { symbol: vertex_to_symbol(i, false), score: 2.0 - 2.0 * xi });
        scored.push(ScoredAlt { symbol: vertex_to_symbol(i, true), score: 2.0 + 2.0 * xi });
    }
    scored
}

/// The `max_alts` best-scored vertices after the best one (the base hash
/// itself), ascending by score, equal scores by symbol — the list a stable
/// sort of [`vertex_scores`]' symbol-ordered output would begin with, found
/// by selecting the `max_alts + 1` smallest and sorting only those.
fn nearest_alternatives(mut scored: Vec<ScoredAlt>, max_alts: usize) -> Vec<ScoredAlt> {
    let rank = |a: &ScoredAlt, b: &ScoredAlt| {
        a.score.total_cmp(&b.score).then(a.symbol.cmp(&b.symbol))
    };
    if max_alts < scored.len() {
        scored.select_nth_unstable_by(max_alts, rank);
        scored.truncate(max_alts + 1);
    }
    scored.sort_unstable_by(rank);
    // The first entry is the base hash itself; drop it.
    scored.remove(0);
    scored.truncate(max_alts);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_symbol_roundtrip() {
        for axis in [0usize, 1, 7, 100] {
            for neg in [false, true] {
                assert_eq!(symbol_to_vertex(vertex_to_symbol(axis, neg)), (axis, neg));
            }
        }
    }

    #[test]
    fn fht_matches_direct_hadamard() {
        let mut v = vec![1.0f32, 2.0, 3.0, 4.0];
        fht(&mut v);
        // H4 * [1,2,3,4] = [10, -2, -4, 0]
        assert_eq!(v, vec![10.0, -2.0, -4.0, 0.0]);
    }

    #[test]
    fn fht_is_self_inverse_up_to_scale() {
        let orig = vec![0.5f32, -1.0, 2.0, 0.25, 3.0, -0.5, 1.5, 0.0];
        let mut v = orig.clone();
        fht(&mut v);
        fht(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert!((a / 8.0 - b).abs() < 1e-5);
        }
    }

    #[test]
    fn hash_is_deterministic_and_in_range() {
        for rot in [Rotation::Dense, Rotation::FastHadamard] {
            let f = CrossPolytope::sample(10, rot, 3);
            let v = vec![0.3f32; 10];
            assert_eq!(f.hash(&v), f.hash(&v));
            assert!((f.hash(&v) as usize) < f.num_vertices());
        }
    }

    #[test]
    fn nearby_directions_collide_more() {
        let dim = 24;
        let base: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7).sin()).collect();
        let mut close = base.clone();
        close[0] += 0.1;
        let far: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.7 + 2.0).cos()).collect();

        for rot in [Rotation::Dense, Rotation::FastHadamard] {
            let mut cc = 0;
            let mut cf = 0;
            for s in 0..300 {
                let f = CrossPolytope::sample(dim, rot, s);
                let hb = f.hash(&base);
                cc += u32::from(f.hash(&close) == hb);
                cf += u32::from(f.hash(&far) == hb);
            }
            assert!(cc > cf + 30, "{rot:?}: close {cc} vs far {cf}");
        }
    }

    #[test]
    fn antipodal_points_get_opposite_vertices() {
        let f = CrossPolytope::sample(16, Rotation::Dense, 11);
        let v: Vec<f32> = (0..16).map(|i| (i as f32).cos()).collect();
        let neg: Vec<f32> = v.iter().map(|x| -x).collect();
        let (a1, n1) = symbol_to_vertex(f.hash(&v));
        let (a2, n2) = symbol_to_vertex(f.hash(&neg));
        assert_eq!(a1, a2);
        assert_ne!(n1, n2);
    }

    #[test]
    fn alternatives_exclude_base_and_are_sorted() {
        let f = CrossPolytope::sample(12, Rotation::FastHadamard, 9);
        let v: Vec<f32> = (0..12).map(|i| (i as f32 * 1.3).sin()).collect();
        let base = f.hash(&v);
        let alts = f.alternatives(&v, 10);
        assert_eq!(alts.len(), 10);
        assert!(alts.iter().all(|a| a.symbol != base));
        for w in alts.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        // First alternative of a cross-polytope hash is typically the
        // second-largest |coordinate| vertex; its score must be ≥ 0 (base's
        // own score is the minimum).
        assert!(alts[0].score >= 0.0);
    }

    #[test]
    fn rotation_preserves_norm_fast() {
        // HD blocks are orthogonal up to scaling: ||rot(v)|| = c · ||v||
        // with c = padded^{3/2} for three unnormalized Hadamard passes.
        let f = CrossPolytope::sample(8, Rotation::FastHadamard, 2);
        let v = vec![1.0f32, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let u = vec![0.0f32, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let nv = dataset::metric::norm(&f.rotate(&v));
        let nu = dataset::metric::norm(&f.rotate(&u));
        assert!((nv - nu).abs() / nv < 1e-5);
    }

    /// A rotated query: random coordinates, coordinates drawn from a few
    /// magnitudes (so `|y_i|` repeats and scores tie, across signs too),
    /// or the zero vector (every score equal).
    fn rotated() -> impl proptest::prelude::Strategy<Value = Vec<f32>> {
        use proptest::prelude::*;
        (0usize..3, 0usize..=4).prop_flat_map(|(kind, log_len)| {
            let len = 1 << log_len;
            (
                proptest::collection::vec(-1.0f32..1.0, len),
                proptest::collection::vec(-2i32..=2, len),
            )
                .prop_map(move |(random, small)| match kind {
                    0 => random,
                    1 => small.into_iter().map(|x| x as f32).collect(),
                    _ => vec![0.0; len],
                })
        })
    }

    proptest::proptest! {
        /// Select-then-sort keeps exactly what the full stable sort kept,
        /// for every `max_alts` from none to more than there are.
        #[test]
        fn nearest_alternatives_equal_the_full_stable_sort(y in rotated()) {
            let scored = vertex_scores(&y);
            let mut sorted = scored.clone();
            sorted.sort_by(|a, b| a.score.total_cmp(&b.score));
            sorted.remove(0);
            for max_alts in 0..=scored.len() {
                let want = &sorted[..max_alts.min(sorted.len())];
                proptest::prop_assert_eq!(nearest_alternatives(scored.clone(), max_alts), want);
            }
        }
    }
}
