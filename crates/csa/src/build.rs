//! Algorithm 1 — building the Circular Shift Array.
//!
//! For each rotation `s ∈ {0..m-1}` the CSA stores three arrays over the
//! `n` strings, beside the strings themselves:
//!
//! * `I_s` (`sorted`, `u32`): the ids of all `n` strings, sorted by the
//!   lexicographic order of their rotation-`s` views;
//! * `N_s` (`next`, `u32`): for each *position* `j` in `I_s`, the position
//!   of the same string in `I_{(s+1) % m}` — the "next links" that let
//!   Algorithm 2 narrow its binary search range from one rotation to the
//!   next (Lemma 3.1);
//! * `L_s` (`lcp`, `u8`): for each position `j`, the LCP of the
//!   rotation-`s` views of the strings at positions `j` and `j + 1` of
//!   `I_s`, saturated at 255 — the adjacent-LCP array every suffix array
//!   carries. It is a property of the index, not of any query, and it is
//!   what lets Algorithm 2's merge step without reading a string
//!   ([`crate::search`]).
//!
//! With the strings stored as `u16` symbols ([`crate::circ`]) that is
//! 2 + 4 + 4 + 1 = 11 bytes per string per rotation (`O(n m)`,
//! Theorem 3.1; 17 bytes in the `u64` fallback). Indexing takes
//! `O(m n log n)` string comparisons, each `O(1)` expected for strings of
//! i.i.d. symbols; `L_s` is filled right after `I_s` is sorted, on the same
//! thread, for `n` more comparisons per rotation.

use crate::circ::{cmp_shifted, lcp_shifted, with_symbols, StringSet, Symbol};

/// The Circular Shift Array over a [`StringSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csa {
    pub(crate) set: StringSet,
    /// `m × n`, rotation-major: `sorted[s*n + j]` = id at position j of I_s.
    pub(crate) sorted: Vec<u32>,
    /// `m × n`: `next[s*n + j]` = position in I_{(s+1)%m} of the string at
    /// position j of I_s.
    pub(crate) next: Vec<u32>,
    /// `m × n`: `lcp[s*n + j]` = LCP of the rotation-`s` views at positions
    /// `j` and `j + 1` of I_s, saturated at 255 (0 at `j = n − 1`, which
    /// has no successor). Derived from `set` and `sorted`; not persisted.
    pub(crate) lcp: Vec<u8>,
}

/// Row `id` of a flat row-major buffer of length-`m` strings.
#[inline]
pub(crate) fn row_of<S>(data: &[S], m: usize, id: u32) -> &[S] {
    &data[id as usize * m..(id as usize + 1) * m]
}

/// Fills `lcps` with the adjacent LCPs of `ids` = `I_s` (the `lcp` field's
/// definition).
fn adjacent_lcps<S: Symbol>(data: &[S], m: usize, s: usize, ids: &[u32], lcps: &mut [u8]) {
    for (pair, out) in ids.windows(2).zip(lcps.iter_mut()) {
        let len = lcp_shifted(row_of(data, m, pair[0]), row_of(data, m, pair[1]), s);
        *out = len.min(usize::from(u8::MAX)) as u8;
    }
}

/// Calls `fill(s, I_s, L_s)` for every rotation `s` of an `m × n` pair of
/// arrays, the rotations spread over the available cores.
fn for_each_rotation(
    n: usize,
    sorted: &mut [u32],
    lcp: &mut [u8],
    fill: impl Fn(usize, &mut [u32], &mut [u8]) + Sync,
) {
    let m = sorted.len() / n;
    let threads = std::thread::available_parallelism().map_or(4, |p| p.get()).min(16);
    let per = m.div_ceil(threads).max(1);
    std::thread::scope(|scope| {
        let slabs = sorted.chunks_mut(per * n).zip(lcp.chunks_mut(per * n));
        for (t, (ids, lcps)) in slabs.enumerate() {
            let fill = &fill;
            scope.spawn(move || {
                let rotations = ids.chunks_exact_mut(n).zip(lcps.chunks_exact_mut(n));
                for (r, (ids, lcps)) in rotations.enumerate() {
                    fill(t * per + r, ids, lcps);
                }
            });
        }
    });
}

impl Csa {
    /// Builds the CSA (Algorithm 1). Rotations are sorted in parallel.
    ///
    /// # Panics
    /// Panics if the set is empty or `n` exceeds `u32::MAX`.
    pub fn build(set: StringSet) -> Self {
        assert!(!set.is_empty(), "cannot build a CSA over zero strings");
        assert!(set.len() <= u32::MAX as usize, "string ids must fit in u32");
        let n = set.len();
        let m = set.m();

        // Line 2: I_s = argsort(shift(T, s)) for every rotation, and the
        // adjacent LCPs of the sorted order while its rows are still warm.
        let mut sorted = vec![0u32; m * n];
        let mut lcp = vec![0u8; m * n];
        with_symbols!(set.symbols(), data => for_each_rotation(n, &mut sorted, &mut lcp, |s, ids, lcps| {
            for (j, v) in ids.iter_mut().enumerate() {
                *v = j as u32;
            }
            ids.sort_unstable_by(|&a, &b| cmp_shifted(row_of(data, m, a), row_of(data, m, b), s));
            adjacent_lcps(data, m, s, ids, lcps);
        }));

        // Lines 3–7: next links via the position-of-id table of the
        // following rotation.
        let mut next = vec![0u32; m * n];
        let mut pos = vec![0u32; n];
        for s in 0..m {
            let succ = (s + 1) % m;
            for j in 0..n {
                pos[sorted[succ * n + j] as usize] = j as u32;
            }
            for j in 0..n {
                next[s * n + j] = pos[sorted[s * n + j] as usize];
            }
        }

        Self { set, sorted, next, lcp }
    }

    /// Reassembles a CSA from its persisted arrays, recomputing the
    /// derived `lcp` array the way [`Csa::build`] fills it. `sorted` and
    /// `next` are `m × n` with every entry `< n` (the decoder's check).
    pub(crate) fn from_persisted(set: StringSet, mut sorted: Vec<u32>, next: Vec<u32>) -> Self {
        let (n, m) = (set.len(), set.m());
        let mut lcp = vec![0u8; m * n];
        with_symbols!(set.symbols(), data => for_each_rotation(n, &mut sorted, &mut lcp, |s, ids, lcps| {
            adjacent_lcps(data, m, s, ids, lcps);
        }));
        Self { set, sorted, next, lcp }
    }

    /// Number of indexed strings `n`.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when empty (never: construction requires n ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// String length `m`.
    pub fn m(&self) -> usize {
        self.set.m()
    }

    /// The indexed strings.
    pub fn strings(&self) -> &StringSet {
        &self.set
    }

    /// Id at position `j` of sorted index `I_s` (s is 0-based rotation).
    #[inline]
    pub(crate) fn id_at(&self, s: usize, j: usize) -> u32 {
        self.sorted[s * self.set.len() + j]
    }

    /// Next-link of position `j` in `I_s`.
    #[inline]
    pub(crate) fn next_at(&self, s: usize, j: usize) -> u32 {
        self.next[s * self.set.len() + j]
    }

    /// Total index footprint in bytes (sorted, next links, adjacent LCPs and
    /// the hash strings themselves) — the "Index Size" axis of Figures 6–7.
    pub fn nbytes(&self) -> usize {
        self.sorted.len() * 4 + self.next.len() * 4 + self.lcp.len() + self.set.nbytes()
    }

    /// Checks the structural invariants (every `I_s` is a permutation sorted
    /// by rotation-s order; every next link points at the same string;
    /// every `lcp` entry equals a recomputation from the strings).
    /// Test/debug helper; `O(n m)` comparisons.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.set.len();
        let m = self.set.m();
        let rows: Vec<Vec<u64>> = (0..n).map(|i| self.set.row(i)).collect();
        for s in 0..m {
            let mut seen = vec![false; n];
            for j in 0..n {
                let id = self.id_at(s, j) as usize;
                if seen[id] {
                    return Err(format!("I_{s} repeats id {id}"));
                }
                seen[id] = true;
                if j > 0 {
                    let prev = self.id_at(s, j - 1) as usize;
                    if cmp_shifted(&rows[prev], &rows[id], s) == std::cmp::Ordering::Greater {
                        return Err(format!("I_{s} not sorted at position {j}"));
                    }
                    let want = lcp_shifted(&rows[prev], &rows[id], s).min(255);
                    if usize::from(self.lcp[s * n + j - 1]) != want {
                        return Err(format!("L_{s}[{}] is not the adjacent LCP {want}", j - 1));
                    }
                }
                let succ = (s + 1) % m;
                let np = self.next_at(s, j) as usize;
                if self.id_at(succ, np) != id as u32 {
                    return Err(format!("N_{s}[{j}] does not track id {id}"));
                }
            }
            if self.lcp[s * n + n - 1] != 0 {
                return Err(format!("L_{s}[{}] has no successor and must be 0", n - 1));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circ::rotate;

    fn paper_set() -> StringSet {
        StringSet::from_rows(&[
            vec![1, 2, 4, 5, 6, 6, 7, 8], // o1
            vec![5, 2, 2, 4, 3, 6, 7, 8], // o2
            vec![3, 1, 3, 5, 5, 6, 4, 9], // o3
        ])
    }

    #[test]
    fn example_3_2_first_index_and_links() {
        // The paper's Example 3.2: I_1 = [1, 3, 2] and N_1 = [3, 1, 2]
        // (1-based ids and positions; ours are 0-based).
        let csa = Csa::build(paper_set());
        let i1: Vec<u32> = (0..3).map(|j| csa.id_at(0, j)).collect();
        assert_eq!(i1, vec![0, 2, 1], "I_1 should order o1 < o3 < o2");
        let n1: Vec<u32> = (0..3).map(|j| csa.next_at(0, j)).collect();
        assert_eq!(n1, vec![2, 0, 1], "N_1 = [3,1,2] in the paper's 1-based notation");
    }

    #[test]
    fn build_validates_on_random_input() {
        let mut seed = 0x12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) % 5
        };
        let rows: Vec<Vec<u64>> = (0..40).map(|_| (0..6).map(|_| next()).collect()).collect();
        let csa = Csa::build(StringSet::from_rows(&rows));
        csa.validate().expect("invariants must hold");
    }

    #[test]
    fn sorted_indices_follow_rotated_order() {
        let csa = Csa::build(paper_set());
        for s in 0..8 {
            let mut prev: Option<Vec<u64>> = None;
            for j in 0..3 {
                let id = csa.id_at(s, j) as usize;
                let rot = rotate(&csa.strings().row(id), s);
                if let Some(p) = &prev {
                    assert!(p <= &rot, "I_{s} must be sorted");
                }
                prev = Some(rot);
            }
        }
    }

    #[test]
    fn duplicate_strings_are_handled() {
        let set = StringSet::from_rows(&[vec![1, 1], vec![1, 1], vec![2, 1]]);
        let csa = Csa::build(set);
        csa.validate().unwrap();
    }

    #[test]
    fn single_string_set() {
        let csa = Csa::build(StringSet::from_rows(&[vec![7, 7, 7]]));
        csa.validate().unwrap();
        assert_eq!(csa.len(), 1);
        assert_eq!(csa.m(), 3);
    }

    #[test]
    fn nbytes_accounts_for_all_arrays() {
        let csa = Csa::build(paper_set());
        // Per symbol-rotation: a u16 symbol, two u32 links, one u8 LCP.
        assert_eq!(csa.nbytes(), 3 * 8 * (2 + 4 + 4 + 1));
        let wide = Csa::build(StringSet::from_rows(&[vec![1, u64::MAX], vec![2, 3]]));
        assert_eq!(wide.nbytes(), 2 * 2 * (8 + 4 + 4 + 1), "u64 fallback");
    }

    #[test]
    #[should_panic(expected = "zero strings")]
    fn empty_set_panics() {
        Csa::build(StringSet::from_flat(0, 4, vec![]));
    }
}
