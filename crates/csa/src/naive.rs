//! Naive reference implementations of LCCS and k-LCCS search.
//!
//! Direct transcriptions of Definitions 3.1–3.3 and Fact 3.1 (`O(n · m²)`
//! per query), plus Algorithm 2's priority-queue merge as written — the
//! oracles for unit and property tests of the CSA fast path. Never use
//! outside tests/benches.

use crate::build::Csa;
use crate::circ::{lcp_shifted, StringSet};
use crate::search::Candidate;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// `|LCCS(t, q)|` by Fact 3.1:
/// `LCCS(T, Q) = max_i LCP(shift(T, i), shift(Q, i))`.
///
/// # Panics
/// Panics if the strings have different lengths or are empty.
pub fn lccs_len(t: &[u64], q: &[u64]) -> usize {
    assert_eq!(t.len(), q.len(), "strings must have equal length");
    assert!(!t.is_empty(), "strings must be non-empty");
    (0..t.len()).map(|s| lcp_shifted(t, q, s)).max().unwrap_or(0)
}

/// Brute-force k-LCCS search: ids of the `k` strings with the longest LCCS
/// against `q`, ties broken by id, descending by length.
///
/// # Panics
/// Panics if `k == 0` or `k > set.len()`.
pub fn k_lccs_naive(set: &StringSet, q: &[u64], k: usize) -> Vec<(u32, usize)> {
    assert!(k > 0 && k <= set.len(), "k must be in 1..=n");
    let mut scored: Vec<(u32, usize)> =
        (0..set.len()).map(|i| (i as u32, lccs_len(&set.row(i), q))).collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    scored.truncate(k);
    scored
}

/// One cursor of [`k_lccs_heap_reference`]'s queue.
#[derive(Debug, PartialEq, Eq)]
struct HeapEntry {
    len: u32,
    s: u32,
    pos: u32,
    dir: i8,
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on LCP length; ties broken by rotation, position, then
        // direction, all ascending.
        self.len
            .cmp(&other.len)
            .then_with(|| other.s.cmp(&self.s))
            .then_with(|| other.pos.cmp(&self.pos))
            .then_with(|| other.dir.cmp(&self.dir))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Phase 2 of Algorithm 2 as the paper writes it — a max-priority-queue
/// over the boundary cursors of `rotations`, one pop and one push per step —
/// and the *order* oracle for [`Csa::search_with`] and
/// [`Csa::probe_rotations`], whose run merge must emit the same ids with the
/// same lengths in the same order. Each listed rotation is anchored with a
/// full binary search (out-of-range entries are skipped, repeated ones push
/// their cursors again); ids already marked in `seen` (one flag per string)
/// are not emitted, and emitted ids are marked, so a query continues across
/// calls the way it does across probes.
///
/// # Panics
/// Panics if `q.len() != csa.m()` or `seen.len() != csa.len()`.
pub fn k_lccs_heap_reference(
    csa: &Csa,
    q: &[u64],
    rotations: &[usize],
    k: usize,
    seen: &mut [bool],
) -> Vec<Candidate> {
    assert_eq!(q.len(), csa.m(), "query length must equal m");
    assert_eq!(seen.len(), csa.len(), "one seen flag per string");
    let n = csa.len();
    let mut heap = BinaryHeap::new();
    for &s in rotations.iter().filter(|&&s| s < csa.m()) {
        let row = csa.binary_search_full(q, s);
        if row.pos_l >= 0 {
            heap.push(HeapEntry { len: row.len_l, s: s as u32, pos: row.pos_l as u32, dir: -1 });
        }
        if (row.pos_u as usize) < n {
            heap.push(HeapEntry { len: row.len_u, s: s as u32, pos: row.pos_u as u32, dir: 1 });
        }
    }
    let mut out = Vec::new();
    while out.len() < k {
        let Some(e) = heap.pop() else { break };
        let id = csa.id_at(e.s as usize, e.pos as usize);
        if !std::mem::replace(&mut seen[id as usize], true) {
            out.push(Candidate { id, len: e.len });
        }
        let next_pos = i64::from(e.pos) + i64::from(e.dir);
        if next_pos >= 0 && (next_pos as usize) < n {
            let nid = csa.id_at(e.s as usize, next_pos as usize) as usize;
            let len = csa.strings().lcp_row_query(nid, q, e.s as usize) as u32;
            heap.push(HeapEntry { len, s: e.s, pos: next_pos as u32, dir: e.dir });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_3_1_from_paper() {
        // T = [1,2,3,4,1,5], Q = [1,1,2,3,4,5]: [5,1] is a circular
        // co-substring (positions 6,1), so LCCS length is at least 2; the
        // paper's Example 3.1 shows [1,2,3,4] is NOT a co-substring because
        // it starts at different positions.
        let t = [1u64, 2, 3, 4, 1, 5];
        let q = [1u64, 1, 2, 3, 4, 5];
        assert_eq!(lccs_len(&t, &q), 2);
    }

    #[test]
    fn figure_1c_example() {
        // |LCCS(H(o1), H(q))| = 5, |LCCS(H(o2), H(q))| = 3,
        // |LCCS(H(o3), H(q))| = 2 (paper, Figure 1(c)).
        let q = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let o1 = [1u64, 2, 4, 5, 6, 6, 7, 8];
        let o2 = [5u64, 2, 2, 4, 3, 6, 7, 8];
        let o3 = [3u64, 1, 3, 5, 5, 6, 4, 9];
        assert_eq!(lccs_len(&o1, &q), 5); // [5,6,7,8,1] wrapping? no: [6,7,8,1,2]
        assert_eq!(lccs_len(&o2, &q), 3);
        assert_eq!(lccs_len(&o3, &q), 2);
    }

    #[test]
    fn identical_strings_have_full_lccs() {
        let t = [4u64, 4, 2, 9];
        assert_eq!(lccs_len(&t, &t), 4);
    }

    #[test]
    fn disjoint_alphabets_have_zero_lccs() {
        let t = [1u64, 2, 3];
        let q = [4u64, 5, 6];
        assert_eq!(lccs_len(&t, &q), 0);
    }

    #[test]
    fn lccs_is_symmetric() {
        let t = [1u64, 7, 2, 7, 1, 9, 4, 2];
        let q = [1u64, 7, 7, 7, 2, 9, 4, 1];
        assert_eq!(lccs_len(&t, &q), lccs_len(&q, &t));
    }

    #[test]
    fn naive_topk_ordering() {
        let set = StringSet::from_rows(&[
            vec![1, 2, 3, 4], // LCCS 4 with q
            vec![9, 9, 9, 9], // LCCS 0
            vec![1, 2, 9, 9], // LCCS 2
        ]);
        let q = [1u64, 2, 3, 4];
        let got = k_lccs_naive(&set, &q, 3);
        assert_eq!(got, vec![(0, 4), (2, 2), (1, 0)]);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn zero_k_panics() {
        let set = StringSet::from_rows(&[vec![1]]);
        k_lccs_naive(&set, &[1], 0);
    }
}
