//! Algorithm 2 — k-LCCS search over the CSA.
//!
//! Phase 1 (anchoring): one full binary search on `I_1`, then for each
//! subsequent rotation a binary search *narrowed* through the next links
//! (Lemma 3.1 / Corollary 3.2) whenever both boundary LCPs are ≥ 1. The
//! result is, per rotation `s`, the positions of `T_{l,s}` (greatest string
//! ⪯ the rotated query) and `T_{u,s}` (least string ≻ it) plus their LCPs.
//!
//! Phase 2 (merging): a level-bucket run merge over the `2m` anchored
//! cursors. A cursor is filed under its current LCP against the query — its
//! *level*, `0..=m`. Levels are walked from the top down and the cursors of
//! a level in `(s, dir)` order, the `−1` cursor of a rotation before its
//! `+1` cursor; the visited cursor *runs*: emit the id under it if unseen,
//! step one position outward, take the new LCP, and repeat until that LCP
//! falls below the level, at which point the cursor is filed under its new,
//! strictly lower level.
//!
//! This is the order Algorithm 2's max-priority-queue pops in when ties on
//! the LCP break by `(s, pos, dir)` ascending
//! ([`crate::naive::k_lccs_heap_reference`], the test oracle): no two
//! cursors share `(s, dir)`; at one level the `−1` cursor of a rotation sits
//! at smaller positions than its `+1` cursor; and a popped cursor whose LCP
//! did not drop is the smallest key left, hence the very next pop — so the
//! queue, too, lets every cursor run. The bucket version does it with no
//! comparison and no sift. Because the LCP against the query is
//! non-increasing as a cursor moves away from its anchor (Fact 3.2), a
//! cursor only ever re-enters at a lower level, so with the levels walked
//! downward objects still surface in non-increasing LCP order: the first
//! time an object surfaces, it surfaces at its true LCCS length, and the
//! first `k` distinct objects are an exact k-LCCS answer (see
//! `tests::matches_naive_reference`).

use crate::build::Csa;
use std::cmp::Ordering;

/// One search result: a string id and its LCCS length with the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Index of the string in the indexed [`crate::StringSet`].
    pub id: u32,
    /// `|LCCS(T_id, Q)|`.
    pub len: u32,
}

/// Boundary anchor of one rotation: positions of `T_l` / `T_u` in `I_s` and
/// their LCP lengths against the rotated query. Positions use sentinels
/// (`pos_l = -1` when the query precedes every string; `pos_u = n` when it
/// follows every string).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchorRow {
    /// Position of the lower bound in `I_s`, or −1.
    pub pos_l: i64,
    /// Position of the upper bound in `I_s`, or `n`.
    pub pos_u: i64,
    /// `|LCP(shift(T_l, s), shift(Q, s))|` (0 when `pos_l` is a sentinel).
    pub len_l: u32,
    /// `|LCP(shift(T_u, s), shift(Q, s))|` (0 when `pos_u` is a sentinel).
    pub len_u: u32,
}

impl AnchorRow {
    /// The larger of the two boundary LCPs — the "reach" used by
    /// MP-LCCS-LSH's skip-unaffected-positions rule (§4.2).
    pub fn reach(&self) -> u32 {
        self.len_l.max(self.len_u)
    }
}

/// The per-rotation anchors of one query (stored by the multi-probe scheme
/// to decide which rotations a perturbation can affect).
#[derive(Debug, Clone)]
pub struct Anchors {
    rows: Vec<AnchorRow>,
}

impl Anchors {
    /// Anchor of rotation `s`.
    pub fn row(&self, s: usize) -> AnchorRow {
        self.rows[s]
    }

    /// Number of rotations (= m).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Always false for a constructed value (m ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Reusable per-query scratch: the seen-set (query-epoch stamps) and the
/// merge's cursor table. Reusing it across queries removes all per-query
/// allocation.
#[derive(Debug, Default)]
pub struct SearchScratch {
    stamp: Vec<u32>,
    epoch: u32,
    /// Position in `I_s` of the cursor in slot `2s` (direction −1) or
    /// `2s + 1` (direction +1); meaningful only while the slot is filed.
    cursor: Vec<u32>,
    /// One bitset of filed slots per level, level-major, `words` per level.
    /// Ascending bit order is the merge's `(s, dir)` order.
    levels: Vec<u64>,
    words: usize,
}

impl SearchScratch {
    /// Scratch sized for `csa`.
    pub fn for_csa(csa: &Csa) -> Self {
        let slots = 2 * csa.m();
        let words = slots.div_ceil(64);
        Self {
            stamp: vec![0; csa.len()],
            epoch: 0,
            cursor: vec![0; slots],
            levels: vec![0; (csa.m() + 1) * words],
            words,
        }
    }

    /// Whether this scratch has the shape of `csa` — its string count (the
    /// seen-set) and its `m` (the cursor and level tables). Searching `csa`
    /// with a scratch that does not fit is invalid.
    pub fn fits(&self, csa: &Csa) -> bool {
        self.stamp.len() == csa.len() && self.cursor.len() == 2 * csa.m()
    }

    /// Starts a new logical query: clears the seen-set in O(1).
    pub fn begin_query(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard-reset stamps to keep correctness.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.clear_cursors();
    }

    /// Drops every filed cursor (the seen-set is kept).
    fn clear_cursors(&mut self) {
        self.levels.fill(0);
    }

    /// Files the cursor of `slot`, now at `pos`, under `level`.
    #[inline]
    fn file(&mut self, slot: usize, pos: usize, level: usize) {
        self.cursor[slot] = pos as u32;
        self.levels[level * self.words + slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn mark_new(&mut self, id: u32) -> bool {
        let slot = &mut self.stamp[id as usize];
        if *slot == self.epoch {
            false
        } else {
            *slot = self.epoch;
            true
        }
    }
}

impl Csa {
    /// Full binary search of rotation `s` for the rotated query (Algorithm 2
    /// line 2 / line 9): returns the anchor row.
    pub(crate) fn binary_search_full(&self, q: &[u64], s: usize) -> AnchorRow {
        self.binary_search_window(q, s, 0, self.len())
    }

    /// Binary search restricted to positions `[lo, hi)` of `I_s`. The window
    /// must be chosen so that the partition point lies inside `[lo, hi]`
    /// (guaranteed by Lemma 3.1 when narrowing through next links).
    fn binary_search_window(&self, q: &[u64], s: usize, lo: usize, hi: usize) -> AnchorRow {
        let n = self.len();
        debug_assert!(lo <= hi && hi <= n);
        // partition point p in [lo, hi]: count of strings with
        // shift(T, s) ⪯ shift(Q, s) among positions [lo, hi).
        let mut a = lo;
        let mut b = hi;
        while a < b {
            let mid = a + (b - a) / 2;
            let id = self.id_at(s, mid) as usize;
            if self.strings().cmp_row_query(id, q, s) != Ordering::Greater {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let p = a as i64;
        let (pos_l, len_l) = if p > 0 {
            let pos = p - 1;
            let id = self.id_at(s, pos as usize) as usize;
            (pos, self.strings().lcp_row_query(id, q, s) as u32)
        } else {
            (-1, 0)
        };
        let (pos_u, len_u) = if (p as usize) < n {
            let id = self.id_at(s, p as usize) as usize;
            (p, self.strings().lcp_row_query(id, q, s) as u32)
        } else {
            (n as i64, 0)
        };
        AnchorRow { pos_l, pos_u, len_l, len_u }
    }

    /// Phase-1 anchoring with the "simple method" of §3.2: a *full* binary
    /// search at every rotation, `O(m (m + log n))`. Kept as the ablation
    /// baseline for the next-link narrowing of Lemma 3.1 — `anchor` must
    /// produce identical anchors (tested) while doing O(1)-expected work per
    /// rotation after the first.
    pub fn anchor_simple(&self, q: &[u64]) -> Anchors {
        assert_eq!(q.len(), self.m(), "query length must equal m");
        Anchors { rows: (0..self.m()).map(|s| self.binary_search_full(q, s)).collect() }
    }

    /// Phase-1 anchoring for all rotations (lines 2–11 of Algorithm 2).
    pub fn anchor(&self, q: &[u64]) -> Anchors {
        assert_eq!(q.len(), self.m(), "query length must equal m");
        let m = self.m();
        let mut rows = Vec::with_capacity(m);
        rows.push(self.binary_search_full(q, 0));
        for s in 1..m {
            let prev = rows[s - 1];
            let narrowed = prev.len_l >= 1 && prev.len_u >= 1;
            let row = if narrowed {
                // Both anchors exist (len ≥ 1 ⟹ non-sentinel); Lemma 3.1
                // bounds the new partition point inside [lo+1, hi].
                let lo = self.next_at(s - 1, prev.pos_l as usize) as usize;
                let hi = self.next_at(s - 1, prev.pos_u as usize) as usize;
                debug_assert!(lo < hi, "next links must preserve order");
                self.binary_search_window(q, s, lo, hi + 1)
            } else {
                self.binary_search_full(q, s)
            };
            rows.push(row);
        }
        Anchors { rows }
    }

    /// k-LCCS search (Algorithm 2). Returns up to `k` distinct string ids in
    /// non-increasing LCCS order. Convenience wrapper that allocates its own
    /// scratch; hot paths should use [`Csa::search_with`].
    pub fn search(&self, q: &[u64], k: usize) -> Vec<Candidate> {
        let mut scratch = SearchScratch::for_csa(self);
        self.search_with(q, k, &mut scratch).0
    }

    /// k-LCCS search reusing caller scratch. Also returns the per-rotation
    /// anchors so multi-probe extensions can decide which rotations a hash
    /// perturbation affects. `scratch` is reset at entry (a fresh query).
    pub fn search_with(
        &self,
        q: &[u64],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> (Vec<Candidate>, Anchors) {
        scratch.begin_query();
        let anchors = self.anchor(q);
        self.seed_cursors(&anchors, scratch);
        let out = self.drain_candidates(q, k, scratch);
        (out, anchors)
    }

    /// Continues the same logical query with *additional* rotations searched
    /// against a (possibly modified) query string — the MP-LCCS-LSH probing
    /// primitive. Previously returned ids are not returned again (the
    /// scratch's seen-set persists until the next `begin_query`). Rotations
    /// outside `0..m` are ignored.
    pub fn probe_rotations(
        &self,
        q: &[u64],
        rotations: &[usize],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Candidate> {
        assert_eq!(q.len(), self.m(), "query length must equal m");
        scratch.clear_cursors();
        for &s in rotations {
            if s >= self.m() {
                continue;
            }
            let row = self.binary_search_full(q, s);
            self.push_anchor(s, row, scratch);
        }
        self.drain_candidates(q, k, scratch)
    }

    fn seed_cursors(&self, anchors: &Anchors, scratch: &mut SearchScratch) {
        for (s, row) in anchors.rows.iter().enumerate() {
            self.push_anchor(s, *row, scratch);
        }
    }

    /// Files the two boundary cursors of rotation `s`. A rotation listed
    /// twice lands in the same two slots with the same values — the queue
    /// would carry the copies, but a copy only ever retraces its original
    /// over ids already seen, so the emitted list is the same.
    fn push_anchor(&self, s: usize, row: AnchorRow, scratch: &mut SearchScratch) {
        if row.pos_l >= 0 {
            scratch.file(2 * s, row.pos_l as usize, row.len_l as usize);
        }
        if (row.pos_u as usize) < self.len() {
            scratch.file(2 * s + 1, row.pos_u as usize, row.len_u as usize);
        }
    }

    /// Lines 12–15 as a run merge (module docs): levels downward, the
    /// slots of a level in order, each cursor run until its LCP leaves the
    /// level. Stops at the `k`-th emitted id.
    fn drain_candidates(
        &self,
        q: &[u64],
        k: usize,
        scratch: &mut SearchScratch,
    ) -> Vec<Candidate> {
        let n = self.len();
        let mut out = Vec::with_capacity(k.min(n));
        if k == 0 {
            return out;
        }
        for level in (0..=self.m()).rev() {
            for w in 0..scratch.words {
                // Running a cursor files only below `level`, so the word
                // can be taken whole.
                let mut bits = std::mem::take(&mut scratch.levels[level * scratch.words + w]);
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (s, up) = (slot / 2, slot % 2 == 1);
                    let ids = &self.sorted[s * n..(s + 1) * n];
                    let mut pos = scratch.cursor[slot] as usize;
                    loop {
                        let id = ids[pos];
                        if scratch.mark_new(id) {
                            out.push(Candidate { id, len: level as u32 });
                            if out.len() == k {
                                return out;
                            }
                        }
                        if up {
                            pos += 1;
                            if pos == n {
                                break;
                            }
                        } else {
                            if pos == 0 {
                                break;
                            }
                            pos -= 1;
                        }
                        let len = self.strings().lcp_row_query(ids[pos] as usize, q, s);
                        debug_assert!(len <= level, "Fact 3.2: LCP cannot grow outward");
                        if len < level {
                            scratch.file(slot, pos, len);
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circ::StringSet;
    use crate::naive;

    fn paper_csa() -> Csa {
        Csa::build(StringSet::from_rows(&[
            vec![1, 2, 4, 5, 6, 6, 7, 8], // o1 — LCCS 5 with q
            vec![5, 2, 2, 4, 3, 6, 7, 8], // o2 — LCCS 3
            vec![3, 1, 3, 5, 5, 6, 4, 9], // o3 — LCCS 2
        ]))
    }

    const Q: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

    #[test]
    fn figure_1c_search() {
        let csa = paper_csa();
        let got = csa.search(&Q, 3);
        assert_eq!(got[0], Candidate { id: 0, len: 5 });
        assert_eq!(got[1], Candidate { id: 1, len: 3 });
        assert_eq!(got[2], Candidate { id: 2, len: 2 });
    }

    #[test]
    fn k_one_returns_best() {
        let csa = paper_csa();
        let got = csa.search(&Q, 1);
        assert_eq!(got, vec![Candidate { id: 0, len: 5 }]);
    }

    #[test]
    fn k_larger_than_n_returns_all() {
        let csa = paper_csa();
        let got = csa.search(&Q, 10);
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn anchors_have_valid_shapes() {
        let csa = paper_csa();
        let anchors = csa.anchor(&Q);
        assert_eq!(anchors.len(), 8);
        for s in 0..8 {
            let r = anchors.row(s);
            assert!(r.pos_l >= -1 && r.pos_l < 3);
            assert!(r.pos_u >= 0 && r.pos_u <= 3);
            assert_eq!(r.pos_u, r.pos_l + 1, "bounds are adjacent positions");
        }
    }

    #[test]
    fn exact_query_match_is_found_with_full_length() {
        let rows = vec![
            vec![4u64, 2, 9, 9],
            vec![1, 2, 3, 4],
            vec![9, 9, 9, 9],
        ];
        let csa = Csa::build(StringSet::from_rows(&rows));
        let got = csa.search(&[1, 2, 3, 4], 1);
        assert_eq!(got, vec![Candidate { id: 1, len: 4 }]);
    }

    fn lcg_rows(n: usize, m: usize, alphabet: u64, seed: u64) -> Vec<Vec<u64>> {
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) % alphabet
        };
        (0..n).map(|_| (0..m).map(|_| next()).collect()).collect()
    }

    #[test]
    fn matches_naive_reference() {
        // Exactness of Algorithm 2: for random sets, the returned lengths
        // equal the true LCCS of each id, and the multiset of top-k lengths
        // matches the naive oracle's.
        for (n, m, alpha, seed) in
            [(30, 6, 3, 1u64), (50, 8, 2, 2), (25, 12, 4, 3), (64, 5, 5, 4)]
        {
            let rows = lcg_rows(n, m, alpha, seed);
            let set = StringSet::from_rows(&rows);
            let csa = Csa::build(set.clone());
            let mut qseed = seed ^ 0xabcdef;
            let mut nextq = move || {
                qseed = qseed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (qseed >> 33) % alpha
            };
            for _ in 0..8 {
                let q: Vec<u64> = (0..m).map(|_| nextq()).collect();
                for k in [1usize, 3, n / 2, n] {
                    let fast = csa.search(&q, k);
                    let slow = naive::k_lccs_naive(&set, &q, k);
                    assert_eq!(fast.len(), k);
                    // every reported length is the true LCCS of that id
                    for c in &fast {
                        assert_eq!(
                            c.len as usize,
                            naive::lccs_len(set.row(c.id as usize), &q),
                            "id {} wrong LCCS",
                            c.id
                        );
                    }
                    // multiset of lengths matches the oracle's top-k
                    let mut fl: Vec<u32> = fast.iter().map(|c| c.len).collect();
                    let mut sl: Vec<u32> = slow.iter().map(|c| c.1 as u32).collect();
                    fl.sort_unstable();
                    sl.sort_unstable();
                    assert_eq!(fl, sl, "n={n} m={m} k={k}");
                }
            }
        }
    }

    #[test]
    fn results_are_non_increasing_in_length() {
        let rows = lcg_rows(80, 10, 3, 9);
        let csa = Csa::build(StringSet::from_rows(&rows));
        let q: Vec<u64> = vec![0, 1, 2, 0, 1, 2, 0, 1, 2, 0];
        let got = csa.search(&q, 80);
        for w in got.windows(2) {
            assert!(w[0].len >= w[1].len);
        }
    }

    #[test]
    fn scratch_reuse_across_queries() {
        let rows = lcg_rows(40, 6, 3, 5);
        let csa = Csa::build(StringSet::from_rows(&rows));
        let mut scratch = SearchScratch::for_csa(&csa);
        let q1: Vec<u64> = vec![0, 1, 2, 0, 1, 2];
        let q2: Vec<u64> = vec![2, 2, 1, 0, 0, 1];
        let (a1, _) = csa.search_with(&q1, 5, &mut scratch);
        let (a2, _) = csa.search_with(&q2, 5, &mut scratch);
        assert_eq!(a1, csa.search(&q1, 5));
        assert_eq!(a2, csa.search(&q2, 5));
    }

    #[test]
    fn scratch_fits_only_its_own_shape() {
        let build = |n, m| Csa::build(StringSet::from_rows(&lcg_rows(n, m, 3, 5)));
        let csa = build(40, 6);
        let scratch = SearchScratch::for_csa(&csa);
        assert!(scratch.fits(&csa));
        assert!(scratch.fits(&build(40, 6)));
        assert!(!scratch.fits(&build(41, 6)), "another string count");
        assert!(!scratch.fits(&build(40, 5)), "same n, smaller m");
        assert!(!scratch.fits(&build(40, 40)), "same n, larger m");
    }

    #[test]
    fn probe_rotations_excludes_already_seen() {
        let csa = paper_csa();
        let mut scratch = SearchScratch::for_csa(&csa);
        let (first, _) = csa.search_with(&Q, 1, &mut scratch);
        assert_eq!(first[0].id, 0);
        // Probing every rotation with the same query must not return o1
        // again; it returns the remaining objects instead.
        let rot: Vec<usize> = (0..8).collect();
        let more = csa.probe_rotations(&Q, &rot, 2, &mut scratch);
        let ids: Vec<u32> = more.iter().map(|c| c.id).collect();
        assert!(!ids.contains(&0));
        assert_eq!(more.len(), 2);
    }

    #[test]
    fn probe_rotations_ignores_out_of_range() {
        let csa = paper_csa();
        let mut scratch = SearchScratch::for_csa(&csa);
        scratch.begin_query();
        let got = csa.probe_rotations(&Q, &[99], 3, &mut scratch);
        assert!(got.is_empty());
    }

    #[test]
    fn epoch_wraparound_resets_cleanly() {
        let csa = paper_csa();
        let mut scratch = SearchScratch::for_csa(&csa);
        scratch.epoch = u32::MAX;
        let (got, _) = csa.search_with(&Q, 3, &mut scratch);
        assert_eq!(got.len(), 3);
    }

    #[test]
    #[should_panic(expected = "query length")]
    fn wrong_query_length_panics() {
        paper_csa().search(&[1, 2, 3], 1);
    }

    #[test]
    fn narrowed_anchoring_equals_simple_method() {
        // The Lemma 3.1 narrowing must be a pure optimization: identical
        // anchors to m independent full binary searches, on adversarial
        // inputs (small alphabet => duplicate strings, sentinel anchors).
        for (n, m, alpha, seed) in [(40usize, 8usize, 2u64, 1u64), (25, 12, 3, 2), (60, 6, 4, 3)] {
            let rows = lcg_rows(n, m, alpha, seed);
            let csa = Csa::build(StringSet::from_rows(&rows));
            let mut qseed = seed ^ 0x5a5a;
            let mut nextq = move || {
                qseed = qseed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (qseed >> 33) % alpha
            };
            for _ in 0..10 {
                let q: Vec<u64> = (0..m).map(|_| nextq()).collect();
                let fast = csa.anchor(&q);
                let slow = csa.anchor_simple(&q);
                for s in 0..m {
                    // Lengths must agree exactly; positions may differ among
                    // equal strings (ties), so compare the anchored strings'
                    // rotated views rather than raw positions.
                    let (f, sl) = (fast.row(s), slow.row(s));
                    assert_eq!(f.len_l, sl.len_l, "len_l at rotation {s}");
                    assert_eq!(f.len_u, sl.len_u, "len_u at rotation {s}");
                    assert_eq!(f.pos_l, sl.pos_l, "pos_l at rotation {s}");
                    assert_eq!(f.pos_u, sl.pos_u, "pos_u at rotation {s}");
                }
            }
        }
    }

    #[test]
    fn duplicates_of_query_all_surface() {
        let rows = vec![vec![1u64, 2, 3], vec![1, 2, 3], vec![9, 9, 9], vec![1, 2, 3]];
        let csa = Csa::build(StringSet::from_rows(&rows));
        let got = csa.search(&[1, 2, 3], 3);
        let mut ids: Vec<u32> = got.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 3]);
        assert!(got.iter().all(|c| c.len == 3));
    }
}
