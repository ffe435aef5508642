//! Algorithm 2 — k-LCCS search over the CSA.
//!
//! Phase 1 (anchoring): one full binary search on `I_1`, then for each
//! subsequent rotation a binary search *narrowed* through the next links
//! (Lemma 3.1 / Corollary 3.2) whenever both boundary LCPs are ≥ 1. The
//! result is, per rotation `s`, the positions of `T_{l,s}` (greatest string
//! ⪯ the rotated query) and `T_{u,s}` (least string ≻ it) plus their LCPs.
//! This is the only phase that compares hash strings with the query, and
//! it does so at the stored symbol width: the query is brought to that
//! width once per call (into the [`SearchScratch`]), a symbol that does
//! not fit clamping to the width's `MAX` — a value no stored symbol has
//! and every stored symbol is below, as the unclamped one was
//! ([`crate::circ`]), so anchors and candidates are those of the `u64`
//! comparison.
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
//! **The new LCP is read, not computed.** `I_s` is sorted, and a cursor
//! moves away from its anchor, so the query `Q`, the string `T` under the
//! cursor and the string `T'` it steps to are in sorted order (`Q ⪯ T ⪯ T'`
//! going up, reversed going down). For three strings in sorted order
//! the outer LCP is the minimum of the two inner ones — the
//! sorted-neighbour fact every suffix array's LCP array rests on — so
//!
//! ```text
//! LCP(Q, T') = min(LCP(Q, T), LCP(T, T'))
//! ```
//!
//! exactly. The first term is the cursor's level (Fact 3.2: it can only
//! have fallen on the way here); the second is the entry of the
//! adjacent-LCP array `L_s` ([`crate::build`]) between the two positions.
//! A step therefore reads one `u32` id and one `u8` LCP, both sequentially,
//! and never touches a hash string. `L_s` saturates at 255: when the entry
//! reads 255 *and* the level is above 255 (possible only for `m > 255`)
//! the minimum is not determined, and that step alone falls back to
//! comparing `T'` with the query.
//!
//! This is the order Algorithm 2's max-priority-queue pops in when ties on
//! the LCP break by `(s, pos, dir)` ascending
//! ([`crate::naive::k_lccs_heap_reference`], the test oracle, which still
//! compares strings at every step): no two
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

use crate::build::{row_of, Csa};
use crate::circ::{cmp_shifted, lcp_shifted, with_symbols, QueryBuf, Symbol};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Reusable per-query scratch: the query at the stored symbol width, the
/// seen-set (query-epoch stamps) and the merge's cursor table. Reusing it
/// across queries removes all per-query allocation.
#[derive(Debug, Default)]
pub struct SearchScratch {
    query: QueryBuf,
    cursors: Cursors,
}

/// The merge state of a [`SearchScratch`].
#[derive(Debug, Default)]
struct Cursors {
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
            query: QueryBuf::default(),
            cursors: Cursors {
                stamp: vec![0; csa.len()],
                epoch: 0,
                cursor: vec![0; slots],
                levels: vec![0; (csa.m() + 1) * words],
                words,
            },
        }
    }

    /// Whether this scratch has the shape of `csa` — its string count (the
    /// seen-set) and its `m` (the cursor and level tables). Searching `csa`
    /// with a scratch that does not fit is invalid.
    pub fn fits(&self, csa: &Csa) -> bool {
        self.cursors.stamp.len() == csa.len() && self.cursors.cursor.len() == 2 * csa.m()
    }

    /// Starts a new logical query: clears the seen-set in O(1).
    pub fn begin_query(&mut self) {
        self.cursors.begin_query();
    }
}

impl Cursors {
    fn begin_query(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Epoch wrapped: hard-reset stamps to keep correctness.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.clear();
    }

    /// Drops every filed cursor (the seen-set is kept).
    fn clear(&mut self) {
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

    /// Files the two boundary cursors of rotation `s`. A rotation listed
    /// twice lands in the same two slots with the same values — the queue
    /// would carry the copies, but a copy only ever retraces its original
    /// over ids already seen, so the emitted list is the same.
    fn push_anchor(&mut self, s: usize, row: AnchorRow, n: usize) {
        if row.pos_l >= 0 {
            self.file(2 * s, row.pos_l as usize, row.len_l as usize);
        }
        if (row.pos_u as usize) < n {
            self.file(2 * s + 1, row.pos_u as usize, row.len_u as usize);
        }
    }
}

/// Both phases over the symbols of one CSA at their stored width `S`; `q`
/// is the query at that width.
struct Searcher<'a, S> {
    csa: &'a Csa,
    data: &'a [S],
    q: &'a [S],
}

impl<S: Symbol> Searcher<'_, S> {
    /// `|LCP|` of the rotation-`s` views of string `id` and the query.
    #[inline]
    fn lcp_with_query(&self, id: u32, s: usize) -> usize {
        lcp_shifted(row_of(self.data, self.csa.m(), id), self.q, s)
    }

    /// Full binary search of rotation `s` for the rotated query (Algorithm 2
    /// line 2 / line 9): returns the anchor row.
    fn binary_search_full(&self, s: usize) -> AnchorRow {
        self.binary_search_window(s, 0, self.csa.len())
    }

    /// Binary search restricted to positions `[lo, hi)` of `I_s`. The window
    /// must be chosen so that the partition point lies inside `[lo, hi]`
    /// (guaranteed by Lemma 3.1 when narrowing through next links).
    fn binary_search_window(&self, s: usize, lo: usize, hi: usize) -> AnchorRow {
        let n = self.csa.len();
        debug_assert!(lo <= hi && hi <= n);
        // partition point p in [lo, hi]: count of strings with
        // shift(T, s) ⪯ shift(Q, s) among positions [lo, hi).
        let mut a = lo;
        let mut b = hi;
        while a < b {
            let mid = a + (b - a) / 2;
            let row = row_of(self.data, self.csa.m(), self.csa.id_at(s, mid));
            if cmp_shifted(row, self.q, s) != Ordering::Greater {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        let p = a as i64;
        let (pos_l, len_l) = if p > 0 {
            let pos = p - 1;
            (pos, self.lcp_with_query(self.csa.id_at(s, pos as usize), s) as u32)
        } else {
            (-1, 0)
        };
        let (pos_u, len_u) = if (p as usize) < n {
            (p, self.lcp_with_query(self.csa.id_at(s, p as usize), s) as u32)
        } else {
            (n as i64, 0)
        };
        AnchorRow { pos_l, pos_u, len_l, len_u }
    }

    /// Phase-1 anchoring for all rotations (lines 2–11 of Algorithm 2),
    /// narrowed through the next links when `narrow`, a full binary search
    /// per rotation otherwise.
    fn anchor(&self, narrow: bool) -> Anchors {
        let m = self.csa.m();
        let mut rows: Vec<AnchorRow> = Vec::with_capacity(m);
        for s in 0..m {
            let row = match rows.last() {
                Some(prev) if narrow && prev.len_l >= 1 && prev.len_u >= 1 => {
                    // Both anchors exist (len ≥ 1 ⟹ non-sentinel); Lemma 3.1
                    // bounds the new partition point inside [lo+1, hi].
                    let lo = self.csa.next_at(s - 1, prev.pos_l as usize) as usize;
                    let hi = self.csa.next_at(s - 1, prev.pos_u as usize) as usize;
                    debug_assert!(lo < hi, "next links must preserve order");
                    self.binary_search_window(s, lo, hi + 1)
                }
                _ => self.binary_search_full(s),
            };
            rows.push(row);
        }
        Anchors { rows }
    }

    /// Lines 12–15 as a run merge (module docs): levels downward, the
    /// slots of a level in order, each cursor run until its LCP leaves the
    /// level. Stops at the `k`-th emitted id.
    fn drain_candidates(&self, k: usize, cursors: &mut Cursors) -> Vec<Candidate> {
        let n = self.csa.len();
        let mut out = Vec::with_capacity(k.min(n));
        if k == 0 {
            return out;
        }
        for level in (0..=self.csa.m()).rev() {
            for w in 0..cursors.words {
                // Running a cursor files only below `level`, so the word
                // can be taken whole.
                let mut bits = std::mem::take(&mut cursors.levels[level * cursors.words + w]);
                while bits != 0 {
                    let slot = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let (s, up) = (slot / 2, slot % 2 == 1);
                    let ids = &self.csa.sorted[s * n..(s + 1) * n];
                    let lcps = &self.csa.lcp[s * n..(s + 1) * n];
                    let mut pos = cursors.cursor[slot] as usize;
                    loop {
                        let id = ids[pos];
                        if cursors.mark_new(id) {
                            out.push(Candidate { id, len: level as u32 });
                            if out.len() == k {
                                return out;
                            }
                        }
                        // Step outward; `adj` is the entry of L_s between
                        // the position left and the position reached.
                        let adj = if up {
                            pos += 1;
                            if pos == n {
                                break;
                            }
                            lcps[pos - 1]
                        } else {
                            if pos == 0 {
                                break;
                            }
                            pos -= 1;
                            lcps[pos]
                        };
                        let len = if adj == u8::MAX && level > usize::from(u8::MAX) {
                            // Saturated entry above its range: only the
                            // strings can say (m > 255 only).
                            self.lcp_with_query(ids[pos], s)
                        } else {
                            level.min(usize::from(adj))
                        };
                        debug_assert_eq!(
                            len,
                            self.lcp_with_query(ids[pos], s),
                            "min(level, adjacent LCP) is the LCP with the query"
                        );
                        if len < level {
                            cursors.file(slot, pos, len);
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Evaluates `$body` with `$searcher` bound to a [`Searcher`] over `$csa` at
/// its stored width, for the query `$q` (`&[u64]`) narrowed into `$buf`
/// (`&mut QueryBuf`).
macro_rules! with_searcher {
    ($csa:expr, $q:expr, $buf:expr, $searcher:ident => $body:expr) => {{
        assert_eq!($q.len(), $csa.m(), "query length must equal m");
        let buf: &mut QueryBuf = $buf;
        with_symbols!($csa.set.symbols(), data => {
            let $searcher = Searcher { csa: $csa, data, q: buf.narrowed($q) };
            $body
        })
    }};
}

impl Csa {
    /// Full binary search of rotation `s` for the rotated query: the
    /// anchoring step of [`crate::naive::k_lccs_heap_reference`].
    pub(crate) fn binary_search_full(&self, q: &[u64], s: usize) -> AnchorRow {
        with_searcher!(self, q, &mut QueryBuf::default(), t => t.binary_search_full(s))
    }

    /// Phase-1 anchoring with the "simple method" of §3.2: a *full* binary
    /// search at every rotation, `O(m (m + log n))`. Kept as the ablation
    /// baseline for the next-link narrowing of Lemma 3.1 — `anchor` must
    /// produce identical anchors (tested) while doing O(1)-expected work per
    /// rotation after the first.
    pub fn anchor_simple(&self, q: &[u64]) -> Anchors {
        with_searcher!(self, q, &mut QueryBuf::default(), t => t.anchor(false))
    }

    /// Phase-1 anchoring for all rotations (lines 2–11 of Algorithm 2).
    pub fn anchor(&self, q: &[u64]) -> Anchors {
        with_searcher!(self, q, &mut QueryBuf::default(), t => t.anchor(true))
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
        let SearchScratch { query, cursors } = scratch;
        cursors.begin_query();
        with_searcher!(self, q, query, t => {
            let anchors = t.anchor(true);
            for (s, row) in anchors.rows.iter().enumerate() {
                cursors.push_anchor(s, *row, self.len());
            }
            (t.drain_candidates(k, cursors), anchors)
        })
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
        let SearchScratch { query, cursors } = scratch;
        cursors.clear();
        with_searcher!(self, q, query, t => {
            for &s in rotations.iter().filter(|&&s| s < self.m()) {
                cursors.push_anchor(s, t.binary_search_full(s), self.len());
            }
            t.drain_candidates(k, cursors)
        })
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
                            naive::lccs_len(&set.row(c.id as usize), &q),
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
        scratch.cursors.epoch = u32::MAX;
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

    /// The search, and a probe continuing it, against Algorithm 2's queue:
    /// same ids, same lengths, same order.
    fn assert_matches_heap_reference(csa: &Csa, q: &[u64], rotations: &[usize], k: usize) {
        let all: Vec<usize> = (0..csa.m()).collect();
        let mut scratch = SearchScratch::for_csa(csa);
        let mut seen = vec![false; csa.len()];
        let (fast, _) = csa.search_with(q, k, &mut scratch);
        assert_eq!(fast, naive::k_lccs_heap_reference(csa, q, &all, k, &mut seen), "search k={k}");
        let fast = csa.probe_rotations(q, rotations, k, &mut scratch);
        let slow = naive::k_lccs_heap_reference(csa, q, rotations, k, &mut seen);
        assert_eq!(fast, slow, "probe of {rotations:?} k={k}");
    }

    /// Symbols on both sides of the `u16` tier's edge. Rows draw from the
    /// first `ROW_NARROW` (a set stored as `u16`) or from all of them (one
    /// stored as `u64`); queries always draw from all of them, so a narrow
    /// set meets query symbols it cannot hold — among them `0x1_0000` and
    /// `u64::MAX`, which a truncating cast would turn into the stored
    /// symbols `0` and (were it storable) `0xFFFF`.
    const EDGE: [u64; 7] = [0, 1, 0xFFFE, 0xFFFF, 0x1_0000, 0x1_0001, u64::MAX];
    const ROW_NARROW: usize = 3;

    type EdgeCase = (Vec<Vec<u64>>, Vec<(Vec<u64>, Vec<usize>, usize)>);

    fn edge_case() -> impl proptest::prelude::Strategy<Value = EdgeCase> {
        use proptest::prelude::*;
        (any::<bool>(), 1usize..=24, 1usize..=8).prop_flat_map(|(wide, n, m)| {
            let pick = move |alphabet: usize| {
                proptest::collection::vec(0..alphabet, m)
                    .prop_map(|ix| ix.into_iter().map(|i| EDGE[i]).collect::<Vec<u64>>())
            };
            let rows = pick(if wide { EDGE.len() } else { ROW_NARROW });
            let query = (pick(EDGE.len()), proptest::collection::vec(0..m + 2, 0..=m), 1..=n);
            (proptest::collection::vec(rows, n), proptest::collection::vec(query, 1..=4))
        })
    }

    proptest::proptest! {
        /// Width selection and the clamp rule: whichever width the rows
        /// are stored at, and whatever the query holds, searches and probes
        /// equal the queue over widened rows and the unclamped query,
        /// narrowed anchoring equals the simple method, and a set that fits
        /// `u16` answers exactly as the same rows forced to `u64`.
        #[test]
        fn width_boundary_symbols_search_like_u64((rows, queries) in edge_case()) {
            let (n, m) = (rows.len(), rows[0].len());
            let flat: Vec<u64> = rows.iter().flatten().copied().collect();
            let set = StringSet::from_flat(n, m, flat.clone());
            let fits_u16 = flat.iter().all(|&sym| sym < 0xFFFF);
            assert_eq!(matches!(set.symbols(), crate::circ::Symbols::U16(_)), fits_u16);
            let csa = Csa::build(set);
            csa.validate().unwrap();
            let wide = Csa::build(StringSet::from_flat_wide(n, m, flat));
            assert_eq!((&csa.sorted, &csa.next, &csa.lcp), (&wide.sorted, &wide.next, &wide.lcp));
            for (q, rotations, k) in &queries {
                assert_matches_heap_reference(&csa, q, rotations, *k);
                assert_eq!(csa.anchor(q), csa.anchor_simple(q));
                let (mut a, mut b) = (SearchScratch::for_csa(&csa), SearchScratch::for_csa(&wide));
                assert_eq!(csa.search_with(q, *k, &mut a), wide.search_with(q, *k, &mut b));
                assert_eq!(
                    csa.probe_rotations(q, rotations, *k, &mut a),
                    wide.probe_rotations(q, rotations, *k, &mut b)
                );
            }
        }

        /// `m = 300`: every row is one base string with a few of its first
        /// 44 symbols flipped, so all rows share the other 256 and the
        /// adjacent-LCP entries of the rotations around 44 saturate; a
        /// query is the base with flips anywhere. Cursors at levels above
        /// 255 then cross saturated entries whose true value is above the
        /// level (the cursor keeps running), between 255 and the level (it
        /// drops, but not to 255), and exactly 255.
        #[test]
        fn saturated_lcp_entries_fall_back_to_the_strings(
            (base, flips, queries) in (
                proptest::collection::vec(0u64..2, 300),
                proptest::collection::vec(proptest::collection::vec(0usize..44, 0..=3), 2..=20),
                proptest::collection::vec(
                    (proptest::collection::vec(0usize..300, 0..=2),
                     proptest::collection::vec(0usize..300, 0..=4),
                     1usize..=20),
                    1..=3,
                ),
            )
        ) {
            let flipped = |at: &[usize]| {
                let mut row = base.clone();
                for &p in at {
                    row[p] ^= 1;
                }
                row
            };
            let rows: Vec<Vec<u64>> = flips.iter().map(|at| flipped(at)).collect();
            let csa = Csa::build(StringSet::from_rows(&rows));
            csa.validate().unwrap();
            assert!(csa.lcp.contains(&u8::MAX), "some neighbours share more than 255 symbols");
            for (at, rotations, k) in &queries {
                assert_matches_heap_reference(&csa, &flipped(at), rotations, (*k).min(rows.len()));
            }
        }
    }
}
