//! Property-based tests of the CSA against the paper's definitions.
//!
//! The fast path (Algorithms 1–2) is checked against the naive oracle
//! (Definitions 3.1–3.3 / Fact 3.1) over randomized string sets, alphabet
//! sizes, and query distributions, including adversarial cases (tiny
//! alphabets → heavy ties and duplicate strings).

use csa::{circ, naive, Csa, SearchScratch, StringSet};
use proptest::prelude::*;

fn string_set(max_n: usize, max_m: usize, max_sym: u64) -> impl Strategy<Value = Vec<Vec<u64>>> {
    (1..=max_n, 1..=max_m).prop_flat_map(move |(n, m)| {
        proptest::collection::vec(proptest::collection::vec(0..max_sym, m), n)
    })
}

/// A query for the merge-order tests: the hash string, a rotation list for
/// a follow-up probe (may repeat, be unsorted, be empty, name rotations
/// ≥ m), and the two budgets.
type MergeQuery = (Vec<u64>, Vec<usize>, usize, usize);

/// A string set over an alphabet of 2–4 symbols (duplicate strings and
/// sentinel anchors occur, LCPs pile up on a few lengths) with `m ≤ 12`,
/// and up to `max_queries` queries against it with budgets `1..=n`.
fn merge_case(max_queries: usize) -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<MergeQuery>)> {
    (2u64..=4, 1usize..=40, 1usize..=12).prop_flat_map(move |(alphabet, n, m)| {
        let sym = || proptest::collection::vec(0..alphabet, m);
        let query = (
            sym(),
            proptest::collection::vec(0..m + 3, 0..=2 * m),
            1..=n,
            1..=n,
        );
        (
            proptest::collection::vec(sym(), n),
            proptest::collection::vec(query, 1..=max_queries),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The run merge emits exactly what Algorithm 2's priority queue pops
    /// — same ids, same lengths, same order, so the budget cut-off keeps
    /// the same candidates — for a search, and for probes continuing it
    /// (seen-set carried over) with rotation lists that repeat, are out of
    /// order, are empty, or name rotations that do not exist.
    #[test]
    fn merge_equals_heap_reference((rows, queries) in merge_case(4)) {
        let csa = Csa::build(StringSet::from_rows(&rows));
        let all: Vec<usize> = (0..csa.m()).collect();
        let (q, _, k, _) = &queries[0];
        let mut scratch = SearchScratch::for_csa(&csa);
        let mut seen = vec![false; csa.len()];
        let (fast, _) = csa.search_with(q, *k, &mut scratch);
        prop_assert_eq!(fast, naive::k_lccs_heap_reference(&csa, q, &all, *k, &mut seen));
        for (probe, rotations, _, k) in &queries {
            let fast = csa.probe_rotations(probe, rotations, *k, &mut scratch);
            let slow = naive::k_lccs_heap_reference(&csa, probe, rotations, *k, &mut seen);
            prop_assert_eq!(fast, slow, "rotations {:?}", rotations);
        }
    }

    /// One scratch reused across many queries (each a search plus a probe,
    /// each cut off with cursors still filed) answers like a fresh one.
    #[test]
    fn reused_scratch_equals_fresh_scratch((rows, queries) in merge_case(12)) {
        let csa = Csa::build(StringSet::from_rows(&rows));
        let mut reused = SearchScratch::for_csa(&csa);
        for (q, rotations, k, k_probe) in &queries {
            let mut fresh = SearchScratch::for_csa(&csa);
            let (a, _) = csa.search_with(q, *k, &mut reused);
            let (b, _) = csa.search_with(q, *k, &mut fresh);
            prop_assert_eq!(a, b);
            let a = csa.probe_rotations(q, rotations, *k_probe, &mut reused);
            let b = csa.probe_rotations(q, rotations, *k_probe, &mut fresh);
            prop_assert_eq!(a, b);
        }
    }

    /// Fact 3.1: LCCS via max-over-rotations LCP equals the definitional
    /// maximum over materialized rotations.
    #[test]
    fn fact_3_1_lccs_equals_max_lcp((rows, q) in string_set(6, 8, 4).prop_flat_map(|rows| {
        let m = rows[0].len();
        (Just(rows), proptest::collection::vec(0u64..4, m))
    })) {
        let t = &rows[0];
        let want = (0..t.len()).map(|s| {
            let rt = circ::rotate(t, s);
            let rq = circ::rotate(&q, s);
            rt.iter().zip(&rq).take_while(|(a, b)| a == b).count()
        }).max().unwrap();
        prop_assert_eq!(naive::lccs_len(t, &q), want);
    }

    /// Algorithm 2 returns an exact k-LCCS answer: reported lengths are the
    /// true LCCS of each id and their multiset matches the oracle's top-k.
    #[test]
    fn csa_search_matches_naive((rows, q, k) in string_set(40, 10, 3).prop_flat_map(|rows| {
        let m = rows[0].len();
        let n = rows.len();
        (Just(rows), proptest::collection::vec(0u64..3, m), 1..=n)
    })) {
        let set = StringSet::from_rows(&rows);
        let csa = Csa::build(set.clone());
        let fast = csa.search(&q, k);
        let slow = naive::k_lccs_naive(&set, &q, k);
        prop_assert_eq!(fast.len(), k);
        for c in &fast {
            prop_assert_eq!(c.len as usize, naive::lccs_len(&set.row(c.id as usize), &q));
        }
        let mut fl: Vec<u32> = fast.iter().map(|c| c.len).collect();
        let mut sl: Vec<u32> = slow.iter().map(|(_, l)| *l as u32).collect();
        fl.sort_unstable();
        sl.sort_unstable();
        prop_assert_eq!(fl, sl);
        // no duplicate ids
        let mut ids: Vec<u32> = fast.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), k);
    }

    /// Algorithm 1 invariants hold for arbitrary inputs (sortedness,
    /// permutation property, next-link consistency).
    #[test]
    fn build_invariants(rows in string_set(30, 8, 2)) {
        let csa = Csa::build(StringSet::from_rows(&rows));
        prop_assert!(csa.validate().is_ok());
    }

    /// Serialization round-trips bit-exactly.
    #[test]
    fn serialization_roundtrip(rows in string_set(12, 6, 4)) {
        let csa = Csa::build(StringSet::from_rows(&rows));
        let back = Csa::from_bytes(csa.to_bytes()).unwrap();
        prop_assert_eq!(back, csa);
    }

    /// The Lemma 3.1 narrowed anchoring is a pure optimization: anchors
    /// match the m-independent-binary-searches baseline exactly.
    #[test]
    fn narrowed_anchor_equals_simple((rows, q) in string_set(30, 8, 2).prop_flat_map(|rows| {
        let m = rows[0].len();
        (Just(rows), proptest::collection::vec(0u64..2, m))
    })) {
        let csa = Csa::build(StringSet::from_rows(&rows));
        let fast = csa.anchor(&q);
        let slow = csa.anchor_simple(&q);
        for s in 0..q.len() {
            prop_assert_eq!(fast.row(s), slow.row(s), "rotation {}", s);
        }
    }

    /// Fact 3.2 (the unimodality that justifies the cursor merge): for any
    /// sorted triple T1 ⪯ T2 ≺ T3, LCP(T2, Q) ≥ min(LCP(T1,Q), LCP(T3,Q)).
    #[test]
    fn fact_3_2_middle_string_lcp((rows, q) in string_set(3, 6, 3).prop_flat_map(|rows| {
        let m = rows[0].len();
        (Just(rows), proptest::collection::vec(0u64..3, m))
    })) {
        prop_assume!(rows.len() == 3);
        let mut sorted = rows.clone();
        sorted.sort();
        let lcp = |t: &Vec<u64>| t.iter().zip(&q).take_while(|(a, b)| a == b).count();
        let l1 = lcp(&sorted[0]);
        let l2 = lcp(&sorted[1]);
        let l3 = lcp(&sorted[2]);
        prop_assert!(l2 >= l1.min(l3));
    }
}
