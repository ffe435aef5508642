//! Circular Shift Array (CSA) and exact k-LCCS search — §3 of
//! *"Locality-Sensitive Hashing Scheme based on Longest Circular
//! Co-Substring"* (SIGMOD 2020).
//!
//! Given two strings `T` and `Q` of the same length `m`, a **Circular
//! Co-Substring** is a common circular substring that starts at the same
//! position in both (Definition 3.1); the **LCCS** is the longest one
//! (Definition 3.2). The **k-LCCS search** problem (Definition 3.3) asks,
//! for a database of `n` strings and a query `Q`, for the `k` strings with
//! the longest LCCS against `Q`.
//!
//! The paper solves it with the **Circular Shift Array**, a suffix-array
//! inspired structure: `m` sorted indices `I_1..I_m` (one per rotation) plus
//! `m` next-link arrays `N_1..N_m` connecting consecutive rotations
//! (Algorithm 1). Queries run one full binary search on `I_1`, then narrowed
//! binary searches on each subsequent rotation (Lemma 3.1 / Corollary 3.2),
//! and finally a 2m-way sorted merge of the anchored cursors (Algorithm 2).
//! The paper merges through a max-priority-queue, for an expected query cost
//! of `O(log n + (m + k) log m)` (Theorem 3.1); [`search`] files the cursors
//! in one bucket per LCP length and lets each run while its LCP holds —
//! the queue's pop order exactly, without its `log m` per step (the queue
//! itself survives as the test oracle [`naive::k_lccs_heap_reference`]).
//!
//! Four arrays make up the index, 11 bytes per string per rotation:
//!
//! | array | element | holds |
//! |---|---|---|
//! | the strings ([`StringSet`]) | `u16` (`u64` if a symbol is `≥ 0xFFFF`) | `n × m` symbols, row-major |
//! | `I_s` | `u32` | ids in rotation-`s` order |
//! | `N_s` | `u32` | position of the same string in `I_{s+1}` |
//! | `L_s` | `u8` | LCP of neighbours in `I_s`, saturated at 255 |
//!
//! `L_s` is this crate's addition to the paper's structure — the adjacent-LCP
//! array of a suffix array. Only the anchoring binary searches compare
//! strings with the query (at the stored width, a query symbol that does not
//! fit clamped to the width's `MAX`); a merge step takes its LCP as
//! `min(level, L_s[j])` and reads no string, except across a saturated entry
//! at a level above 255, which only `m > 255` can produce ([`search`]).
//!
//! This crate is self-contained (strings go in and come out as plain `u64`
//! symbol rows) and — as the paper notes — "potentially of separate
//! interest": nothing in here knows about LSH.
//!
//! ```
//! use csa::{Csa, StringSet};
//!
//! // Figure 1(c)'s running example: three length-8 strings.
//! let set = StringSet::from_rows(&[
//!     vec![1, 2, 4, 5, 6, 6, 7, 8],  // o1
//!     vec![5, 2, 2, 4, 3, 6, 7, 8],  // o2
//!     vec![3, 1, 3, 5, 5, 6, 4, 9],  // o3
//! ]);
//! let csa = Csa::build(set);
//! let q = [1, 2, 3, 4, 5, 6, 7, 8];
//! let top = csa.search(&q, 1);
//! assert_eq!(top[0].id, 0);   // o1 has the longest LCCS (= 5) with q
//! assert_eq!(top[0].len, 5);
//! ```
//!
//! Where this crate sits in the workspace is mapped in
//! `docs/architecture.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod circ;
pub mod naive;
pub mod search;
pub mod serialize;

pub use build::Csa;
pub use circ::StringSet;
pub use search::{Anchors, Candidate, SearchScratch};
