//! The [`AnnIndex`] / [`BuildAnn`] traits and their support types.

use crate::executor;
use crate::request::{SearchRequest, SearchResponse, SearchStats};
use dataset::exact::Neighbor;
use dataset::{Dataset, Metric};
use std::any::Any;
use std::sync::Arc;
use std::time::Instant;

/// Query-time knobs shared by every scheme — the low-level carrier the
/// per-scheme `query_with` implementations consume.
///
/// Since the [`crate::request`] redesign this type is no longer the
/// public construction path: build a [`SearchRequest`] with its builder
/// (`SearchRequest::top_k(10).budget(128).probes(17)`) and derive the
/// triple via [`SearchRequest::params`]. The positional constructor is
/// kept for the scheme implementations and their unit tests.
///
/// Each algorithm interprets the two knobs through its own native
/// parameter (the mapping the paper's §6.4 grid searches sweep):
///
/// | Scheme | `budget` means | `probes` means |
/// |--------|----------------|----------------|
/// | LCCS-LSH | λ, candidates to verify | ignored |
/// | MP-LCCS-LSH | λ | perturbation probes (≥ 1) |
/// | E2LSH / LSH-Forest / SK-LSH | bucket-union candidate cap | ignored |
/// | Multi-Probe LSH / FALCONN | candidate cap | probe-sequence length |
/// | C2LSH / QALSH | βn collision-count slack | ignored |
/// | SRS | verification budget | ignored |
/// | Linear / kd-tree | ignored (exact) | ignored |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchParams {
    /// Neighbors to return.
    pub k: usize,
    /// Candidate budget (per-scheme meaning above).
    pub budget: usize,
    /// Probe count for multi-probe schemes; `0` = scheme default.
    pub probes: usize,
}

impl SearchParams {
    /// Top-`k` search with a candidate budget and no probing override.
    pub fn new(k: usize, budget: usize) -> Self {
        Self { k, budget, probes: 0 }
    }
}

/// Opaque per-thread query scratch.
///
/// Each index type stores whatever reusable state its query path needs
/// (CSA cursor arrays, dedup epoch stamps, hash buffers) behind `Any`, so
/// [`AnnIndex`] stays object-safe while the batch executor still reuses
/// allocations across the queries a worker thread answers. A scratch
/// belongs to the index that created it, but handing it to a different
/// index is safe: impls re-initialize the state when its type — or, via
/// [`Scratch::get_valid_with`], its shape (e.g. a dedup table sized for a
/// different dataset) — doesn't fit.
#[derive(Default)]
pub struct Scratch(Option<Box<dyn Any + Send>>);

impl Scratch {
    /// A scratch holding nothing; indexes that need state lazily install it
    /// on first use via [`Scratch::get_or_insert_with`].
    pub fn empty() -> Self {
        Self(None)
    }

    /// A scratch pre-seeded with `state`.
    pub fn new<T: Any + Send>(state: T) -> Self {
        Self(Some(Box::new(state)))
    }

    /// Returns the state as `T`, installing `make()` if the scratch is
    /// empty or currently holds a different type.
    pub fn get_or_insert_with<T: Any + Send>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        self.get_valid_with(|_| true, make)
    }

    /// Like [`Scratch::get_or_insert_with`], but also reinstalls when the
    /// recovered state fails `valid` — the guard indexes use against
    /// same-typed scratch built for a different dataset (whose epoch-stamp
    /// tables would be the wrong length).
    pub fn get_valid_with<T: Any + Send>(
        &mut self,
        valid: impl FnOnce(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> &mut T {
        let compatible = match &self.0 {
            Some(b) => b.downcast_ref::<T>().is_some_and(valid),
            None => false,
        };
        if !compatible {
            self.0 = Some(Box::new(make()));
        }
        self.0
            .as_mut()
            .expect("just installed")
            .downcast_mut::<T>()
            .expect("just type-checked")
    }
}

/// A built approximate-nearest-neighbor index, queryable uniformly.
///
/// Every query follows the paper's two-phase flow (§4.1): a **search
/// phase** walks the index structure to collect candidate ids under the
/// scheme's budget (for LCCS-LSH: the `(λ + k − 1)`-LCCS search of
/// Algorithm 2 over the Circular Shift Array), then a **verification
/// phase** computes the exact metric distance of each candidate and keeps
/// the `k` nearest, ascending by true distance with ties broken by id.
/// Implementations return that verified top-`k` list.
///
/// The trait is object-safe: the evaluation harness holds indexes as
/// `Box<dyn AnnIndex>` and drives the paper's ~11 schemes through one
/// generic loop. Per-query state lives in an opaque [`Scratch`] so that
/// hot loops and the parallel batch executor can amortize allocations.
///
/// # Example
///
/// Only `name`, `len`, `index_bytes`, and `query_with` are required; a
/// minimal implementation over the 1-d points `0..n` already drives
/// every entry point — `query`, the parallel `query_batch`, and the
/// filtered/range `search` path, whose default wraps `query_with`:
///
/// ```
/// use ann::{AnnIndex, Scratch, SearchParams, SearchRequest};
/// use dataset::exact::Neighbor;
///
/// struct Grid { n: usize }
///
/// impl AnnIndex for Grid {
///     fn name(&self) -> &'static str { "Grid" }
///     fn len(&self) -> usize { self.n }
///     fn index_bytes(&self) -> usize { 0 }
///     fn query_with(&self, q: &[f32], p: &SearchParams, _: &mut Scratch) -> Vec<Neighbor> {
///         let mut all: Vec<Neighbor> = (0..self.n as u32)
///             .map(|id| Neighbor { id, dist: (f64::from(id) - f64::from(q[0])).abs() })
///             .collect();
///         all.sort_unstable();   // Neighbor orders by (dist, id)
///         all.truncate(p.k);
///         all
///     }
/// }
///
/// let idx = Grid { n: 100 };
/// let hits = idx.query(&[41.4], &SearchParams::new(3, 64));
/// assert_eq!(hits[0].id, 41);
///
/// let resp = idx.search(&[41.4], &SearchRequest::top_k(3).max_dist(1.0));
/// assert_eq!(resp.hits.len(), 2);   // range search: only 41 and 42 are within 1.0
/// ```
pub trait AnnIndex: Send + Sync {
    /// The method name as printed in the paper's legends (e.g.
    /// `"LCCS-LSH"`, `"E2LSH"`).
    fn name(&self) -> &'static str;

    /// Number of indexed rows (the `n` that bounds a legal `k`; see
    /// [`SearchRequest::validate`]).
    fn len(&self) -> usize;

    /// Whether the index holds no rows (only the live index can).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index footprint in bytes, excluding the raw vectors (the paper's
    /// index-size axis, Figures 6–7).
    fn index_bytes(&self) -> usize;

    /// Fresh reusable scratch for [`AnnIndex::query_with`].
    fn make_scratch(&self) -> Scratch {
        Scratch::empty()
    }

    /// Answers one c-k-ANNS query, reusing `scratch` across calls.
    ///
    /// # Panics
    /// Implementations panic if `params.k == 0` or the query dimension
    /// does not match the indexed dataset.
    fn query_with(&self, q: &[f32], params: &SearchParams, scratch: &mut Scratch)
        -> Vec<Neighbor>;

    /// Answers one query with throwaway scratch.
    fn query(&self, q: &[f32], params: &SearchParams) -> Vec<Neighbor> {
        let mut scratch = self.make_scratch();
        self.query_with(q, params, &mut scratch)
    }

    /// Answers a whole query set through the parallel batch executor
    /// (see [`executor::batch_query`]): chunked dynamic scheduling, one
    /// scratch per worker thread, results in query order and identical to
    /// sequential [`AnnIndex::query`] calls.
    fn query_batch(&self, queries: &Dataset, params: &SearchParams) -> Vec<Vec<Neighbor>> {
        executor::batch_query(self, queries, params)
    }

    /// Answers one [`SearchRequest`], honoring its
    /// [`crate::request::IdFilter`] and `max_dist` threshold, reusing
    /// `scratch` across calls.
    ///
    /// The default implementation wraps the scheme's [`AnnIndex::query_with`]:
    /// with no filter and no threshold it is byte-identical to `query_with`
    /// (same candidates, same heap); with either capability present it
    /// over-fetches and post-filters, which is *exact* for the exact
    /// schemes (Linear, KD-Tree scan: a threshold widens the fetch to the
    /// full candidate set, an allowlist widens it by the non-allowed row
    /// count) and recall-preserving for the approximate ones. Schemes that
    /// can do better override this and apply the predicate inside their
    /// candidate loop (the LCCS schemes, the live index).
    ///
    /// The returned [`SearchStats`] from the default path are lower-bound
    /// estimates (see [`SearchStats`] docs); overriding schemes report
    /// exact counts.
    ///
    /// # Panics
    /// Same contract as [`AnnIndex::query_with`]: `req.k == 0` or a
    /// dimension mismatch panics. Callers that cannot panic (servers)
    /// run [`SearchRequest::validate`] first.
    fn search_with(&self, q: &[f32], req: &SearchRequest, scratch: &mut Scratch) -> SearchResponse {
        let t0 = Instant::now();
        let params = req.params();
        let mut resp = if req.filter.is_none() && req.max_dist.is_none() {
            let hits = self.query_with(q, &params, scratch);
            let seen = hits.len() as u64;
            SearchResponse {
                hits,
                stats: SearchStats {
                    candidates_scanned: seen,
                    heap_pushes: seen,
                    ..SearchStats::default()
                },
            }
        } else {
            // Over-fetch so post-hoc filtering cannot starve the top-k.
            // A threshold has no computable bound short of the whole
            // index; an id filter is bounded by how many rows it can
            // knock out of the prefix.
            let n = self.len();
            let k_eff = if req.max_dist.is_some() {
                n.max(params.k)
            } else {
                let knocked_out = match &req.filter {
                    Some(f) if f.is_allow() => {
                        // Only allowlist ids that actually name a row can
                        // survive filtering; out-of-range ids must still
                        // count as knocked out or the over-fetch shrinks
                        // and valid allowed rows get dropped. The list is
                        // sorted, so in-range ids form a prefix.
                        let in_range = f.ids().partition_point(|&id| (id as usize) < n);
                        n.saturating_sub(in_range)
                    }
                    Some(f) => f.ids().len(),
                    None => 0,
                };
                params.k.saturating_add(knocked_out).min(n.max(params.k))
            };
            let fetch = SearchParams { k: k_eff.max(1), ..params };
            let raw = self.query_with(q, &fetch, scratch);
            let seen = raw.len() as u64;
            let mut hits: Vec<Neighbor> = raw
                .into_iter()
                .filter(|h| req.filter.as_ref().is_none_or(|f| f.accepts(h.id)))
                .filter(|h| req.max_dist.is_none_or(|d| h.dist <= d))
                .collect();
            hits.truncate(params.k);
            let kept = hits.len() as u64;
            SearchResponse {
                hits,
                stats: SearchStats {
                    candidates_scanned: seen,
                    heap_pushes: kept,
                    ..SearchStats::default()
                },
            }
        };
        resp.stats.wall_micros = t0.elapsed().as_micros() as u64;
        resp
    }

    /// Answers one [`SearchRequest`] with throwaway scratch.
    fn search(&self, q: &[f32], req: &SearchRequest) -> SearchResponse {
        let mut scratch = self.make_scratch();
        self.search_with(q, req, &mut scratch)
    }

    /// Answers a whole query set under one [`SearchRequest`] through the
    /// parallel batch executor, in query order (see
    /// [`executor::batch_search`]; per-query request overrides go through
    /// [`executor::batch_search_with`]).
    fn search_batch(&self, queries: &Dataset, req: &SearchRequest) -> Vec<SearchResponse> {
        executor::batch_search(self, queries, req)
    }
}

/// The build half of the contract: constructing an index over a dataset.
///
/// Separate from [`AnnIndex`] because the parameter type is
/// per-algorithm, which would break object safety; generic call sites
/// (registries, benchmarks) use `I: BuildAnn` and erase to
/// `Box<dyn AnnIndex>` afterwards.
pub trait BuildAnn: AnnIndex + Sized {
    /// Build-time parameters (hash-string length, table counts, …).
    type Params;

    /// Indexing phase: builds over `data`, verifying with `metric`.
    fn build_index(data: Arc<Dataset>, metric: Metric, params: &Self::Params) -> Self;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IdFilter;

    #[test]
    fn scratch_reinitializes_on_type_change() {
        let mut s = Scratch::empty();
        *s.get_or_insert_with(|| 1u32) += 5;
        assert_eq!(*s.get_or_insert_with(|| 0u32), 6, "state persists for same type");
        let v: &mut Vec<u8> = s.get_or_insert_with(|| vec![9u8]);
        assert_eq!(v, &vec![9u8], "type change reinstalls");
        assert_eq!(*s.get_or_insert_with(|| 0u32), 0, "and back");
    }

    #[test]
    fn search_params_builder() {
        let p = SearchRequest::top_k(10).budget(128).probes(65).params();
        assert_eq!((p.k, p.budget, p.probes), (10, 128, 65));
        assert_eq!(SearchParams::new(10, 128), SearchParams { probes: 0, ..p });
    }

    /// A deterministic toy index over the 1-d points `0, 1, …, n-1`
    /// (distance = |id - q[0]|), enough to exercise the default
    /// `search_with` over-fetch + post-filter path.
    struct TwigIndex {
        n: usize,
    }

    impl AnnIndex for TwigIndex {
        fn name(&self) -> &'static str {
            "Twig"
        }

        fn len(&self) -> usize {
            self.n
        }

        fn index_bytes(&self) -> usize {
            0
        }

        fn query_with(
            &self,
            q: &[f32],
            params: &SearchParams,
            _scratch: &mut Scratch,
        ) -> Vec<Neighbor> {
            assert!(params.k > 0, "k must be positive");
            let mut all: Vec<Neighbor> = (0..self.n as u32)
                .map(|id| Neighbor { id, dist: (f64::from(id) - f64::from(q[0])).abs() })
                .collect();
            all.sort_unstable();
            all.truncate(params.k);
            all
        }
    }

    #[test]
    fn default_search_matches_query_without_extras() {
        let idx = TwigIndex { n: 20 };
        let req = SearchRequest::top_k(5).budget(64);
        let resp = idx.search(&[7.2], &req);
        assert_eq!(resp.hits, idx.query(&[7.2], &req.params()));
        assert_eq!(resp.stats.candidates_scanned, 5);
        assert!(!idx.is_empty());
    }

    #[test]
    fn default_search_honors_allow_deny_and_threshold_exactly() {
        let idx = TwigIndex { n: 20 };
        // Allowlist: only even ids may answer.
        let evens: Vec<u32> = (0..20).filter(|i| i % 2 == 0).collect();
        let req = SearchRequest::top_k(3).budget(64).filter(IdFilter::allow(evens));
        let resp = idx.search(&[7.0], &req);
        assert_eq!(
            resp.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![6, 8, 4],
            "nearest even ids to 7, by distance then id"
        );
        // Denylist: the true nearest is forbidden, the runner-up answers.
        let req = SearchRequest::top_k(1).budget(64).filter(IdFilter::deny(vec![7]));
        assert_eq!(idx.search(&[7.0], &req).hits[0].id, 6);
        // Threshold: only rows within 1.5 of the query qualify.
        let req = SearchRequest::top_k(10).budget(64).max_dist(1.5);
        let resp = idx.search(&[7.0], &req);
        assert_eq!(resp.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![7, 6, 8]);
        assert!(resp.hits.iter().all(|h| h.dist <= 1.5));
        // Filter + threshold compose.
        let req = SearchRequest::top_k(10)
            .budget(64)
            .max_dist(1.5)
            .filter(IdFilter::deny(vec![7]));
        let resp = idx.search(&[7.0], &req);
        assert_eq!(resp.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![6, 8]);
    }

    #[test]
    fn allowlist_with_out_of_range_ids_keeps_the_overfetch_exact() {
        // Regression: ids beyond the index must count as knocked out when
        // sizing the over-fetch, or the few valid allowed rows fall
        // outside the fetched prefix and vanish from the answer.
        let idx = TwigIndex { n: 500 };
        let mut ids: Vec<u32> = (1000..1498).collect(); // 498 bogus ids
        ids.push(0);
        ids.push(7);
        let req = SearchRequest::top_k(2).budget(64).filter(IdFilter::allow(ids));
        let resp = idx.search(&[400.0], &req);
        assert_eq!(
            resp.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![7, 0],
            "the two real allowed rows must be found even though the query is far from them"
        );
    }

    #[test]
    fn default_search_batch_is_query_order_deterministic() {
        let idx = TwigIndex { n: 50 };
        let queries = Dataset::from_rows(
            "q",
            &(0..30).map(|i| vec![i as f32 * 1.7]).collect::<Vec<_>>(),
        );
        let req = SearchRequest::top_k(4).budget(8).filter(IdFilter::deny(vec![3, 9]));
        let batch = idx.search_batch(&queries, &req);
        assert_eq!(batch.len(), 30);
        for (qi, resp) in batch.iter().enumerate() {
            assert_eq!(resp.hits, idx.search(queries.get(qi), &req).hits, "query {qi}");
        }
    }
}
