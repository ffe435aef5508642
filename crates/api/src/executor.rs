//! Parallel batch-query execution.
//!
//! Throughput-oriented serving answers queries in batches, not one at a
//! time. The executor here runs an index-agnostic `(index, scratch) →
//! result` closure over `n` work items with:
//!
//! * **chunked dynamic scheduling** — workers repeatedly claim the next
//!   chunk of 16 indices from a shared atomic cursor, so a slow query (a
//!   dense CSA region, a deep probe sequence) never stalls the batch the
//!   way static partitioning would;
//! * **no threads for one chunk** — a batch of at most 16 items is a
//!   single claim, so it runs in index order on the calling thread
//!   ([`runs_inline`]). The live index's memtable-plus-segments fan-out
//!   and the router's per-shard fan-out are this case: a handful of
//!   units, answered one after another on the request's thread;
//! * **per-thread scratch reuse** — each worker builds one scratch
//!   (CSA cursors, dedup stamps, hash buffers) and reuses it for every
//!   query it claims, the same amortization the paper's single-threaded
//!   measurements get from `query_with`;
//! * **deterministic output ordering** — results land in per-slot cells
//!   indexed by query position, so the output equals the sequential loop's
//!   byte for byte regardless of thread interleaving.
//!
//! The scheduler is a dependency-free `std::thread::scope` pool rather
//! than a rayon pool: the build environment vendors all dependencies
//! offline, so rayon is gated out. The closure-level API below is shaped
//! so that swapping `par_map_scratch`'s body for
//! `rayon::iter::split`-based work stealing is a one-function change.

use crate::request::{SearchRequest, SearchResponse};
use crate::traits::{AnnIndex, Scratch, SearchParams};
use dataset::exact::Neighbor;
use dataset::Dataset;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Upper bound on worker threads (matches the cap the seed's ad-hoc batch
/// path used; beyond this, memory bandwidth dominates for ANN workloads).
const MAX_THREADS: usize = 16;

/// Indices a worker claims per trip to the shared cursor. Large enough to
/// keep contention negligible, small enough that tail imbalance stays
/// under one chunk per worker.
const CHUNK: usize = 16;

/// Worker threads the executor would use for a batch of `n` items.
pub fn worker_threads(n: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(MAX_THREADS)
        .min(n.max(1))
}

/// Whether a batch of `n` items runs in order on the calling thread: it
/// fits one chunk — the first claim on the cursor would hand a single
/// worker every item, so spawning buys nothing — or one worker is all
/// the host offers. Callers that keep state across calls on the inline
/// path ([`par_map_scratch`] makes one scratch there) branch on this.
pub fn runs_inline(n: usize) -> bool {
    n <= CHUNK || worker_threads(n) <= 1
}

/// Runs `f(i, &mut scratch)` for every `i in 0..n` across worker threads
/// (on the calling thread when [`runs_inline`]) and returns the results
/// in index order.
///
/// `make_scratch` runs once per worker; `f` must be pure with respect to
/// the scratch (reusing it only as an allocation cache) for the output to
/// be deterministic — every index in this workspace satisfies that by
/// construction because sequential `query` calls share the same contract.
pub fn par_map_scratch<R, S, MS, F>(n: usize, make_scratch: MS, f: F) -> Vec<R>
where
    R: Send + Sync,
    MS: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> R + Sync,
{
    if runs_inline(n) {
        let mut scratch = make_scratch();
        return (0..n).map(|i| f(i, &mut scratch)).collect();
    }
    let threads = worker_threads(n);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut scratch = make_scratch();
                loop {
                    let start = cursor.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    for i in start..(start + CHUNK).min(n) {
                        let out = f(i, &mut scratch);
                        let stored = slots[i].set(out).is_ok();
                        debug_assert!(stored, "slot {i} claimed twice");
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|cell| cell.into_inner().expect("cursor visited every slot"))
        .collect()
}

/// Answers every query in `queries` against `index`, in query order.
///
/// This is the implementation behind the default
/// [`AnnIndex::query_batch`]; free-standing so heterogeneous callers
/// (the eval harness's `Box<dyn AnnIndex>`, generic bench loops) can also
/// invoke it directly.
///
/// # Panics
/// Panics if the query dimension does not match the index's dataset
/// (surfaced by the index's own `query_with` assertion).
pub fn batch_query<I: AnnIndex + ?Sized>(
    index: &I,
    queries: &Dataset,
    params: &SearchParams,
) -> Vec<Vec<Neighbor>> {
    par_map_scratch(
        queries.len(),
        || index.make_scratch(),
        |i, scratch: &mut Scratch| index.query_with(queries.get(i), params, scratch),
    )
}

/// Answers every query in `queries` under one shared [`SearchRequest`],
/// in query order — the implementation behind the default
/// [`AnnIndex::search_batch`].
pub fn batch_search<I: AnnIndex + ?Sized>(
    index: &I,
    queries: &Dataset,
    req: &SearchRequest,
) -> Vec<SearchResponse> {
    batch_search_with(index, queries, |_| req)
}

/// [`batch_search`] with **per-query request overrides**: `req_for(i)`
/// names the request query `i` runs under, so one batch can mix plain
/// top-k questions with filtered or range questions (per-tenant
/// allowlists, per-query thresholds) without splitting the batch — the
/// scheduling, scratch reuse, and ordering guarantees are unchanged.
///
/// Requests are borrowed, not cloned: an [`crate::request::IdFilter`]
/// can be arbitrarily large, and the common case shares one request
/// across many queries.
pub fn batch_search_with<'r, I: AnnIndex + ?Sized>(
    index: &I,
    queries: &Dataset,
    req_for: impl Fn(usize) -> &'r SearchRequest + Sync,
) -> Vec<SearchResponse> {
    par_map_scratch(
        queries.len(),
        || index.make_scratch(),
        |i, scratch: &mut Scratch| index.search_with(queries.get(i), req_for(i), scratch),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_and_visits_all() {
        let out = par_map_scratch(1000, || 0u64, |i, acc| {
            *acc += 1;
            i * 3
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let none: Vec<usize> = par_map_scratch(0, || (), |i, ()| i);
        assert!(none.is_empty());
        let one = par_map_scratch(1, || (), |i, ()| i + 7);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn a_batch_that_fits_one_chunk_runs_on_the_caller() {
        let caller = std::thread::current().id();
        for n in [1, 5, CHUNK] {
            assert!(runs_inline(n));
            let ran_on = par_map_scratch(n, || (), |i, ()| (i, std::thread::current().id()));
            for (i, (item, thread)) in ran_on.into_iter().enumerate() {
                assert_eq!(item, i, "index order");
                assert_eq!(thread, caller, "item {i} of {n} left the calling thread");
            }
        }
        assert_eq!(runs_inline(CHUNK + 1), worker_threads(CHUNK + 1) <= 1);
    }

    #[test]
    fn per_query_overrides_reach_the_right_queries() {
        // A toy exact index over 1-d integer points.
        struct Line(usize);
        impl AnnIndex for Line {
            fn name(&self) -> &'static str {
                "Line"
            }
            fn len(&self) -> usize {
                self.0
            }
            fn index_bytes(&self) -> usize {
                0
            }
            fn query_with(
                &self,
                q: &[f32],
                params: &SearchParams,
                _s: &mut Scratch,
            ) -> Vec<Neighbor> {
                let mut all: Vec<Neighbor> = (0..self.0 as u32)
                    .map(|id| Neighbor { id, dist: (f64::from(id) - f64::from(q[0])).abs() })
                    .collect();
                all.sort_unstable();
                all.truncate(params.k);
                all
            }
        }
        let idx = Line(64);
        let queries =
            Dataset::from_rows("q", &(0..40).map(|i| vec![i as f32]).collect::<Vec<_>>());
        let base = SearchRequest::top_k(1).budget(8);
        let wide = SearchRequest::top_k(3).budget(8);
        // Every 4th query asks for three neighbors instead of one.
        let out = batch_search_with(&idx, &queries, |i| if i % 4 == 0 { &wide } else { &base });
        for (i, resp) in out.iter().enumerate() {
            let want = if i % 4 == 0 { 3 } else { 1 };
            assert_eq!(resp.hits.len(), want, "query {i}");
            assert_eq!(resp.hits[0].id, i as u32, "nearest point is the query itself");
        }
        // The shared-request form equals per-query with a constant.
        let shared = batch_search(&idx, &queries, &base);
        let manual = batch_search_with(&idx, &queries, |_| &base);
        assert_eq!(
            shared.iter().map(|r| r.hits.clone()).collect::<Vec<_>>(),
            manual.iter().map(|r| r.hits.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scratch_is_per_worker_not_per_item() {
        // The scratch counter each worker accumulates must never exceed the
        // total item count, and the sum of "first uses" equals the worker
        // count — indirectly checking scratch reuse.
        let n = 500;
        let firsts = std::sync::atomic::AtomicUsize::new(0);
        let out = par_map_scratch(
            n,
            || {
                firsts.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |_, seen| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(out.len(), n);
        let workers = firsts.load(Ordering::Relaxed);
        assert!(workers <= worker_threads(n), "scratch created once per worker");
        assert!(out.iter().any(|&c| c > 1) || workers >= n.min(worker_threads(n)));
    }
}
