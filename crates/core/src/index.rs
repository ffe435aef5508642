//! Single-probe LCCS-LSH (§4.1).
//!
//! **Indexing**: sample `m` i.i.d. functions from the chosen family, hash
//! every object into a length-`m` string, build the CSA (Algorithm 1).
//!
//! **Query**: hash `q`, run a `(λ + k − 1)`-LCCS search (Algorithm 2) to
//! obtain candidates, verify each candidate's true distance, return the
//! nearest `k` — exactly the two-phase flow of §4.1. The single tuning
//! parameter is `m`; λ trades query time against recall and is the knob the
//! paper's recall/time curves sweep.

use ann::{SearchRequest, SearchResponse, SearchStats};
use csa::{Candidate, Csa, SearchScratch, StringSet};
use dataset::exact::Neighbor;
use dataset::sq8::Sq8Pruner;
use dataset::{Dataset, Metric};
use lsh::{hash_dataset, hash_query, sample_family, FamilyKind, FamilyParams, LshFunction};
use std::sync::Arc;
use std::time::Instant;

/// Depth `D` of the verification pipeline ([`LccsLsh::verify_request`]):
/// how many candidates a prefetch runs ahead of the stage that reads the
/// row — far enough to cover a memory round trip, near enough that the
/// rows are still cached when their turn comes.
const PIPELINE_DEPTH: usize = 8;

/// What the pipeline's second stage learned from a candidate's SQ8 code
/// row, kept for the third ([`LccsLsh::verify_request`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sq8Verdict {
    /// The heap was not full yet (or there is no pruner): nothing read.
    NotEvaluated,
    /// The bound exceeded the skip threshold of that moment.
    Prunable,
    /// The full bound, which did not.
    Bound(u64),
}

/// Build-time parameters of LCCS-LSH.
#[derive(Debug, Clone)]
pub struct LccsParams {
    /// Hash-string length `m` — the paper's single tuning parameter
    /// (§6.3 sweeps m ∈ {8, 16, …, 512}).
    pub m: usize,
    /// LSH family to draw the `m` functions from.
    pub family: FamilyKind,
    /// Family parameters (bucket width `w` for random projection).
    pub family_params: FamilyParams,
    /// RNG seed for function sampling.
    pub seed: u64,
}

impl LccsParams {
    /// Euclidean setup: random-projection family with bucket width `w`.
    pub fn euclidean(w: f64) -> Self {
        Self {
            m: 128,
            family: FamilyKind::RandomProjection,
            family_params: FamilyParams { w },
            seed: 0x1cc5,
        }
    }

    /// Angular setup: fast cross-polytope family.
    pub fn angular() -> Self {
        Self {
            m: 128,
            family: FamilyKind::CrossPolytopeFast,
            family_params: FamilyParams::default(),
            seed: 0x1cc5,
        }
    }

    /// Hamming setup: bit-sampling family.
    pub fn hamming() -> Self {
        Self {
            m: 128,
            family: FamilyKind::BitSampling,
            family_params: FamilyParams::default(),
            seed: 0x1cc5,
        }
    }

    /// Jaccard setup: MinHash family.
    pub fn jaccard() -> Self {
        Self {
            m: 128,
            family: FamilyKind::MinHash,
            family_params: FamilyParams::default(),
            seed: 0x1cc5,
        }
    }

    /// Overrides `m`.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m;
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one c-k-ANNS query, with the verification count the complexity
/// analysis of §5.2 charges `O(λ d)` for.
#[derive(Debug, Clone)]
pub struct QueryOutput {
    /// The k nearest verified candidates, ascending by true distance.
    pub neighbors: Vec<Neighbor>,
    /// How many distinct candidates were verified (≤ λ + k − 1).
    pub verified: usize,
}

/// Reusable per-query scratch (CSA cursor state + hash-string buffer).
#[derive(Debug)]
pub struct QueryScratch {
    pub(crate) csa: SearchScratch,
    pub(crate) hash: Vec<u64>,
}

/// The single-probe LCCS-LSH index.
pub struct LccsLsh {
    data: Arc<Dataset>,
    metric: Metric,
    funcs: Vec<Box<dyn LshFunction>>,
    csa: Csa,
    params: LccsParams,
}

impl LccsLsh {
    /// Indexing phase (§4.1): hash all of `data` and build the CSA.
    ///
    /// # Panics
    /// Panics if the dataset is empty or `m == 0`.
    pub fn build(data: Arc<Dataset>, metric: Metric, params: &LccsParams) -> Self {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.m >= 2, "hash-string length m must be at least 2");
        let funcs =
            sample_family(params.family, data.dim(), params.m, &params.family_params, params.seed);
        let strings = hash_dataset(&funcs, &data);
        let set = StringSet::from_flat(data.len(), params.m, strings);
        let csa = Csa::build(set);
        // Prime the dataset's SQ8 code table so the verification loops
        // can consult its certified skip bound from the first query on.
        // Pure cache: the bound is sound, answers stay bit-identical.
        data.sq8();
        Self { data, metric, funcs, csa, params: params.clone() }
    }

    /// Hash-string length `m`.
    pub fn m(&self) -> usize {
        self.params.m
    }

    /// The metric the index verifies with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The indexed dataset.
    pub fn data(&self) -> &Arc<Dataset> {
        &self.data
    }

    /// Index footprint in bytes (CSA arrays + hash strings; the raw vectors
    /// are charged to the dataset, as in the paper's index-size metric).
    pub fn index_bytes(&self) -> usize {
        self.csa.nbytes()
    }

    /// Access to the underlying CSA (exposed for MP-LCCS-LSH and tests).
    pub fn csa(&self) -> &Csa {
        &self.csa
    }

    /// The sampled hash functions (exposed for MP-LCCS-LSH).
    pub fn functions(&self) -> &[Box<dyn LshFunction>] {
        &self.funcs
    }

    /// The build parameters.
    pub fn params(&self) -> &LccsParams {
        &self.params
    }

    /// Reassembles an index from previously constructed parts (used by the
    /// persistence layer; the caller guarantees consistency of the parts).
    pub(crate) fn from_parts(
        data: Arc<Dataset>,
        metric: Metric,
        funcs: Vec<Box<dyn LshFunction>>,
        csa: Csa,
        params: LccsParams,
    ) -> Self {
        Self { data, metric, funcs, csa, params }
    }

    /// The `(R, c)`-NNS decision problem (Definition 2.2): returns some
    /// object within distance `c·R` of `q` if one within `R` exists; returns
    /// `None` when nothing within `c·R` is found among the λ candidates.
    /// By Theorem 5.1, with λ set per [`crate::theory::lambda`] the promise
    /// case succeeds with probability ≥ 1/4 per index; callers amplify by
    /// repetition as usual.
    pub fn query_rnn(&self, q: &[f32], radius: f64, c: f64, lambda: usize) -> Option<Neighbor> {
        assert!(radius > 0.0, "radius must be positive");
        assert!(c > 1.0, "approximation ratio must exceed 1");
        let out = self.query(q, 1, lambda);
        out.neighbors.into_iter().next().filter(|n| n.dist <= c * radius)
    }

    /// Fresh scratch for [`LccsLsh::query_with`].
    pub fn scratch(&self) -> QueryScratch {
        QueryScratch { csa: SearchScratch::for_csa(&self.csa), hash: vec![0; self.params.m] }
    }

    /// c-k-ANNS query (§4.1): `(λ + k − 1)`-LCCS search, then verification.
    /// Convenience wrapper allocating fresh scratch.
    pub fn query(&self, q: &[f32], k: usize, lambda: usize) -> QueryOutput {
        let mut scratch = self.scratch();
        self.query_with(q, k, lambda, &mut scratch)
    }

    /// c-k-ANNS query reusing scratch: [`LccsLsh::search_request`] with a
    /// knob-only request (no filter, no threshold).
    ///
    /// # Panics
    /// Panics if `k == 0` or `q` has the wrong dimension.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        lambda: usize,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        let resp = self.search_request(q, &SearchRequest::top_k(k).budget(lambda), scratch);
        QueryOutput { verified: resp.stats.candidates_scanned as usize, neighbors: resp.hits }
    }

    /// Answers a whole query set in parallel through the workspace batch
    /// executor ([`ann::executor`]): chunked dynamic scheduling, one
    /// scratch per worker, results in query order and identical to
    /// sequential [`LccsLsh::query_with`] calls. The paper's measurements
    /// are single-threaded; this is the deployment path for
    /// throughput-oriented users.
    pub fn query_batch(&self, queries: &Dataset, k: usize, lambda: usize) -> Vec<QueryOutput> {
        assert_eq!(queries.dim(), self.data.dim(), "query dimension mismatch");
        ann::executor::par_map_scratch(
            queries.len(),
            || self.scratch(),
            |i, scratch| self.query_with(queries.get(i), k, lambda, scratch),
        )
    }

    /// The SQ8 skip-bound pruner for `q`, when the dataset carries a
    /// code table covering every row (built eagerly by [`LccsLsh::build`];
    /// absent on datasets restored from pre-SQ8 snapshots, which then
    /// verify pure-f32 exactly as before).
    fn pruner_for(&self, q: &[f32]) -> Option<Sq8Pruner<'_>> {
        let sq = self.data.sq8_if_built()?;
        if sq.rows() != self.data.len() {
            return None;
        }
        sq.pruner(q, self.metric)
    }

    /// Verification phase (§4.1): exact distances for the candidates,
    /// keep the nearest `k` (ascending by distance, ties by id). The
    /// [`SearchRequest`]'s id filter and distance threshold are honored
    /// *inside* the candidate loop: a candidate the filter rejects (or
    /// whose true distance exceeds `max_dist`) never consumes a heap
    /// slot, so the k matching rows the λ candidates contain always
    /// survive — post-hoc filtering could evict them.
    ///
    /// The candidates are random rows of a table far larger than the
    /// cache, so the loop is software-pipelined over the slice: step `t`
    /// requests the SQ8 code row of candidate `t`, evaluates the skip
    /// bound of candidate `t − D` (whose code row has arrived) to decide
    /// whether its f32 row is worth requesting too, and *verifies*
    /// candidate `t − 2D`, whose rows have arrived. The first stage only
    /// issues prefetches (none for a candidate the filter rejects, whose
    /// rows nobody will read); every decision is taken by the third, in
    /// candidate order and against the k-th distance of that moment, so
    /// hits and counters are those of the plain sequential loop.
    ///
    /// **Each code row is read once.** The second stage's evaluation is
    /// the only one a candidate gets: it leaves a `Sq8Verdict` in a ring
    /// the third stage reads `D` steps later. That is sound because the
    /// k-th distance only shrinks while the scan runs, and the skip
    /// threshold with it: a candidate found prunable stays prunable, and
    /// for one that was not, "does its bound exceed the threshold" is a
    /// comparison of the recorded bound with the threshold of the later
    /// moment — the predicate `Sq8Pruner::skips` computes, without the
    /// row. Only a candidate that met the second stage before the heap
    /// was full is evaluated by the third.
    ///
    /// Returns the hits and exact [`SearchStats`] counts (wall time is
    /// filled in by the caller, which owns the whole-query clock).
    ///
    /// Not part of the API: `pub` (and hidden) only so the `verify`
    /// micro-bench can time this phase over a fixed candidate list. It
    /// trusts its caller to have validated `req` (`k > 0`) the way
    /// [`LccsLsh::search_request`], the one entry point for queries, does.
    #[doc(hidden)]
    pub fn verify_request(
        &self,
        q: &[f32],
        req: &SearchRequest,
        cands: &[Candidate],
    ) -> (Vec<Neighbor>, SearchStats) {
        const D: usize = PIPELINE_DEPTH;
        let k = req.k;
        let mut pruner = self.pruner_for(q);
        let mut stats = SearchStats::default();
        let mut heap: std::collections::BinaryHeap<Neighbor> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        let filtered_out = |id: u32| req.filter.as_ref().is_some_and(|f| !f.accepts(id));
        let stage = |t: usize, lag: usize| Some(cands.get(t.checked_sub(lag)?)?.id);
        // A candidate the filter rejects needs none of its rows: the two
        // prefetch stages pass it over.
        let wanted = |t: usize, lag: usize| stage(t, lag).filter(|&id| !filtered_out(id));
        let mut verdicts = [Sq8Verdict::NotEvaluated; 2 * D];
        for t in 0..cands.len() + 2 * D {
            if let (Some(p), Some(id)) = (&pruner, wanted(t, 0)) {
                p.prefetch_code_row(id as usize);
            }
            if let Some(id) = wanted(t, D) {
                let verdict = match pruner.as_mut() {
                    Some(p) if heap.len() == k => p
                        .bound_within(id as usize, heap.peek().expect("non-empty").dist)
                        .map_or(Sq8Verdict::Prunable, Sq8Verdict::Bound),
                    _ => Sq8Verdict::NotEvaluated,
                };
                // Prunable now stays prunable (the k-th only shrinks), so
                // the f32 row of such a candidate is never read.
                if verdict != Sq8Verdict::Prunable {
                    self.data.prefetch_row(id as usize);
                }
                verdicts[(t - D) % (2 * D)] = verdict;
            }
            let Some(id) = stage(t, 2 * D) else { continue };
            stats.candidates_scanned += 1;
            if filtered_out(id) {
                continue;
            }
            // SQ8 skip bound (after the filter, before the full-width
            // distance): sound, so hits and the other counters are
            // unchanged — a skipped candidate was counted as scanned and
            // could never have pushed into the heap.
            if heap.len() == k {
                if let Some(p) = pruner.as_mut() {
                    let kth = heap.peek().expect("non-empty").dist;
                    let skip = match verdicts[(t - 2 * D) % (2 * D)] {
                        Sq8Verdict::Prunable => true,
                        Sq8Verdict::Bound(bound) => p.bound_skips(bound, kth),
                        Sq8Verdict::NotEvaluated => p.skips(id as usize, kth),
                    };
                    debug_assert_eq!(skip, p.skips(id as usize, kth), "a recorded verdict is `skips`");
                    if skip {
                        stats.sq8_pruned += 1;
                        continue;
                    }
                }
            }
            let s = self.metric.surrogate_unchecked(self.data.get(id as usize), q);
            // The threshold is compared on the *true* distance, not the
            // surrogate: converting the threshold into surrogate space
            // could disagree with callers by a rounding ulp.
            if let Some(d) = req.max_dist {
                if self.metric.from_surrogate(s) > d {
                    continue;
                }
            }
            let cand = Neighbor { id, dist: s };
            if heap.len() < k {
                heap.push(cand);
                stats.heap_pushes += 1;
            } else if cand < *heap.peek().expect("non-empty") {
                heap.pop();
                heap.push(cand);
                stats.heap_pushes += 1;
            }
        }
        let mut out = heap.into_sorted_vec();
        for n in &mut out {
            n.dist = self.metric.from_surrogate(n.dist);
        }
        (out, stats)
    }

    /// Answers one [`SearchRequest`]: the usual `(λ + k − 1)`-LCCS search
    /// collects candidates under the budget, then `LccsLsh::verify_request`
    /// applies the filter/threshold inside the verification loop. This is
    /// the implementation behind the scheme's [`ann::AnnIndex::search_with`]
    /// override.
    ///
    /// # Panics
    /// Panics if `req.k == 0` or `q` has the wrong dimension.
    pub fn search_request(
        &self,
        q: &[f32],
        req: &SearchRequest,
        scratch: &mut QueryScratch,
    ) -> SearchResponse {
        assert!(req.k > 0, "k must be positive");
        assert_eq!(q.len(), self.data.dim(), "query dimension mismatch");
        let t0 = Instant::now();
        let budget = req.budget.max(1) + req.k - 1;
        scratch.hash.clear();
        scratch.hash.extend(hash_query(&self.funcs, q));
        let (cands, _anchors) = self.csa.search_with(&scratch.hash, budget, &mut scratch.csa);
        let (hits, mut stats) = self.verify_request(q, req, &cands);
        stats.wall_micros = t0.elapsed().as_micros() as u64;
        SearchResponse { hits, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann::IdFilter;
    use dataset::{ExactKnn, SynthSpec};

    fn toy(n: usize, seed: u64) -> Arc<Dataset> {
        Arc::new(SynthSpec::new("toy", n, 24).with_clusters(12).generate(seed))
    }

    #[test]
    fn self_query_returns_self_first() {
        let data = toy(500, 1);
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        for i in [0usize, 100, 499] {
            let out = idx.query(data.get(i), 3, 32);
            assert_eq!(out.neighbors[0].id, i as u32, "exact duplicate must top the list");
            assert!(out.neighbors[0].dist < 1e-6);
        }
    }

    #[test]
    fn neighbors_sorted_ascending() {
        let data = toy(300, 2);
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        let out = idx.query(data.get(5), 10, 64);
        for w in out.neighbors.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert!(out.verified >= out.neighbors.len());
    }

    #[test]
    fn recall_improves_with_lambda() {
        // Statistical sanity: a larger candidate budget cannot hurt recall.
        let data = toy(2000, 3);
        let queries = SynthSpec::new("toy", 2000, 24).with_clusters(12).generate_queries(20, 3);
        let gt = ExactKnn::compute(&data, &queries, 10, Metric::Euclidean);
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(32));
        let recall = |lambda: usize| {
            let mut hits = 0usize;
            let mut scratch = idx.scratch();
            for (qi, q) in queries.iter().enumerate() {
                let out = idx.query_with(q, 10, lambda, &mut scratch);
                let truth: Vec<u32> = gt.neighbors(qi).iter().map(|n| n.id).collect();
                hits += out.neighbors.iter().filter(|n| truth.contains(&n.id)).count();
            }
            hits as f64 / (10.0 * queries.len() as f64)
        };
        let lo = recall(4);
        let hi = recall(512);
        assert!(hi >= lo, "recall must not degrade with budget: {lo} -> {hi}");
        assert!(hi > 0.5, "λ=512 on n=2000 clustered data should recall well, got {hi}");
    }

    #[test]
    fn angular_family_works() {
        let data = Arc::new(
            SynthSpec::new("ang", 400, 32).with_clusters(8).generate(4).normalized(),
        );
        let idx = LccsLsh::build(data.clone(), Metric::Angular, &LccsParams::angular().with_m(16));
        let out = idx.query(data.get(7), 5, 64);
        assert_eq!(out.neighbors[0].id, 7);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = toy(200, 5);
        let p = LccsParams::euclidean(8.0).with_m(16).with_seed(99);
        let a = LccsLsh::build(data.clone(), Metric::Euclidean, &p);
        let b = LccsLsh::build(data.clone(), Metric::Euclidean, &p);
        let qa = a.query(data.get(3), 5, 32);
        let qb = b.query(data.get(3), 5, 32);
        assert_eq!(qa.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                   qb.neighbors.iter().map(|n| n.id).collect::<Vec<_>>());
    }

    #[test]
    fn index_bytes_scales_with_m() {
        let data = toy(100, 6);
        let small = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(8));
        let large = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(32));
        assert!(large.index_bytes() > 3 * small.index_bytes());
    }

    #[test]
    fn batch_query_matches_sequential() {
        let data = toy(600, 12);
        let idx =
            LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        let queries = data.sample_queries(23, 8);
        let batch = idx.query_batch(&queries, 5, 32);
        assert_eq!(batch.len(), 23);
        let mut scratch = idx.scratch();
        for (qi, q) in queries.iter().enumerate() {
            let seq = idx.query_with(q, 5, 32, &mut scratch);
            assert_eq!(
                batch[qi].neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                seq.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                "query {qi}"
            );
        }
    }

    #[test]
    fn rnn_decision_semantics() {
        let data = toy(800, 11);
        let idx =
            LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(32));
        // Promise case: query = database member, so B(q, R) is non-empty for
        // any R; the answer must be within c·R of q.
        let q = data.get(5);
        let hit = idx.query_rnn(q, 0.5, 2.0, 64).expect("duplicate must be found");
        assert!(hit.dist <= 1.0);
        // Far case: a query far beyond the data returns nothing at tiny R.
        let far = vec![1e6f32; data.dim()];
        assert!(idx.query_rnn(&far, 0.5, 2.0, 64).is_none());
    }

    /// The verification loop with no pipeline around it: the reference
    /// the pipelined [`LccsLsh::verify_request`] must agree with on hits
    /// and counters. Also returns how many full-width distances it took.
    fn verify_straight_line(
        idx: &LccsLsh,
        q: &[f32],
        req: &SearchRequest,
        cands: &[Candidate],
    ) -> (Vec<Neighbor>, SearchStats, u64) {
        let mut pruner = idx.pruner_for(q);
        let mut stats = SearchStats::default();
        let mut evaluated = 0;
        let mut top: Vec<Neighbor> = Vec::new();
        for c in cands {
            stats.candidates_scanned += 1;
            if req.filter.as_ref().is_some_and(|f| !f.accepts(c.id)) {
                continue;
            }
            if top.len() == req.k {
                let kth = top[req.k - 1].dist;
                if pruner.as_mut().is_some_and(|p| p.skips(c.id as usize, kth)) {
                    stats.sq8_pruned += 1;
                    continue;
                }
            }
            evaluated += 1;
            let s = idx.metric.surrogate_unchecked(idx.data.get(c.id as usize), q);
            if req.max_dist.is_some_and(|d| idx.metric.from_surrogate(s) > d) {
                continue;
            }
            let cand = Neighbor { id: c.id, dist: s };
            if top.len() < req.k || cand < top[req.k - 1] {
                top.truncate(req.k - 1);
                top.push(cand);
                top.sort();
                stats.heap_pushes += 1;
            }
        }
        for n in &mut top {
            n.dist = idx.metric.from_surrogate(n.dist);
        }
        (top, stats, evaluated)
    }

    fn bits(n: usize, seed: u64) -> Arc<Dataset> {
        let raw = SynthSpec::new("b", n, 32).with_clusters(8).generate(seed);
        let flat: Vec<f32> = raw.as_flat().iter().map(|&x| f32::from(x > 0.0)).collect();
        Arc::new(Dataset::from_flat("bits", 32, flat))
    }

    #[test]
    fn pipelined_verification_matches_the_straight_line_loop() {
        const D: usize = PIPELINE_DEPTH;
        let k = 3;
        let angular = Arc::new(SynthSpec::new("a", 900, 24).with_clusters(6).generate(31).normalized());
        let indexes = [
            LccsLsh::build(toy(900, 30), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16)),
            LccsLsh::build(angular, Metric::Angular, &LccsParams::angular().with_m(16)),
            LccsLsh::build(bits(900, 32), Metric::Hamming, &LccsParams::hamming().with_m(16)),
        ];
        for idx in &indexes {
            assert_eq!(
                idx.pruner_for(idx.data.get(0)).is_some(),
                idx.metric != Metric::Hamming,
                "Euclidean and unit-norm Angular prune, Hamming has no pruner"
            );
            let mut scratch = idx.scratch();
            let mut pruned = 0;
            for qi in [0usize, 411, 899] {
                let q = idx.data.get(qi).to_vec();
                for len in [k, D - 1, D, 2 * D - 1, 2 * D, 2 * D + 1, 50 * D] {
                    let base = SearchRequest::top_k(k).budget(len + 1 - k);
                    // A threshold that cuts inside the unfiltered answer.
                    let cut = idx.search_request(&q, &base, &mut scratch).hits.last().map(|n| n.dist);
                    let odd = IdFilter::deny((0..900).filter(|i| i % 2 == 1).collect::<Vec<u32>>());
                    for req in [
                        base.clone(),
                        base.clone().filter(odd.clone()),
                        base.clone().max_dist(cut.unwrap_or(1.0) * 0.9),
                        base.clone().filter(odd).max_dist(cut.unwrap_or(1.0) * 1.5),
                    ] {
                        let hash = hash_query(&idx.funcs, &q);
                        let cands = idx.csa.search(&hash, len);
                        assert_eq!(cands.len(), len, "the budget fixes the list length");
                        let (hits, stats, _) = verify_straight_line(idx, &q, &req, &cands);
                        let got = idx.search_request(&q, &req, &mut scratch);
                        let label = format!("{:?} q{qi} len {len} {req:?}", idx.metric);
                        assert_eq!(got.hits, hits, "{label}");
                        assert_eq!(got.stats.candidates_scanned, stats.candidates_scanned, "{label}");
                        assert_eq!(got.stats.heap_pushes, stats.heap_pushes, "{label}");
                        assert_eq!(got.stats.sq8_pruned, stats.sq8_pruned, "{label}");
                        assert_eq!(got.stats.plan, None, "{label}");
                        pruned += stats.sq8_pruned;
                    }
                }
            }
            assert_eq!(pruned > 0, idx.metric != Metric::Hamming, "{:?} pruned {pruned}", idx.metric);
        }
    }

    /// The case the verdict ring exists for: a candidate whose bound is
    /// taken (stage 2) while the heap holds far rows, and whose turn
    /// (stage 3) comes after nearer rows have shrunk the k-th — the
    /// recorded bound was within the old threshold and exceeds the new one.
    /// Same reference as above: hits and counters of the straight-line loop.
    #[test]
    fn a_bound_recorded_before_the_kth_improved_is_judged_by_the_new_kth() {
        const D: usize = PIPELINE_DEPTH;
        let k = 3;
        let angular = Arc::new(SynthSpec::new("a", 900, 24).with_clusters(6).generate(31).normalized());
        for idx in [
            LccsLsh::build(toy(900, 30), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16)),
            LccsLsh::build(angular, Metric::Angular, &LccsParams::angular().with_m(16)),
        ] {
            let q = idx.data.get(0).to_vec();
            let mut by_dist: Vec<Neighbor> = (0..idx.data.len() as u32)
                .map(|id| Neighbor { id, dist: idx.metric.surrogate_unchecked(idx.data.get(id as usize), &q) })
                .collect();
            by_dist.sort();
            // 3D far rows fill the heap and the pipeline; the k nearest
            // rows follow; then the candidates under test, whose stage 2
            // runs before any near row is verified and whose stage 3 runs
            // after all of them.
            let far = &by_dist[by_dist.len() - 3 * D..];
            let near = &by_dist[..k];
            let (kth_far, kth_near) = (far[k - 1].dist, near[k - 1].dist);
            let mut pruner = idx.pruner_for(&q).expect("both metrics prune");
            let crossing: Vec<u32> = by_dist[k..by_dist.len() - 3 * D]
                .iter()
                .map(|n| n.id)
                .filter(|&id| {
                    pruner.bound_within(id as usize, kth_far).is_some()
                        && pruner.skips(id as usize, kth_near)
                })
                .take(D - k)
                .collect();
            assert_eq!(crossing.len(), D - k, "{:?}: rows whose bound crosses the limit", idx.metric);
            let cands: Vec<Candidate> = far
                .iter()
                .chain(near)
                .map(|n| n.id)
                .chain(crossing.iter().copied())
                .map(|id| Candidate { id, len: 0 })
                .collect();
            let req = SearchRequest::top_k(k);
            let (hits, stats, _) = verify_straight_line(&idx, &q, &req, &cands);
            let (got_hits, got) = idx.verify_request(&q, &req, &cands);
            assert_eq!(got_hits, hits);
            assert_eq!(got_hits.iter().map(|n| n.id).collect::<Vec<_>>(), near.iter().map(|n| n.id).collect::<Vec<_>>());
            assert_eq!(got.candidates_scanned, stats.candidates_scanned);
            assert_eq!(got.heap_pushes, stats.heap_pushes);
            assert_eq!(got.sq8_pruned, stats.sq8_pruned);
            assert!(got.sq8_pruned >= crossing.len() as u64, "every crossing row is pruned");
        }
    }

    #[test]
    fn verification_counts_what_the_sq8_bound_prunes() {
        let data = toy(3000, 40);
        let params = LccsParams::euclidean(8.0).with_m(16);
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &params);
        // The same index over a dataset that carries no code table.
        let plain = Arc::new(Dataset::from_flat("plain", data.dim(), data.as_flat().to_vec()));
        let funcs = sample_family(params.family, data.dim(), params.m, &params.family_params, params.seed);
        let unpruned = LccsLsh::from_parts(plain, Metric::Euclidean, funcs, idx.csa.clone(), params);
        assert!(unpruned.pruner_for(data.get(0)).is_none());

        let req = SearchRequest::top_k(5).budget(800);
        for qi in [3usize, 1500, 2999] {
            let q = data.get(qi);
            let got = idx.search_request(q, &req, &mut idx.scratch());
            let base = unpruned.search_request(q, &req, &mut unpruned.scratch());
            assert_eq!(got.hits, base.hits, "pruning never changes the answer");
            assert_eq!(base.stats.sq8_pruned, 0);
            assert!(got.stats.sq8_pruned > 0, "clustered data with budget >> k prunes");

            let hash = hash_query(&idx.funcs, q);
            let cands = idx.csa.search(&hash, 800 + 5 - 1);
            let (_, _, evaluated) = verify_straight_line(&idx, q, &req, &cands);
            assert_eq!(got.stats.sq8_pruned + evaluated, got.stats.candidates_scanned);
            assert_eq!(got.stats.candidates_scanned, base.stats.candidates_scanned);
            assert_eq!(got.stats.heap_pushes, base.stats.heap_pushes);
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let data = toy(50, 7);
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(8));
        idx.query(data.get(0), 0, 8);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn tiny_m_panics() {
        let data = toy(50, 8);
        LccsLsh::build(data, Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(1));
    }
}
