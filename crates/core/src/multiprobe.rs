//! MP-LCCS-LSH (§4.2): multi-probe LCCS-LSH.
//!
//! A *perturbation vector* δ is a list of `(position, alternative)` pairs:
//! "replace `h_i(q)` by its j-th alternative". Probing the perturbed hash
//! strings in ascending score order boosts the conceptual number of hash
//! tables without extra memory, exactly like Multi-Probe LSH does for the
//! static concatenating framework.
//!
//! The paper identifies two problems with naively porting Multi-Probe LSH
//! and addresses both:
//!
//! 1. **Skip unaffected positions.** Changing `h_{i}(q)` only changes the
//!    LCP at rotations whose match window reaches position `i`; the anchors
//!    stored during the first λ-LCCS search tell us each rotation's reach,
//!    so a probe re-searches only the affected rotations.
//! 2. **Gap-capped generation** (Algorithm 3). Perturbation vectors whose
//!    modified positions are far apart add only candidates that cheaper
//!    probes already produce, so `p_expand` may only append a position at
//!    most [`MAX_GAP`] after the last one, and vectors are emitted in
//!    ascending score order through a min-heap with the `p_shift` /
//!    `p_expand` successor rules.

use crate::index::{LccsLsh, LccsParams, QueryOutput, QueryScratch};
use dataset::{Dataset, Metric};
use lsh::ScoredAlt;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Maximum gap between adjacent modified positions in a perturbation vector.
/// "We set MAX_GAP = 2 in practice" (§4.2).
pub const MAX_GAP: usize = 2;

/// One perturbation vector: sorted `(position, alternative-index)` pairs
/// plus its inherited score (sum of the member alternatives' scores).
#[derive(Debug, Clone, PartialEq)]
pub struct Perturbation {
    /// Modification list; positions are 0-based and strictly increasing.
    pub mods: Vec<(usize, usize)>,
    /// Total score (smaller = probed earlier).
    pub score: f64,
}

impl Perturbation {
    /// The empty perturbation (the unmodified hash string).
    pub fn empty() -> Self {
        Self { mods: Vec::new(), score: 0.0 }
    }
}

#[derive(Debug)]
struct HeapItem(Perturbation);

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.0.score == other.0.score
    }
}
impl Eq for HeapItem {}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by score (BinaryHeap is a max-heap, so reverse), with a
        // deterministic tie-break on the modification lists.
        other
            .0
            .score
            .total_cmp(&self.0.score)
            .then_with(|| other.0.mods.cmp(&self.0.mods))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Streaming generator of perturbation vectors (Algorithm 3). Yields the
/// empty perturbation first, then perturbations in ascending score order.
pub struct PerturbationGenerator<'a> {
    alts: &'a [Vec<ScoredAlt>],
    heap: BinaryHeap<HeapItem>,
    emitted_empty: bool,
}

impl<'a> PerturbationGenerator<'a> {
    /// `alts[i]` is the ascending-score alternative list of position `i`
    /// (from [`lsh::LshFunction::alternatives`]).
    pub fn new(alts: &'a [Vec<ScoredAlt>]) -> Self {
        let mut heap = BinaryHeap::new();
        // Lines 3–5: one singleton per position using its first alternative.
        for (i, list) in alts.iter().enumerate() {
            if let Some(a) = list.first() {
                heap.push(HeapItem(Perturbation { mods: vec![(i, 0)], score: a.score }));
            }
        }
        Self { alts, heap, emitted_empty: false }
    }

    /// `p_shift(δ)`: advance the last modification to its next alternative.
    fn p_shift(&self, p: &Perturbation) -> Option<Perturbation> {
        let &(pos, j) = p.mods.last()?;
        let list = &self.alts[pos];
        let next = list.get(j + 1)?;
        let mut mods = p.mods.clone();
        *mods.last_mut().expect("non-empty") = (pos, j + 1);
        Some(Perturbation { mods, score: p.score - list[j].score + next.score })
    }

    /// `p_expand(δ, gap)`: append `(i_e + gap, first alternative)`.
    fn p_expand(&self, p: &Perturbation, gap: usize) -> Option<Perturbation> {
        let &(pos, _) = p.mods.last()?;
        let new_pos = pos + gap;
        let first = self.alts.get(new_pos)?.first()?;
        let mut mods = p.mods.clone();
        mods.push((new_pos, 0));
        Some(Perturbation { mods, score: p.score + first.score })
    }
}

impl Iterator for PerturbationGenerator<'_> {
    type Item = Perturbation;

    fn next(&mut self) -> Option<Perturbation> {
        if !self.emitted_empty {
            self.emitted_empty = true;
            return Some(Perturbation::empty());
        }
        // Lines 6–13 of Algorithm 3.
        let HeapItem(p) = self.heap.pop()?;
        if let Some(s) = self.p_shift(&p) {
            self.heap.push(HeapItem(s));
        }
        for gap in 1..=MAX_GAP {
            if let Some(e) = self.p_expand(&p, gap) {
                self.heap.push(HeapItem(e));
            }
        }
        Some(p)
    }
}

/// Multi-probe parameters.
#[derive(Debug, Clone)]
pub struct MpParams {
    /// Total number of probes, *including* the unperturbed one. The paper
    /// sweeps `#probes ∈ {1, m+1, 2m+1, 4m+1, 8m+1}`; `1` makes the scheme
    /// identical to single-probe LCCS-LSH (§6.4, footnote 13).
    pub probes: usize,
    /// Alternatives fetched per position (depth available to `p_shift`).
    pub max_alts: usize,
}

impl Default for MpParams {
    fn default() -> Self {
        Self { probes: 1, max_alts: 8 }
    }
}

impl MpParams {
    /// `#probes = mult · m + 1`, the paper's sweep points.
    pub fn per_m(mult: usize, m: usize) -> Self {
        Self { probes: mult * m + 1, max_alts: 8 }
    }
}

/// The multi-probe LCCS-LSH index: a [`LccsLsh`] plus probing state.
pub struct MpLccsLsh {
    inner: LccsLsh,
    mp: MpParams,
}

impl MpLccsLsh {
    /// Builds the underlying LCCS-LSH index.
    pub fn build(data: Arc<Dataset>, metric: Metric, params: &LccsParams, mp: MpParams) -> Self {
        assert!(mp.probes >= 1, "need at least the unperturbed probe");
        Self { inner: LccsLsh::build(data, metric, params), mp }
    }

    /// Wraps an existing single-probe index.
    pub fn from_inner(inner: LccsLsh, mp: MpParams) -> Self {
        assert!(mp.probes >= 1, "need at least the unperturbed probe");
        Self { inner, mp }
    }

    /// The wrapped single-probe index.
    pub fn inner(&self) -> &LccsLsh {
        &self.inner
    }

    /// The multi-probe knobs (exposed for the persistence layer).
    pub fn mp_params(&self) -> &MpParams {
        &self.mp
    }

    /// Index footprint (identical to the single-probe index — multi-probe
    /// adds no memory, which is its whole point).
    pub fn index_bytes(&self) -> usize {
        self.inner.index_bytes()
    }

    /// Fresh query scratch.
    pub fn scratch(&self) -> QueryScratch {
        self.inner.scratch()
    }

    /// c-k-ANNS with multi-probing. The candidate budget `λ + k − 1` is
    /// spread evenly over the probe sequence; probing stops as soon as the
    /// budget is filled, so cheap queries never pay for late probes.
    pub fn query(&self, q: &[f32], k: usize, lambda: usize) -> QueryOutput {
        let mut scratch = self.scratch();
        self.query_with(q, k, lambda, &mut scratch)
    }

    /// [`MpLccsLsh::query`] with caller-provided scratch.
    pub fn query_with(
        &self,
        q: &[f32],
        k: usize,
        lambda: usize,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        self.query_probes(q, k, lambda, self.mp.probes, scratch)
    }

    /// [`MpLccsLsh::query_with`] with a query-time `#probes` override
    /// (`0` = the build-time default) — lets the harness sweep the
    /// Figure 10 probe counts on one built index.
    pub fn query_probes(
        &self,
        q: &[f32],
        k: usize,
        lambda: usize,
        probes: usize,
        scratch: &mut QueryScratch,
    ) -> QueryOutput {
        let req = ann::SearchRequest::top_k(k).budget(lambda).probes(probes);
        let resp = self.search_request(q, &req, scratch);
        QueryOutput { verified: resp.stats.candidates_scanned as usize, neighbors: resp.hits }
    }

    /// Answers one [`ann::SearchRequest`]: the probe sequence collects
    /// candidates (the request's `probes = 0` falls back to the
    /// build-time default), then the shared verification applies the id
    /// filter and the distance threshold inside the loop. Implementation
    /// behind the scheme's [`ann::AnnIndex::search_with`] override.
    ///
    /// # Panics
    /// Panics if `req.k == 0` or `q` has the wrong dimension.
    pub fn search_request(
        &self,
        q: &[f32],
        req: &ann::SearchRequest,
        scratch: &mut QueryScratch,
    ) -> ann::SearchResponse {
        assert_eq!(q.len(), self.inner.data().dim(), "query dimension mismatch");
        let t0 = std::time::Instant::now();
        let probes = if req.probes == 0 { self.mp.probes } else { req.probes };
        let cands = self.probe_candidates(q, req.k, req.budget, probes, scratch);
        let (hits, mut stats) = self.inner.verify_request(q, req, &cands);
        stats.wall_micros = t0.elapsed().as_micros() as u64;
        ann::SearchResponse { hits, stats }
    }

    /// The search phase of [`MpLccsLsh::search_request`]: the unperturbed
    /// λ-LCCS probe plus up to `probes − 1` perturbed probes, stopping
    /// once the `λ + k − 1` budget is filled.
    fn probe_candidates(
        &self,
        q: &[f32],
        k: usize,
        lambda: usize,
        probes: usize,
        scratch: &mut QueryScratch,
    ) -> Vec<csa::Candidate> {
        assert!(k > 0, "k must be positive");
        assert!(probes >= 1, "need at least the unperturbed probe");
        let m = self.inner.m();
        let total_budget = lambda.max(1) + k - 1;
        let per_probe = total_budget.div_ceil(probes).max(1);

        // Probe 1: the unperturbed λ-LCCS search; keep the anchors for the
        // skip-unaffected-positions rule.
        scratch.hash.clear();
        scratch.hash.extend(lsh::hash_query(self.inner.functions(), q));
        let base_hash = scratch.hash.clone();
        let (mut cands, anchors) =
            self.inner.csa().search_with(&base_hash, per_probe, &mut scratch.csa);

        if probes > 1 && cands.len() < total_budget {
            // Alternative hash values per position, ascending by score.
            let alts: Vec<Vec<ScoredAlt>> = self
                .inner
                .functions()
                .iter()
                .map(|f| f.alternatives(q, self.mp.max_alts))
                .collect();
            let mut probe_hash = vec![0u64; m];
            let mut affected: Vec<usize> = Vec::with_capacity(m);
            for p in PerturbationGenerator::new(&alts).skip(1).take(probes - 1) {
                if cands.len() >= total_budget {
                    break;
                }
                // Build the perturbed hash string.
                probe_hash.copy_from_slice(&base_hash);
                for &(pos, j) in &p.mods {
                    probe_hash[pos] = alts[pos][j].symbol;
                }
                // A rotation s is affected iff some modified position falls
                // inside its circular match window [s, s + reach(s)].
                affected.clear();
                for s in 0..m {
                    let reach = anchors.row(s).reach() as usize;
                    let hit = p
                        .mods
                        .iter()
                        .any(|&(pos, _)| (pos + m - s) % m <= reach);
                    if hit {
                        affected.push(s);
                    }
                }
                if affected.is_empty() {
                    continue;
                }
                let budget = per_probe.min(total_budget - cands.len());
                let extra =
                    self.inner.csa().probe_rotations(&probe_hash, &affected, budget, &mut scratch.csa);
                cands.extend(extra);
            }
        }

        cands
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::SynthSpec;

    fn alts_for(scores: &[&[f64]]) -> Vec<Vec<ScoredAlt>> {
        scores
            .iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .map(|(j, &s)| ScoredAlt { symbol: 1000 + j as u64, score: s })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn generator_emits_empty_first_then_ascending_scores() {
        let alts = alts_for(&[&[0.1, 0.5], &[0.2, 0.9], &[0.3, 0.4]]);
        let gen = PerturbationGenerator::new(&alts);
        let seq: Vec<Perturbation> = gen.take(12).collect();
        assert!(seq[0].mods.is_empty(), "first probe is the unmodified string");
        for w in seq[1..].windows(2) {
            assert!(w[0].score <= w[1].score + 1e-12, "{w:?}");
        }
    }

    #[test]
    fn generator_respects_max_gap() {
        let alts = alts_for(&[&[0.1], &[0.1], &[0.1], &[0.1], &[0.1], &[0.1]]);
        for p in PerturbationGenerator::new(&alts).take(64) {
            for pair in p.mods.windows(2) {
                assert!(pair[1].0 - pair[0].0 <= MAX_GAP, "gap violated: {:?}", p.mods);
            }
        }
    }

    #[test]
    fn generator_never_repeats() {
        let alts = alts_for(&[&[0.1, 0.2], &[0.15, 0.3], &[0.12, 0.25], &[0.4]]);
        let seq: Vec<Vec<(usize, usize)>> =
            PerturbationGenerator::new(&alts).take(40).map(|p| p.mods).collect();
        let mut dedup = seq.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), seq.len(), "duplicate perturbation generated");
    }

    #[test]
    fn generator_scores_are_sums() {
        let alts = alts_for(&[&[0.1, 0.5], &[0.2]]);
        for p in PerturbationGenerator::new(&alts).take(10) {
            let want: f64 = p.mods.iter().map(|&(i, j)| alts[i][j].score).sum();
            assert!((p.score - want).abs() < 1e-12);
        }
    }

    #[test]
    fn shift_and_expand_definitions() {
        // δ = {(1, alt0)}; p_shift → {(1, alt1)}; p_expand(δ, 2) → {(1,0),(3,0)}.
        let alts = alts_for(&[&[0.1, 0.2], &[0.1, 0.2], &[0.1], &[0.3]]);
        let gen = PerturbationGenerator::new(&alts);
        let d = Perturbation { mods: vec![(1, 0)], score: 0.1 };
        let s = gen.p_shift(&d).unwrap();
        assert_eq!(s.mods, vec![(1, 1)]);
        assert!((s.score - 0.2).abs() < 1e-12);
        let e = gen.p_expand(&d, 2).unwrap();
        assert_eq!(e.mods, vec![(1, 0), (3, 0)]);
        assert!((e.score - 0.4).abs() < 1e-12);
        assert!(gen.p_expand(&d, 3).is_none(), "expansion past m is rejected");
    }

    fn toy(n: usize, seed: u64) -> Arc<Dataset> {
        Arc::new(SynthSpec::new("toy", n, 24).with_clusters(12).generate(seed))
    }

    #[test]
    fn single_probe_equals_lccs_lsh() {
        // Footnote 13: MP-LCCS-LSH with #probes = 1 is LCCS-LSH.
        let data = toy(400, 1);
        let params = LccsParams::euclidean(8.0).with_m(16);
        let single = LccsLsh::build(data.clone(), Metric::Euclidean, &params);
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &params,
            MpParams { probes: 1, max_alts: 8 },
        );
        for i in [0usize, 13, 200] {
            let a = single.query(data.get(i), 5, 32);
            let b = mp.query(data.get(i), 5, 32);
            assert_eq!(
                a.neighbors.iter().map(|n| n.id).collect::<Vec<_>>(),
                b.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn probing_finds_self_with_tiny_budget() {
        let data = toy(800, 2);
        let params = LccsParams::euclidean(8.0).with_m(16);
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &params,
            MpParams { probes: 33, max_alts: 8 },
        );
        let out = mp.query(data.get(42), 1, 8);
        assert_eq!(out.neighbors[0].id, 42);
    }

    #[test]
    fn more_probes_do_not_reduce_verified_below_budget_fill() {
        let data = toy(600, 3);
        let params = LccsParams::euclidean(8.0).with_m(16);
        let one = MpLccsLsh::build(data.clone(), Metric::Euclidean, &params, MpParams::default());
        let many = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &params,
            MpParams { probes: 17, max_alts: 8 },
        );
        let a = one.query(data.get(9), 10, 64);
        let b = many.query(data.get(9), 10, 64);
        // Both fill (λ + k − 1) candidates on this easy workload.
        assert_eq!(a.verified, 73);
        assert!(b.verified <= 73);
        assert!(b.neighbors[0].dist <= a.neighbors[0].dist + 1e-9);
    }

    #[test]
    fn multiprobe_angular() {
        let data = Arc::new(
            SynthSpec::new("ang", 300, 16).with_clusters(6).generate(4).normalized(),
        );
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Angular,
            &LccsParams::angular().with_m(16),
            MpParams { probes: 17, max_alts: 8 },
        );
        let out = mp.query(data.get(5), 3, 16);
        // With a 2-candidate-per-probe budget and heavy hash-string ties on
        // tight clusters, the top hit may be a same-cluster near-duplicate
        // rather than the object itself — assert the distance, not the id.
        assert!(
            out.neighbors[0].dist < 0.3,
            "top hit must come from the query's own cluster, got {}",
            out.neighbors[0].dist
        );
    }

    #[test]
    fn per_m_params() {
        let p = MpParams::per_m(2, 64);
        assert_eq!(p.probes, 129);
    }
}
