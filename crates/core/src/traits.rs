//! [`AnnIndex`] implementations for the LCCS schemes.
//!
//! The trait's `budget` knob is λ, the paper's single query-time
//! parameter (the recall/time curves of §6 sweep it); `probes` applies
//! only to MP-LCCS-LSH, where it is the perturbation-probe count of §4.2.

use crate::index::{LccsLsh, LccsParams, QueryScratch};
use crate::multiprobe::{MpLccsLsh, MpParams};
use ann::{AnnIndex, BuildAnn, Scratch, SearchParams, SearchRequest, SearchResponse};
use dataset::exact::Neighbor;
use dataset::{Dataset, Metric};
use std::sync::Arc;

impl AnnIndex for LccsLsh {
    fn name(&self) -> &'static str {
        "LCCS-LSH"
    }

    fn len(&self) -> usize {
        self.data().len()
    }

    fn index_bytes(&self) -> usize {
        LccsLsh::index_bytes(self)
    }

    fn make_scratch(&self) -> Scratch {
        Scratch::new(self.scratch())
    }

    fn query_with(&self, q: &[f32], p: &SearchParams, scratch: &mut Scratch) -> Vec<Neighbor> {
        let s = scratch.get_valid_with(
            |s: &QueryScratch| s.csa.fits(self.csa()),
            || self.scratch(),
        );
        LccsLsh::query_with(self, q, p.k, p.budget, s).neighbors
    }

    /// Overrides the default post-hoc path: the id filter and distance
    /// threshold are honored *inside* the verification loop (see
    /// [`LccsLsh::search_request`]), so filtered rows never consume heap
    /// slots and the λ budget keeps its meaning under predicates.
    fn search_with(&self, q: &[f32], req: &SearchRequest, scratch: &mut Scratch) -> SearchResponse {
        let s = scratch.get_valid_with(
            |s: &QueryScratch| s.csa.fits(self.csa()),
            || self.scratch(),
        );
        LccsLsh::search_request(self, q, req, s)
    }
}

impl BuildAnn for LccsLsh {
    type Params = LccsParams;

    fn build_index(data: Arc<Dataset>, metric: Metric, params: &LccsParams) -> Self {
        LccsLsh::build(data, metric, params)
    }
}

impl AnnIndex for MpLccsLsh {
    fn name(&self) -> &'static str {
        "MP-LCCS-LSH"
    }

    fn len(&self) -> usize {
        self.inner().data().len()
    }

    fn index_bytes(&self) -> usize {
        MpLccsLsh::index_bytes(self)
    }

    fn make_scratch(&self) -> Scratch {
        Scratch::new(self.scratch())
    }

    /// `probes == 0` falls back to the build-time [`MpParams::probes`];
    /// any positive value overrides it per query.
    fn query_with(&self, q: &[f32], p: &SearchParams, scratch: &mut Scratch) -> Vec<Neighbor> {
        let s: &mut QueryScratch = scratch.get_valid_with(
            |s: &QueryScratch| s.csa.fits(self.inner().csa()),
            || self.scratch(),
        );
        self.query_probes(q, p.k, p.budget, p.probes, s).neighbors
    }

    /// Overrides the default post-hoc path with the probe-sequence search
    /// plus in-loop filtering (see [`MpLccsLsh::search_request`]).
    fn search_with(&self, q: &[f32], req: &SearchRequest, scratch: &mut Scratch) -> SearchResponse {
        let s: &mut QueryScratch = scratch.get_valid_with(
            |s: &QueryScratch| s.csa.fits(self.inner().csa()),
            || self.scratch(),
        );
        MpLccsLsh::search_request(self, q, req, s)
    }
}

/// Build parameters of [`MpLccsLsh`] under [`BuildAnn`]: the shared LCCS
/// parameters plus the multi-probe knobs.
#[derive(Debug, Clone)]
pub struct MpBuildParams {
    /// Single-probe index parameters.
    pub lccs: LccsParams,
    /// Multi-probe knobs (default probe count, alternatives per position).
    pub mp: MpParams,
}

impl BuildAnn for MpLccsLsh {
    type Params = MpBuildParams;

    fn build_index(data: Arc<Dataset>, metric: Metric, params: &MpBuildParams) -> Self {
        MpLccsLsh::build(data, metric, &params.lccs, params.mp.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::SynthSpec;

    fn toy() -> Arc<Dataset> {
        Arc::new(SynthSpec::new("trait-toy", 400, 16).with_clusters(8).generate(3))
    }

    #[test]
    fn trait_query_matches_inherent_query() {
        let data = toy();
        let idx = LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        let dyn_idx: &dyn AnnIndex = &idx;
        let p = SearchParams::new(5, 64);
        for i in [0usize, 123, 399] {
            let a = dyn_idx.query(data.get(i), &p);
            let b = idx.query(data.get(i), 5, 64).neighbors;
            assert_eq!(a, b, "query {i}");
        }
        assert_eq!(dyn_idx.name(), "LCCS-LSH");
        assert_eq!(AnnIndex::index_bytes(dyn_idx), idx.csa().nbytes());
    }

    #[test]
    fn mp_trait_probe_override() {
        let data = toy();
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &LccsParams::euclidean(8.0).with_m(16),
            MpParams { probes: 4, max_alts: 4 },
        );
        let q = data.get(7);
        let mut s1 = mp.scratch();
        let default_probes = mp.query_with(q, 5, 64, &mut s1).neighbors;
        let via_trait = AnnIndex::query(&mp, q, &SearchParams::new(5, 64));
        assert_eq!(via_trait, default_probes, "probes=0 uses the built-in default");
        let overridden =
            AnnIndex::query(&mp, q, &SearchRequest::top_k(5).budget(64).probes(9).params());
        let mut s2 = mp.scratch();
        assert_eq!(overridden, mp.query_probes(q, 5, 64, 9, &mut s2).neighbors);
    }

    #[test]
    fn search_without_extras_is_byte_identical_to_query() {
        let data = toy();
        let lccs =
            LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &LccsParams::euclidean(8.0).with_m(16),
            MpParams { probes: 4, max_alts: 4 },
        );
        let req = SearchRequest::top_k(5).budget(64);
        for idx in [&lccs as &dyn AnnIndex, &mp as &dyn AnnIndex] {
            for i in [0usize, 50, 399] {
                let q = data.get(i);
                let resp = idx.search(q, &req);
                assert_eq!(resp.hits, idx.query(q, &req.params()), "{} query {i}", idx.name());
                assert!(resp.stats.candidates_scanned > 0, "stats are collected");
            }
            assert_eq!(idx.len(), 400);
        }
    }

    #[test]
    fn a_scratch_from_an_index_with_another_m_is_replaced() {
        // Same rows, different m: the seen-set fits but the merge's cursor
        // and level tables do not, so the scratch must be rebuilt — in both
        // directions, for both schemes, on both trait entry points.
        let data = toy();
        let build = |m| {
            LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(m))
        };
        let (small, large) = (build(8), build(40));
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &LccsParams::euclidean(8.0).with_m(24),
            MpParams { probes: 4, max_alts: 4 },
        );
        let req = SearchRequest::top_k(5).budget(64);
        let q = data.get(7);
        let mut scratch = small.make_scratch();
        let order = [&large as &dyn AnnIndex, &mp, &small, &large, &mp, &small];
        for (turn, idx) in order.into_iter().enumerate() {
            // The hand-over lands on `search_with` and `query_with` in turn.
            let hits = if turn % 2 == 0 {
                idx.search_with(q, &req, &mut scratch).hits
            } else {
                idx.query_with(q, &req.params(), &mut scratch)
            };
            assert_eq!(hits, idx.search(q, &req).hits, "{} at turn {turn}", idx.name());
        }
    }

    #[test]
    fn filters_are_honored_inside_the_candidate_loop() {
        let data = toy();
        let idx =
            LccsLsh::build(data.clone(), Metric::Euclidean, &LccsParams::euclidean(8.0).with_m(16));
        let q = data.get(7);
        // Denying the exact-duplicate id must surface the runner-up, and
        // the scanned count must stay the λ-bounded candidate count (the
        // filter runs inside the loop, not as a second query).
        let plain = idx.search(q, &SearchRequest::top_k(5).budget(64));
        assert_eq!(plain.hits[0].id, 7);
        let denied =
            idx.search(q, &SearchRequest::top_k(5).budget(64).filter(ann::IdFilter::deny(vec![7])));
        assert!(denied.hits.iter().all(|h| h.id != 7));
        assert_eq!(denied.stats.candidates_scanned, plain.stats.candidates_scanned);
        // An allowlist answer only ever contains allowed ids.
        let allow: Vec<u32> = (0..400).filter(|i| i % 3 == 0).collect();
        let resp = idx.search(
            q,
            &SearchRequest::top_k(5).budget(256).filter(ann::IdFilter::allow(allow.clone())),
        );
        assert!(!resp.hits.is_empty());
        assert!(resp.hits.iter().all(|h| h.id % 3 == 0));
        // A zero threshold keeps only the exact duplicate.
        let ranged = idx.search(q, &SearchRequest::top_k(5).budget(64).max_dist(0.0));
        assert_eq!(ranged.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn build_ann_builds() {
        let data = toy();
        let idx = <LccsLsh as BuildAnn>::build_index(
            data.clone(),
            Metric::Euclidean,
            &LccsParams::euclidean(8.0).with_m(16),
        );
        assert_eq!(idx.m(), 16);
        let mp = <MpLccsLsh as BuildAnn>::build_index(
            data,
            Metric::Euclidean,
            &MpBuildParams {
                lccs: LccsParams::euclidean(8.0).with_m(16),
                mp: MpParams { probes: 2, max_alts: 4 },
            },
        );
        assert_eq!(mp.name(), "MP-LCCS-LSH");
    }
}
