//! The four workloads' definitions and the seeded inputs they share.

use dataset::{Dataset, ExactKnn, GroundTruth, Metric, SynthSpec};
use lccs_lsh::LccsParams;
use lsh::{FamilyKind, FamilyParams};
use std::sync::Arc;
use std::time::Instant;

/// Neighbors per query, everywhere.
pub const K: usize = 10;

/// Which end-to-end path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// In-process `AnnIndex::search_with`, one caller.
    InProcess,
    /// SEARCH through a `Router` over two live shards, one connection.
    Routed,
    /// One `annd`, a writer connection and a reader connection.
    LiveMixed,
}

/// One named workload; `BENCHMARK.json` and the README say why each exists.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub path: Path,
    pub metric: Metric,
    /// Hash-string length.
    pub m: usize,
    /// Probes per query; 1 is single-probe LCCS-LSH, 2m+1 is MP-LCCS.
    pub probes: usize,
    /// Candidate budget λ, frozen so recall@10 sits in [0.80, 0.90] at
    /// seed 1 on the two 100k workloads.
    pub budget: usize,
    /// Rows (full size, `--quick` size).
    pub n: (usize, usize),
    /// Distinct queries (full size, `--quick` size); one pass of a timed
    /// loop runs each once.
    pub queries: (usize, usize),
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lccs_euclid_100k",
        path: Path::InProcess,
        metric: Metric::Euclidean,
        m: 64,
        probes: 1,
        budget: 3200,
        n: (100_000, 4_000),
        queries: (1_000, 64),
    },
    Workload {
        name: "mplccs_angular_100k",
        path: Path::InProcess,
        metric: Metric::Angular,
        m: 16,
        probes: 33,
        budget: 600,
        n: (100_000, 4_000),
        queries: (1_000, 64),
    },
    Workload {
        name: "routed_8k",
        path: Path::Routed,
        metric: Metric::Euclidean,
        m: 16,
        probes: 1,
        budget: 64,
        n: (8_192, 1_024),
        queries: (1_000, 64),
    },
    Workload {
        name: "live_mixed_32k",
        path: Path::LiveMixed,
        metric: Metric::Euclidean,
        m: 16,
        probes: 1,
        budget: 256,
        n: (65_536, 8_192),
        queries: (1_000, 64),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seeded inputs of one run.
pub struct Inputs {
    /// The rows (unit-normalized for the angular metric). Their SQ8
    /// table is primed, which the exact oracle uses; hand indexes an
    /// [`Inputs::unprimed_rows`] copy so their build pays for its own.
    pub data: Arc<Dataset>,
    /// Held-out queries from the same mixture.
    pub queries: Dataset,
    /// Exact top-[`K`] of every query over `data`.
    pub truth: GroundTruth,
    /// Bucket width for the random-projection family.
    pub w: f64,
    /// Seconds spent generating and computing the oracle.
    pub secs: f64,
}

impl Workload {
    fn pick(&self, pair: (usize, usize), quick: bool) -> usize {
        if quick {
            pair.1
        } else {
            pair.0
        }
    }

    fn synth(&self, quick: bool) -> SynthSpec {
        let n = self.pick(self.n, quick);
        match self.path {
            Path::InProcess => SynthSpec::sift_like().with_n(n),
            Path::Routed | Path::LiveMixed => SynthSpec::new(self.name, n, 32).with_clusters(16),
        }
    }

    /// Generates rows, queries and the exact oracle from `seed`.
    pub fn inputs(&self, seed: u64, quick: bool) -> Inputs {
        let t0 = Instant::now();
        let spec = self.synth(quick);
        let mut data = spec.generate(seed);
        // `generate_queries` must get the SAME seed as `generate`: the
        // mixture centers derive from it, and a different seed draws
        // queries from a different mixture, far from every row
        // (recall ≈ 0.02). The query points use a distinct stream.
        let mut queries = spec.generate_queries(self.pick(self.queries, quick), seed);
        if self.metric.is_angular() {
            data = data.normalized();
            queries = queries.normalized();
        }
        data.sq8();
        let truth = ExactKnn::compute(&data, &queries, K, self.metric);
        // The `eval::experiments` rule, w = 2 x mean NN distance, with
        // its 16-probe sampled estimate replaced by the exact mean the
        // oracle already holds, so w adds no seed noise of its own.
        let nq = queries.len();
        let w = 2.0 * (0..nq).map(|q| truth.dist(q, 0)).sum::<f64>() / nq as f64;
        Inputs {
            data: Arc::new(data),
            queries,
            truth,
            w,
            secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// Build parameters of the workload's LCCS index.
    pub fn lccs_params(&self, w: f64) -> LccsParams {
        let family = match self.metric {
            Metric::Angular => FamilyKind::CrossPolytopeFast,
            _ => FamilyKind::RandomProjection,
        };
        LccsParams {
            m: self.m,
            family,
            family_params: FamilyParams { w },
            seed: 0x1cc5,
        }
    }

    /// The search request every timed query of this workload carries.
    pub fn request(&self) -> ann::SearchRequest {
        let req = ann::SearchRequest::top_k(K).budget(self.budget);
        if self.probes > 1 {
            req.probes(self.probes)
        } else {
            req
        }
    }
}

impl Inputs {
    /// A copy of the rows with no cached SQ8 table (`Dataset::clone`
    /// would keep it).
    pub fn unprimed_rows(&self) -> Arc<Dataset> {
        let d = &self.data;
        Arc::new(Dataset::from_flat(d.name(), d.dim(), d.as_flat().to_vec()))
    }
}

/// Mean recall@[`K`] of `answers[q]` against `truth`'s list for query `q`.
pub fn recall(answers: &[Vec<u32>], truth: &[Vec<u32>]) -> f64 {
    assert_eq!(answers.len(), truth.len());
    let found: usize = answers
        .iter()
        .zip(truth)
        .map(|(a, t)| a.iter().filter(|id| t.contains(id)).count())
        .sum();
    let wanted: usize = truth.iter().map(Vec::len).sum();
    found as f64 / wanted as f64
}

/// The oracle's id lists.
pub fn truth_ids(truth: &GroundTruth) -> Vec<Vec<u32>> {
    (0..truth.num_queries())
        .map(|q| truth.neighbors(q).iter().map(|n| n.id).collect())
        .collect()
}
