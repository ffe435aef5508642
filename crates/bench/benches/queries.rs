//! Criterion micro-benches of the end-to-end query paths of every scheme at
//! a fixed workload — the per-method costs behind Figures 4–5.

use ann::{SearchParams, SearchRequest};
use bench::bench_data;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dataset::{ExactKnn, Metric, SynthSpec};
use eval::harness::{build_spec, IndexSpec};
use lccs_lsh::{LccsLsh, LccsParams};
use std::sync::Arc;

fn bench_queries(c: &mut Criterion) {
    let n = 20_000;
    let data = Arc::new(bench_data(n, 64));
    let q = data.get(17).to_vec();
    let w = 8.0;
    let mut g = c.benchmark_group("query_top10");
    g.sample_size(20);
    for (label, spec, budget, probes) in [
        ("lccs_m64", IndexSpec::lccs(64), 128usize, 0usize),
        ("mp_lccs_m64_p65", IndexSpec::mp_lccs(64), 128, 65),
        ("e2lsh_k4_l16", IndexSpec::e2lsh(4, 16), 128, 0),
        ("mplsh_k4_l4_p32", IndexSpec::multi_probe(4, 4), 128, 32),
        ("c2lsh_m32_l4", IndexSpec::c2lsh(32, 4), 128, 0),
        ("qalsh_m32_l8", IndexSpec::qalsh(32, 8), 128, 0),
        ("srs_d6", IndexSpec::srs(6), 128, 0),
        ("kdtree", IndexSpec::kd_tree(), 0, 0),
        ("linear", IndexSpec::linear(), 0, 0),
    ] {
        let spec = spec.with_w(w).with_seed(7);
        let built = build_spec(&spec, &data, Metric::Euclidean)
            .unwrap_or_else(|e| panic!("building {spec}: {e}"));
        let params = SearchParams { k: 10, budget, probes };
        g.bench_function(label, |b| b.iter(|| built.query(black_box(&q), &params)));
    }
    g.finish();
}

/// The verification phase alone, set up like the repo benchmark's
/// `lccs_euclid_100k`: 100 000 × 128-d Sift-like rows (64 MB of f32 rows
/// and SQ8 codes, far beyond the cache), held-out queries from the same
/// mixture, `w` = 2 × the mean NN distance, m = 64, and a fixed list of
/// (λ + k − 1) = 3 209 candidates per query, collected before the clock
/// starts. A ring of queries keeps the candidate rows cold, as in serving;
/// a second case repeats one query, for the cost with the misses taken out.
fn bench_verify(c: &mut Criterion) {
    let (n, k, budget) = (100_000, 10, 3_200);
    let spec = SynthSpec::sift_like().with_n(n);
    let data = Arc::new(spec.generate(3));
    let queries = spec.generate_queries(64, 3);
    let truth = ExactKnn::compute(&data, &queries, 1, Metric::Euclidean);
    let w = 2.0 * (0..queries.len()).map(|q| truth.dist(q, 0)).sum::<f64>() / queries.len() as f64;
    let idx = LccsLsh::build(data, Metric::Euclidean, &LccsParams::euclidean(w).with_m(64));
    let req = SearchRequest::top_k(k).budget(budget);
    let mut scratch = csa::SearchScratch::for_csa(idx.csa());
    let lists: Vec<(&[f32], Vec<csa::Candidate>)> = queries
        .iter()
        .map(|q| {
            let hash = lsh::hash_query(idx.functions(), q);
            (q, idx.csa().search_with(&hash, budget + k - 1, &mut scratch).0)
        })
        .collect();
    let mut g = c.benchmark_group("verify");
    g.sample_size(20);
    let mut turn = 0;
    g.bench_function(format!("lccs_m64_n{n}_cands{}", budget + k - 1), |b| {
        b.iter(|| {
            turn = (turn + 1) % lists.len();
            let (q, cands) = &lists[turn];
            idx.verify_request(black_box(q), &req, black_box(cands))
        });
    });
    // The same list every time: its rows stay cached, so what is left is
    // the arithmetic — the gap to the ring above is what the misses cost.
    let (q, cands) = &lists[0];
    g.bench_function(format!("lccs_m64_n{n}_cands{}_warm", budget + k - 1), |b| {
        b.iter(|| idx.verify_request(black_box(q), &req, black_box(cands)));
    });
    g.finish();
}

criterion_group!(benches, bench_queries, bench_verify);
criterion_main!(benches);
