//! Criterion micro-benches of the CSA kernels: Algorithm 1 (build) and
//! Algorithm 2 (k-LCCS search), across n and m — the `O(m n log n)` /
//! `O(log n + (m + k) log m)` costs of Theorem 3.1.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use csa::{Csa, SearchScratch, StringSet};

fn random_strings(n: usize, m: usize, alphabet: u64, seed: u64) -> StringSet {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 33) % alphabet
    };
    let data: Vec<u64> = (0..n * m).map(|_| next()).collect();
    StringSet::from_flat(n, m, data)
}

/// Strings the way an LSH family hashes clustered vectors: each of the `n`
/// rows copies one of `centers` base strings and keeps a symbol with
/// probability `keep_pct` %, replacing it by a fresh one otherwise — so two
/// rows of one cluster agree at a position with probability `keep_pct²`, a
/// row's LCCS with a same-cluster query is the longest of `m` geometric
/// runs, and most of a k-LCCS answer sits on two or three lengths. Symbols
/// stay below `0xFFFF`, as hashed bucket ids do, so the set is stored at
/// the `u16` width the benchmark's workloads run at.
fn clustered_strings(n: usize, m: usize, centers: usize, keep_pct: u64, seed: u64) -> StringSet {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    // Seed-independent centers, so a query set drawn with another seed
    // lands in the same clusters.
    let base = random_strings(centers, m, 1 << 15, 0xce47e5);
    let mut data = Vec::with_capacity(n * m);
    for i in 0..n {
        for sym in base.row(i % centers) {
            data.push(if next() % 100 < keep_pct { sym } else { (1 << 15) + next() % 0x7FFF });
        }
    }
    StringSet::from_flat(n, m, data)
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("csa_build");
    g.sample_size(10);
    for &n in &[1_000usize, 10_000] {
        for &m in &[32usize, 128] {
            g.bench_with_input(
                BenchmarkId::new(format!("n{n}"), format!("m{m}")),
                &(n, m),
                |b, &(n, m)| {
                    let set = random_strings(n, m, 16, 7);
                    b.iter(|| Csa::build(black_box(set.clone())));
                },
            );
        }
    }
    // The build `lccs_euclid_100k` pays once per index (`csa.build_s`).
    let (n, m) = (100_000usize, 64usize);
    let set = clustered_strings(n, m, 16, 70, 5);
    g.bench_function(format!("n{n}_m{m}"), |b| b.iter(|| Csa::build(black_box(set.clone()))));
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("csa_search");
    g.sample_size(20);
    for &n in &[10_000usize, 50_000] {
        for &m in &[64usize, 256] {
            let set = random_strings(n, m, 16, 11);
            let csa = Csa::build(set);
            let query = random_strings(1, m, 16, 99).row(0);
            let mut scratch = SearchScratch::for_csa(&csa);
            g.bench_with_input(
                BenchmarkId::new(format!("n{n}_m{m}"), "k100"),
                &(),
                |b, ()| {
                    b.iter(|| csa.search_with(black_box(&query), 100, &mut scratch));
                },
            );
        }
    }
    // The shape of the repo benchmark's `lccs_euclid_100k`: n = 100 000,
    // m = 64, a (λ + k − 1) = 3 209 budget, and clustered strings whose
    // LCPs tie on a few lengths (uniform symbols, above, spread a budget
    // this size over long single-cursor runs and hide the merge's tie
    // handling). A ring of queries keeps the rows cold, as in serving.
    let (n, m, k) = (100_000usize, 64usize, 3_209usize);
    let csa = Csa::build(clustered_strings(n, m, 16, 70, 5));
    let queries = clustered_strings(64, m, 16, 70, 6);
    let queries: Vec<Vec<u64>> = (0..queries.len()).map(|i| queries.row(i)).collect();
    let mut scratch = SearchScratch::for_csa(&csa);
    let mut turn = 0;
    g.bench_function(format!("n{n}_m{m}/k{k}_clustered"), |b| {
        b.iter(|| {
            turn = (turn + 1) % queries.len();
            csa.search_with(black_box(&queries[turn]), k, &mut scratch)
        });
    });
    g.finish();
}

/// Ablation: the Lemma 3.1 next-link narrowing vs the §3.2 "simple method"
/// (m independent full binary searches). The paper's claimed win is
/// `O(log n + m)` vs `O(m (m + log n))` for the anchoring phase.
fn bench_anchor_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("anchor_ablation");
    g.sample_size(30);
    let (n, m) = (50_000usize, 128usize);
    let set = random_strings(n, m, 16, 21);
    let csa = Csa::build(set);
    let query = random_strings(1, m, 16, 77).row(0);
    g.bench_function("narrowed_lemma_3_1", |b| b.iter(|| csa.anchor(black_box(&query))));
    g.bench_function("simple_full_searches", |b| {
        b.iter(|| csa.anchor_simple(black_box(&query)))
    });
    g.finish();
}

criterion_group!(benches, bench_build, bench_search, bench_anchor_ablation);
criterion_main!(benches);
