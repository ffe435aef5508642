//! Live-index query latency: memtable-heavy vs fully compacted vs churned.
//!
//! The LSM-style `LiveIndex` pays for write absorption at read time — a
//! memtable row costs an exact-distance scan per query, while a sealed
//! segment answers through its spec-built (sublinear) index. This bench
//! pins the two extremes of the same logical index, and what deletes do
//! to the cheap one:
//!
//! * **memtable-heavy** — every row still in the write buffer (seal
//!   threshold above n): each query brute-force scans all n rows;
//! * **compacted** — one seal + compaction moved everything into a
//!   single LCCS segment: each query runs one CSA search + verification;
//! * **churned** — the compacted index after its 3 000 oldest ids were
//!   deleted: the segment's CSA still proposes those rows, so each query
//!   merges `budget + 3 000` candidates and masks the dead ones.
//!
//! The gap between the first two series is the latency cost of unflushed
//! write traffic, i.e. what FLUSH (or the automatic seal policy) buys
//! back; the gap between the last two is the cost of tombstones no
//! compaction has dropped yet.

use ann::{AnnIndex, IndexSpec, MutableAnn, SearchParams};
use ann_live::{LiveConfig, LiveIndex};
use bench::bench_data;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dataset::Metric;

fn bench_live(c: &mut Criterion) {
    let n = 8_000;
    let dim = 32;
    let data = bench_data(n, dim);
    let spec = IndexSpec::lccs(16).with_w(8.0).with_seed(7);

    // Memtable-heavy: the threshold is never reached, every row stays in
    // the exact-scan buffer.
    let mut hot =
        LiveIndex::new(spec, Metric::Euclidean, dim, LiveConfig { seal_threshold: usize::MAX >> 1, max_segments: 4 })
            .unwrap();
    hot.insert(&data, None).unwrap();
    assert_eq!(hot.segment_count(), 0);
    assert_eq!(hot.memtable_rows(), n);

    // Compacted: same rows, sealed into a single LCCS segment.
    let cold = LiveIndex::build_from(
        spec,
        Metric::Euclidean,
        &data,
        LiveConfig { seal_threshold: usize::MAX >> 1, max_segments: 1 },
    )
    .unwrap();
    assert_eq!(cold.segment_count(), 1);
    assert_eq!(cold.memtable_rows(), 0);

    // Churned: the same segment with its oldest rows tombstoned.
    let mut churned = LiveIndex::build_from(
        spec,
        Metric::Euclidean,
        &data,
        LiveConfig { seal_threshold: usize::MAX >> 1, max_segments: 1 },
    )
    .unwrap();
    assert_eq!(churned.delete(&(0..3_000).collect::<Vec<u32>>()), 3_000);
    assert_eq!(churned.segment_layout(), vec![(n, n - 3_000)]);

    let queries = data.sample_queries(64, 0x11fe);
    let params = SearchParams::new(10, 128);
    let mut g = c.benchmark_group("live_query");
    g.sample_size(10);
    g.throughput(Throughput::Elements(queries.len() as u64));
    for (label, index) in [("memtable-heavy", &hot), ("compacted", &cold), ("churned", &churned)] {
        g.bench_with_input(BenchmarkId::new(label, n), &(), |b, ()| {
            let mut scratch = index.make_scratch();
            b.iter(|| {
                (0..queries.len())
                    .map(|i| index.query_with(black_box(queries.get(i)), &params, &mut scratch))
                    .collect::<Vec<_>>()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, bench_live);
criterion_main!(benches);
