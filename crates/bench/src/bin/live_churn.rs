//! Recall, answers and read cost of a live index under churn, at fixed
//! operation counts.
//!
//! `live_mixed_32k` (BENCHMARK.json) scores whatever index a 15-second
//! time box leaves behind, so two commits that ack different numbers of
//! writes are scored on different indexes. This probe takes the time box
//! away: one in-process `LiveIndex` (LCCS m = 16 over 32-d rows, seal
//! threshold 1024, at most 4 segments, budget 256 — the workload's
//! settings), bulk-loaded with the first three eighths of the rows
//! (`n` of them), then driven through the workload's write pattern —
//! four single-row inserts, then one delete of the four oldest live
//! ids — to 0, n/2, n and 2n inserted rows. At each checkpoint it
//! prints the segment count, the dead rows still sitting in sealed
//! segments, recall@10 against `ExactKnn` over the live rows, a hash of
//! every answer (ids and distance bits) and the mean time per search.
//!
//! Every input is seeded and every build is deterministic, so on two
//! commits that answer identically the `recall@10` and `answers` columns
//! match line for line and only `us/search` moves; the recall column is
//! the recall-under-churn curve ROADMAP item 5 asks for.
//!
//! ```bash
//! cargo run --release -p bench --bin live_churn -- [--rows 32768] [--queries 200] [--seed 1]
//! ```

use ann::{AnnIndex, IndexSpec, MutableAnn, SearchRequest};
use ann_live::{LiveConfig, LiveIndex};
use dataset::{Dataset, ExactKnn, Metric, SynthSpec};
use std::collections::VecDeque;
use std::time::Instant;

const K: usize = 10;
const BUDGET: usize = 256;
const INSERTS_PER_DELETE: usize = 4;
const CONFIG: LiveConfig = LiveConfig { seal_threshold: 1024, max_segments: 4 };

fn main() {
    let (mut rows, mut queries, mut seed) = (32_768usize, 200usize, 1u64);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        let parsed = value.parse::<u64>().unwrap_or_else(|_| panic!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--rows" => rows = parsed as usize,
            "--queries" => queries = parsed as usize,
            "--seed" => seed = parsed,
            _ => panic!("usage: live_churn [--rows N] [--queries Q] [--seed S]"),
        }
    }
    assert!(rows >= 64 && queries > 0, "--rows must be at least 64 and --queries positive");

    let synth = SynthSpec::new("live-churn", rows, 32).with_clusters(16);
    let data = synth.generate(seed);
    // Same seed as the rows: the mixture centers derive from it.
    let queries = synth.generate_queries(queries, seed);
    let n = rows / 8 * 3;
    let pool = rows - n;
    let bulk = data.truncated(n);
    // w = 2 x mean nearest-neighbour distance, the `eval::experiments` rule.
    let nearest = ExactKnn::compute(&bulk, &queries, 1, Metric::Euclidean);
    let w = 2.0 * (0..queries.len()).map(|q| nearest.dist(q, 0)).sum::<f64>() / queries.len() as f64;
    let spec = IndexSpec::lccs(16).with_w(w);
    let mut live =
        LiveIndex::build_from(spec, Metric::Euclidean, &bulk, CONFIG).expect("bulk load");
    // (id, row it was inserted from), oldest first.
    let mut owed: VecDeque<(u32, usize)> = (0..n).map(|i| (i as u32, i)).collect();

    println!("live_churn: {rows} x 32 rows, {n} live, lccs m=16 w={w:.4}, budget {BUDGET}, seed {seed}");
    println!(
        "{:>8} {:>9} {:>10} {:>10} {:>18} {:>10}",
        "inserted", "segments", "dead_rows", "recall@10", "answers", "us/search"
    );
    let mut inserted = 0usize;
    for target in [0, n / 2, n, 2 * n] {
        while inserted < target {
            for _ in 0..INSERTS_PER_DELETE {
                let row = n + inserted % pool;
                let one = Dataset::from_flat("row", data.dim(), data.get(row).to_vec());
                let ids = live.insert(&one, None).expect("insert");
                owed.push_back((ids[0], row));
                inserted += 1;
            }
            let victims: Vec<u32> = owed.drain(..INSERTS_PER_DELETE).map(|(id, _)| id).collect();
            assert_eq!(live.delete(&victims), victims.len(), "the oldest ids are live");
        }
        checkpoint(&live, &data, &queries, &owed, inserted);
    }
}

/// Searches every query once for the answers (hashed, and scored against
/// the exact oracle over the rows the index owes), then three more
/// passes for the clock.
fn checkpoint(
    live: &LiveIndex,
    data: &Dataset,
    queries: &Dataset,
    owed: &VecDeque<(u32, usize)>,
    inserted: usize,
) {
    assert_eq!(live.live_len(), owed.len());
    let flat: Vec<f32> = owed.iter().flat_map(|&(_, row)| data.get(row).iter().copied()).collect();
    let rows = Dataset::from_flat("live", data.dim(), flat);
    let truth = ExactKnn::compute(&rows, queries, K, Metric::Euclidean);

    let req = SearchRequest::top_k(K).budget(BUDGET);
    let mut scratch = live.make_scratch();
    // Every hit's id and distance bits, in answer order.
    let mut answer_words: Vec<u64> = Vec::new();
    let mut found = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let hits = live.search_with(q, &req, &mut scratch).hits;
        let want = truth.neighbors(qi);
        found += hits.iter().filter(|h| want.iter().any(|t| owed[t.id as usize].0 == h.id)).count();
        answer_words.extend(hits.iter().flat_map(|h| [u64::from(h.id), h.dist.to_bits()]));
    }
    let passes = 3;
    let t0 = Instant::now();
    for _ in 0..passes {
        for q in queries.iter() {
            std::hint::black_box(live.search_with(std::hint::black_box(q), &req, &mut scratch));
        }
    }
    let us = t0.elapsed().as_secs_f64() * 1e6 / (passes * queries.len()) as f64;
    let layout = live.segment_layout();
    let dead: usize = layout.iter().map(|&(physical, alive)| physical - alive).sum();
    println!(
        "{:>8} {:>9} {:>10} {:>10.4} {:>18} {:>10.1}",
        inserted,
        layout.len(),
        dead,
        found as f64 / (K * queries.len()) as f64,
        format!("{:016x}", baselines::common::mix_key(answer_words)),
        us
    );
}
