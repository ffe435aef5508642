//! Benchmark harness for the LCCS-LSH reproduction.
//!
//! * **Per-figure binaries** (`src/bin/`): `table1`, `table2`, `fig4` …
//!   `fig10` — each regenerates one table/figure of the paper's §6 and
//!   writes its TSV series (see `eval::experiments` and EXPERIMENTS.md).
//!   All accept `--n`, `--queries`, `--k`, `--seed`, `--out`, `--full`.
//! * **`live_churn`** (`src/bin/`): recall@10, an answer hash and µs per
//!   search of a live index at fixed write counts of the `live_mixed_32k`
//!   write pattern — the probe for comparing two commits' live read paths
//!   with no time box in the way (`--rows`, `--queries`, `--seed`).
//! * **Criterion micro-benches** (`benches/`): `csa` (Algorithm 1 build and
//!   Algorithm 2 k-LCCS search), `families` (per-family hashing cost
//!   η(d)), `queries` (end-to-end query paths of every scheme), and `live`
//!   (live-index reads: memtable-heavy, compacted, churned).
//!
//! Where this harness sits in the workspace is mapped in
//! `docs/architecture.md` at the repository root.

#![forbid(unsafe_code)]

/// Shared fixture: a clustered workload for the micro-benches.
pub fn bench_data(n: usize, dim: usize) -> dataset::Dataset {
    dataset::SynthSpec::new("bench", n, dim).with_clusters(16).generate(0xbe8c)
}
