//! The metric catalogue: every name and unit the benchmark prints, in
//! print order. `BENCHMARK.json` at the repo root repeats the names and
//! units and adds each metric's direction and bound; `tests/contract.rs`
//! holds the two together.

use std::collections::BTreeMap;

/// One catalogue row.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees. Every workload reports every row,
/// from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    // wall seconds before the first timed operation: input generation and oracle once, plus the median of the repeated build / snapshot / server-start part
    m("setup_s", "s"),
    // index construction alone (LccsLsh::build, both shard builds, or the live bulk-load BUILD), fastest of the set-up repeats: the paper's indexing time
    m("build_s", "s"),
    // index_bytes() / rows right after the build: the paper's index size
    m("index_bytes_per_row", "B/row"),
    // VmHWM of the benchmark process (servers run in it as threads) at exit
    m("peak_rss_mb", "MB"),
    // search latency as the caller sees it, median over all pooled samples
    m("query_p50_us", "us"),
    // search latency, p95 per window of 200 samples, median over windows
    m("query_p95_us", "us"),
    // searches completed per second of timed wall time, closed loop
    m("qps", "1/s"),
    // mean recall@10 against dataset::ExactKnn over the same rows
    m("recall_at_10", "ratio"),
    // rows accepted per second of write-path wall time: rows / build_s where the index is built once, acked INSERT+DELETE per second of the mixed phase on live_mixed_32k (mean-based, so seal stalls show)
    m("writes_per_s", "1/s"),
];

/// Single layers, measured from outside by the traced run; no bounds.
/// Every workload reports every row: the traced run replays the
/// workload's own rows and queries through every layer, whether or not
/// the workload's end-to-end path crosses it (README, "Traced run").
pub const PER_LAYER: &[MetricDef] = &[
    // lsh::hash_query of one query, median
    m("lsh.hash_query_us", "us"),
    // lsh::hash_dataset over all rows
    m("lsh.hash_dataset_s", "s"),
    // Csa::build over the hashed rows
    m("csa.build_s", "s"),
    // Csa::nbytes / rows
    m("csa.bytes_per_row", "B/row"),
    // Csa::anchor (phase 1 binary searches), median
    m("csa.anchor_us", "us"),
    // Csa::search_with minus its anchoring (phase 2, the 2m-way merge), median
    m("csa.merge_us", "us"),
    // candidates Csa::search_with returns, mean
    m("csa.cands_per_query", "count"),
    // LccsLsh search minus hashing minus the CSA search: candidate verification, median self time
    m("core.verify_us", "us"),
    // SearchStats::candidates_scanned, mean
    m("core.cands_scanned", "count"),
    // candidates the SQ8 bound skipped / candidates scanned
    m("core.sq8_pruned_share", "ratio"),
    // SearchStats::heap_pushes, mean
    m("core.heap_pushes", "count"),
    // true top-10 members found / candidates scanned
    m("core.useful_share", "ratio"),
    // LshFunction::alternatives over all m functions, median
    m("core.mp_alts_us", "us"),
    // draining PerturbationGenerator for 2m+1 probes, median
    m("core.mp_gen_us", "us"),
    // MP-LCCS search minus hashing, alternatives, generation and the first CSA search: probe_rotations plus verification, median self time
    m("core.mp_rest_us", "us"),
    // Metric::surrogate gathered over each query's candidate ids
    m("dataset.dist_ns_per_row", "ns"),
    // sq8::code_bound_sq over the same ids
    m("dataset.sq8_bound_ns_per_row", "ns"),
    // ExactKnn::single_query over all rows, median
    m("dataset.exact_scan_ms", "ms"),
    // in-process LiveIndex search on the final state of the write sequence, median
    m("live.search_us", "us"),
    // in-process single-row LiveIndex::insert_deferred, median
    m("live.insert_us", "us"),
    // live::wal append + fsync of one INSERT record, median
    m("live.wal_append_us", "us"),
    // insert + WAL append of one write (what an ack waits for), median
    m("live.write_p50_us", "us"),
    // the same, p99
    m("live.write_p99_us", "us"),
    // one background seal or merge build + install, median
    m("live.seal_s", "s"),
    // seals the write sequence caused
    m("live.seals", "count"),
    // merges the write sequence caused
    m("live.compactions", "count"),
    // segments at the end of the write sequence
    m("live.segments", "count"),
    // memtable rows at the end of the write sequence
    m("live.memtable_rows", "count"),
    // Request::Search encode, median
    m("protocol.search_req_encode_ns", "ns"),
    // Request::decode of the same frame, median
    m("protocol.search_req_decode_ns", "ns"),
    // Response::Search encode, median
    m("protocol.search_resp_encode_ns", "ns"),
    // Response::decode of the same frame, median
    m("protocol.search_resp_decode_ns", "ns"),
    // SEARCH request frame body size
    m("protocol.search_req_bytes", "B"),
    // SEARCH response frame body size
    m("protocol.search_resp_bytes", "B"),
    // direct-wire request to one annd minus the in-process search and the codec, median self time
    m("server.hop_us", "us"),
    // routed request minus the direct request to the slower shard, median self time
    m("router.hop_us", "us"),
    // Snapshot::write_to of one shard (encode + write + fsync + rename)
    m("snapshot.write_s", "s"),
    // Snapshot::open_mapped of that file, median
    m("snapshot.open_mapped_us", "us"),
    // Snapshot::read_from of that file, median
    m("snapshot.read_owned_us", "us"),
    // snapshot file size / rows
    m("snapshot.bytes_per_row", "B/row"),
    // CalibrationTable::plan over a 48-point table, median
    m("plan.plan_ns", "ns"),
    // traced vs untraced query_p50_us of the workload's own path
    m("trace_overhead_pct", "%"),
];

/// Measured values keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Stores a value.
    ///
    /// # Panics
    /// Panics on a name outside the catalogue, or one set twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "{name} is not in the catalogue"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    /// The value stored under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Human-readable table of `defs`, one `name value unit` per line.
    ///
    /// # Panics
    /// Panics if a catalogue row has no value: every run prints every
    /// metric of its mode.
    pub fn render_lines(&self, defs: &[MetricDef]) -> String {
        defs.iter()
            .map(|d| format!("  {:<32} {:>16.4} {}\n", d.name, self.value(d), d.unit))
            .collect()
    }

    /// The `"metrics"` JSON object over `defs`.
    pub fn render_json(&self, defs: &[MetricDef]) -> String {
        let body: Vec<String> = defs
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    self.value(d),
                    d.unit
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn value(&self, d: &MetricDef) -> f64 {
        let v = self
            .get(d.name)
            .unwrap_or_else(|| panic!("{} was not measured", d.name));
        assert!(v.is_finite(), "{} is not finite: {v}", d.name);
        v
    }
}
