//! The traced run: per-layer metrics, measured from outside.
//!
//! Every workload's traced run replays *its own* rows and queries
//! through every layer of the stack, whether or not the workload's
//! end-to-end path crosses that layer, so each per-layer metric is a
//! real measurement on every workload (the README's prediction table
//! says which of them the workload's end-to-end numbers depend on):
//!
//! * the **in-process rig** — the workload's LCCS index over all its
//!   rows, searched as LCCS-LSH and as MP-LCCS (`lsh.*`, `csa.*`,
//!   `core.*`, `dataset.*`);
//! * the **cluster rig** — two live shards behind a router over at most
//!   [`RIG_ROWS`] of the rows (`snapshot.*`, `server.hop_us`,
//!   `router.hop_us`, `protocol.*`);
//! * the **live rig** — an in-process `LiveIndex` plus a WAL taking the
//!   workload's write pattern (`live.*`).
//!
//! One of the rigs *is* the workload's own end-to-end path (for
//! `live_mixed_32k` a fourth, the reader under concurrent writes). On it
//! traced and untraced queries alternate, which gives
//! `trace_overhead_pct` and the check that the span tree's self times
//! add up to the untraced median.

use crate::catalog::Metrics;
use crate::harness::{self, us, Args, Outcome, ScratchDir};
use crate::routed::{self, Cluster, INDEX};
use crate::scenario::{self, Inputs, Path, Workload, K};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{inproc, live};
use ann::{AnnIndex, MutableAnn, Scratch, SearchRequest};
use ann_live::wal::{Wal, WalRecord, WalSync};
use ann_live::{LiveConfig, LiveIndex};
use csa::{Csa, SearchScratch, StringSet};
use dataset::{Dataset, ExactKnn};
use lccs_lsh::{MpLccsLsh, PerturbationGenerator, QueryScratch};
use serve::client::Client;
use serve::protocol::{Request, Response};
use serve::snapshot::Snapshot;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Rows the cluster and live rigs take from the workload (a prefix).
pub const RIG_ROWS: usize = 8192;

/// One query path that can run a query bare or under spans. Both return
/// the latency the caller saw, in µs (traced: the root span's duration).
trait Rig {
    fn bare(&mut self, qi: usize) -> f64;
    fn traced(&mut self, t: &mut Tracer, qi: usize) -> f64;
    /// Name of the root span `traced` records.
    fn root(&self) -> &'static str;
}

// ------------------------------------------------------- in-process rig

/// Counters the LCCS replay accumulates next to its spans.
#[derive(Default)]
struct FunnelCounts {
    queries: u64,
    csa_cands: u64,
    scanned: u64,
    pruned: u64,
    heap_pushes: u64,
    useful: u64,
}

/// LCCS-LSH over the workload's index: `search_request`, then its
/// stages replayed through `lsh::hash_query`, `Csa::search_with` and
/// `Csa::anchor`. What is left of the root is candidate verification.
struct LccsRig<'a> {
    index: &'a MpLccsLsh,
    inputs: &'a Inputs,
    req: SearchRequest,
    scratch: QueryScratch,
    csa_scratch: SearchScratch,
    truth: Vec<Vec<u32>>,
    counts: FunnelCounts,
}

impl<'a> LccsRig<'a> {
    fn new(w: &Workload, index: &'a MpLccsLsh, inputs: &'a Inputs) -> Self {
        LccsRig {
            index,
            inputs,
            req: SearchRequest::top_k(K).budget(w.budget),
            scratch: index.scratch(),
            csa_scratch: SearchScratch::for_csa(index.inner().csa()),
            truth: scenario::truth_ids(&inputs.truth),
            counts: FunnelCounts::default(),
        }
    }
}

impl Rig for LccsRig<'_> {
    fn root(&self) -> &'static str {
        "core.search"
    }

    fn bare(&mut self, qi: usize) -> f64 {
        let q = self.inputs.queries.get(qi);
        let t = Instant::now();
        std::hint::black_box(
            self.index
                .inner()
                .search_request(q, &self.req, &mut self.scratch),
        );
        us(t)
    }

    fn traced(&mut self, t: &mut Tracer, qi: usize) -> f64 {
        let lccs = self.index.inner();
        let q = self.inputs.queries.get(qi);
        let (root, resp) = t.time("core.search", None, qi as u32, || {
            lccs.search_request(q, &self.req, &mut self.scratch)
        });
        let (_, hash) = t.replay("lsh.hash_query", root, || {
            lsh::hash_query(lccs.functions(), q)
        });
        let budget = self.req.budget.max(1) + K - 1;
        let (search, (cands, _)) = t.replay("csa.search", root, || {
            lccs.csa().search_with(&hash, budget, &mut self.csa_scratch)
        });
        t.replay("csa.anchor", search, || lccs.csa().anchor(&hash));

        let c = &mut self.counts;
        c.queries += 1;
        c.csa_cands += cands.len() as u64;
        c.scanned += resp.stats.candidates_scanned;
        c.pruned += resp.stats.sq8_pruned;
        c.heap_pushes += resp.stats.heap_pushes;
        c.useful += resp
            .hits
            .iter()
            .filter(|h| self.truth[qi].contains(&h.id))
            .count() as u64;
        t.dur_us(root)
    }
}

/// MP-LCCS over the same index at 2m+1 probes: `search_request`, then
/// hashing, the first (unperturbed) CSA search, `alternatives` over all
/// m functions and the perturbation generator replayed. What is left of
/// the root is `probe_rotations` plus verification.
struct MpRig<'a> {
    index: &'a MpLccsLsh,
    queries: &'a Dataset,
    req: SearchRequest,
    probes: usize,
    scratch: QueryScratch,
    csa_scratch: SearchScratch,
}

impl<'a> MpRig<'a> {
    fn new(w: &Workload, index: &'a MpLccsLsh, inputs: &'a Inputs) -> Self {
        let probes = 2 * w.m + 1;
        MpRig {
            index,
            queries: &inputs.queries,
            req: SearchRequest::top_k(K).budget(w.budget).probes(probes),
            probes,
            scratch: index.scratch(),
            csa_scratch: SearchScratch::for_csa(index.inner().csa()),
        }
    }
}

impl Rig for MpRig<'_> {
    fn root(&self) -> &'static str {
        "core.mp_search"
    }

    fn bare(&mut self, qi: usize) -> f64 {
        let q = self.queries.get(qi);
        let t = Instant::now();
        std::hint::black_box(self.index.search_request(q, &self.req, &mut self.scratch));
        us(t)
    }

    fn traced(&mut self, t: &mut Tracer, qi: usize) -> f64 {
        let (mp, lccs) = (self.index, self.index.inner());
        let q = self.queries.get(qi);
        let (root, _) = t.time("core.mp_search", None, qi as u32, || {
            mp.search_request(q, &self.req, &mut self.scratch)
        });
        let (_, hash) = t.replay("core.mp_hash", root, || {
            lsh::hash_query(lccs.functions(), q)
        });
        let per_probe = (self.req.budget.max(1) + K - 1)
            .div_ceil(self.probes)
            .max(1);
        t.replay("core.mp_first_search", root, || {
            lccs.csa()
                .search_with(&hash, per_probe, &mut self.csa_scratch)
        });
        let max_alts = mp.mp_params().max_alts;
        let (_, alts) = t.replay("core.mp_alts", root, || {
            lccs.functions()
                .iter()
                .map(|f| f.alternatives(q, max_alts))
                .collect::<Vec<_>>()
        });
        t.replay("core.mp_gen", root, || {
            PerturbationGenerator::new(&alts).take(self.probes).count()
        });
        t.dur_us(root)
    }
}

// ----------------------------------------------------------- cluster rig

fn search_frame(q: &[f32], req: &SearchRequest) -> Request {
    Request::Search {
        index: INDEX.to_string(),
        k: req.k as u32,
        budget: req.budget as u32,
        probes: req.probes as u32,
        filter: None,
        max_dist: None,
        want_stats: false,
        target_recall: None,
        vector: q.to_vec(),
    }
}

/// Encodes and decodes one SEARCH exchange; returns the four stage
/// times in ns and the two body sizes.
fn codec_round(
    q: &[f32],
    req: &SearchRequest,
    hits: &[dataset::exact::Neighbor],
) -> ([f64; 4], [usize; 2]) {
    let ns = |t: Instant| t.elapsed().as_nanos() as f64;
    let frame = search_frame(q, req);
    let t = Instant::now();
    let body = std::hint::black_box(frame.encode());
    let enc_req = ns(t);
    let t = Instant::now();
    std::hint::black_box(Request::decode(&body).expect("own frame decodes"));
    let dec_req = ns(t);
    let resp = Response::Search {
        hits: hits.to_vec(),
        stats: None,
    };
    let t = Instant::now();
    let rbody = std::hint::black_box(resp.encode());
    let enc_resp = ns(t);
    let t = Instant::now();
    std::hint::black_box(Response::decode(&rbody).expect("own frame decodes"));
    let dec_resp = ns(t);
    (
        [enc_req, dec_req, enc_resp, dec_resp],
        [body.len(), rbody.len()],
    )
}

/// A routed SEARCH, then the same query sent straight to each shard;
/// the slower direct call becomes the router's `server.request` child,
/// and under it the in-process search on that shard's index and the
/// codec round. Root self time is the router hop, `server.request` self
/// time the server hop.
struct ClusterRig<'a> {
    queries: &'a Dataset,
    req: SearchRequest,
    shards: Vec<LiveIndex>,
    scratches: Vec<Scratch>,
    routed: Client,
    direct: Vec<Client>,
    _cluster: Cluster,
    codec_ns: Vec<[f64; 4]>,
    codec_bytes: [usize; 2],
}

impl Rig for ClusterRig<'_> {
    fn root(&self) -> &'static str {
        "router.request"
    }

    fn bare(&mut self, qi: usize) -> f64 {
        let t = Instant::now();
        self.routed
            .search(INDEX, self.queries.get(qi), &self.req)
            .expect("routed search");
        us(t)
    }

    fn traced(&mut self, t: &mut Tracer, qi: usize) -> f64 {
        let q = self.queries.get(qi);
        let (root, _) = t.time("router.request", None, qi as u32, || {
            self.routed
                .search(INDEX, q, &self.req)
                .expect("routed search")
        });
        let mut slower = (0usize, 0u64, Vec::new());
        for (s, client) in self.direct.iter_mut().enumerate() {
            let t0 = Instant::now();
            let (hits, _) = client.search(INDEX, q, &self.req).expect("direct search");
            let ns = t0.elapsed().as_nanos() as u64;
            if ns >= slower.1 {
                slower = (s, ns, hits);
            }
        }
        let (s, ns, hits) = slower;
        let server = t.replay_ns("server.request", root, ns);
        t.replay("live.shard_search", server, || {
            self.shards[s].search_with(q, &self.req, &mut self.scratches[s])
        });
        let t0 = Instant::now();
        let (stage_ns, bytes) = codec_round(q, &self.req, &hits);
        t.replay_ns("protocol.codec", server, t0.elapsed().as_nanos() as u64);
        self.codec_ns.push(stage_ns);
        self.codec_bytes = bytes;
        t.dur_us(root)
    }
}

/// Builds the cluster rig over `rows` and reports the snapshot metrics.
fn cluster_rig<'a>(
    w: &Workload,
    inputs: &'a Inputs,
    rows: &Dataset,
    scratch: &ScratchDir,
    m: &mut Metrics,
) -> ClusterRig<'a> {
    let req = w.request();
    let shards = routed::build_shards(w, inputs.w, rows);
    let cluster = Cluster::start(&scratch.sub("rig-cluster"), &shards);

    let path = &cluster.snap_path;
    let time_open = |open: &dyn Fn() -> usize| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(open());
                us(t)
            })
            .collect();
        median(&samples)
    };
    m.set("snapshot.write_s", cluster.snap_write_secs);
    m.set(
        "snapshot.open_mapped_us",
        time_open(&|| Snapshot::open_mapped(path).expect("open_mapped").data.len()),
    );
    m.set(
        "snapshot.read_owned_us",
        time_open(&|| Snapshot::read_from(path).expect("read_from").data.len()),
    );
    let file_bytes = std::fs::metadata(path).expect("snapshot file").len() as f64;
    m.set(
        "snapshot.bytes_per_row",
        file_bytes / shards[0].len() as f64,
    );

    let routed = cluster.connect(inputs.queries.get(0), &req);
    let direct = cluster.shards.iter().map(routed::Node::connect).collect();
    ClusterRig {
        queries: &inputs.queries,
        req,
        scratches: shards.iter().map(AnnIndex::make_scratch).collect(),
        shards,
        routed,
        direct,
        _cluster: cluster,
        codec_ns: Vec::new(),
        codec_bytes: [0; 2],
    }
}

// ------------------------------------------------- live_mixed's own path

/// The reader of `live_mixed_32k`: a wire SEARCH to the `annd` the
/// writer is writing to. Children are the same search on the in-process
/// twin of the warmed-up index (same layout, nobody writing to it) and
/// the codec round, so the root's self time is the server hop **plus the
/// wait for the index lock and for the CPUs the writer and sealer use**.
struct ReaderRig<'a> {
    queries: &'a Dataset,
    req: SearchRequest,
    client: &'a mut Client,
    local: LiveIndex,
    scratch: Scratch,
}

impl Rig for ReaderRig<'_> {
    fn root(&self) -> &'static str {
        "reader.request"
    }

    fn bare(&mut self, qi: usize) -> f64 {
        let t = Instant::now();
        self.client
            .search(INDEX, self.queries.get(qi), &self.req)
            .expect("search");
        us(t)
    }

    fn traced(&mut self, t: &mut Tracer, qi: usize) -> f64 {
        let q = self.queries.get(qi);
        let (root, (hits, _)) = t.time("reader.request", None, qi as u32, || {
            self.client.search(INDEX, q, &self.req).expect("search")
        });
        t.replay("live.shard_search", root, || {
            self.local.search_with(q, &self.req, &mut self.scratch)
        });
        t.replay("protocol.codec", root, || codec_round(q, &self.req, &hits));
        t.dur_us(root)
    }
}

// ------------------------------------------------------------- live rig

/// The live rig: bulk-load three quarters of `rows` in-process, then
/// write the rest one row at a time in `live_mixed_32k`'s pattern (one
/// DELETE of the four oldest ids per four INSERTs), each write an
/// `insert_deferred`/`delete` plus a fsynced WAL append, each pending
/// seal or merge built and installed right after the write that queued
/// it (the server does that on a background thread). Then search the
/// final state.
fn live_rig(
    w: &Workload,
    inputs: &Inputs,
    rows: &Dataset,
    scratch: &ScratchDir,
    t: &mut Tracer,
    m: &mut Metrics,
) {
    let bulk = rows.truncated(rows.len() / 4 * 3);
    // A quarter of the inserts per seal: the sequence crosses four seals
    // and, past four segments, a compaction, whatever the rig's size.
    let config = LiveConfig {
        seal_threshold: (rows.len() - bulk.len()) / 4,
        max_segments: 4,
    };
    let mut live = LiveIndex::build_from(routed::spec(w, inputs.w), w.metric, &bulk, config)
        .expect("live rig bulk load");
    let mut wal = Wal::create(&scratch.sub("rig-wal").join("rig.wal"), 0).expect("create WAL");
    let dim = rows.dim() as u32;

    let (mut seals, mut merges, mut build_secs) = (0u64, 0u64, Vec::new());
    let mut oldest = 0u32;
    let mut op = 0u32;
    let mut write =
        |t: &mut Tracer, live: &mut LiveIndex, rec: WalRecord, row: Option<&Dataset>| {
            let root = t.open("live.write", None, op);
            match (&rec, row) {
                (_, Some(one)) => {
                    t.time("live.insert", Some(root), op, || {
                        live.insert_deferred(one, None).expect("rig insert")
                    });
                }
                (WalRecord::Delete { ids }, None) => {
                    t.time("live.delete", Some(root), op, || live.delete(ids));
                }
                (WalRecord::Insert { .. }, None) => unreachable!("inserts carry their row"),
            }
            t.time("live.wal_append", Some(root), op, || {
                wal.append(&rec, WalSync::Always).expect("WAL append")
            });
            t.close(root);
            op += 1;
            // The sealer's work, inline.
            while let Some(pending) = live.pending_build() {
                let before = live.segment_count();
                let (secs, ()) = harness::secs(|| {
                    let built = pending.build().expect("rig segment build");
                    assert!(live.install_built(built), "rig build is never stale");
                });
                build_secs.push(secs);
                if live.segment_count() > before {
                    seals += 1;
                } else {
                    merges += 1;
                }
            }
        };
    for (i, row) in (bulk.len()..rows.len()).enumerate() {
        let one = Dataset::from_flat("row", rows.dim(), rows.get(row).to_vec());
        let id = bulk.len() as u32 + i as u32;
        let rec = WalRecord::Insert {
            dim,
            rows: rows.get(row).to_vec(),
            ids: vec![id],
        };
        write(t, &mut live, rec, Some(&one));
        if i % 4 == 3 {
            let victims: Vec<u32> = (oldest..oldest + 4).collect();
            oldest += 4;
            write(t, &mut live, WalRecord::Delete { ids: victims }, None);
        }
    }

    let req = w.request();
    let mut s = live.make_scratch();
    for (qi, q) in inputs.queries.iter().enumerate() {
        t.time("live.search", None, qi as u32, || {
            live.search_with(q, &req, &mut s)
        });
    }

    let writes: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == "live.write")
        .map(|s| s.dur_us())
        .collect();
    m.set(
        "live.search_us",
        t.median_self_us("live.search").expect("live searches"),
    );
    m.set(
        "live.insert_us",
        t.median_self_us("live.insert").expect("live inserts"),
    );
    m.set(
        "live.wal_append_us",
        t.median_self_us("live.wal_append").expect("WAL appends"),
    );
    m.set("live.write_p50_us", percentile(&writes, 0.50));
    m.set("live.write_p99_us", percentile(&writes, 0.99));
    m.set("live.seal_s", median(&build_secs));
    m.set("live.seals", seals as f64);
    m.set("live.compactions", merges as f64);
    m.set("live.segments", live.segment_count() as f64);
    m.set("live.memtable_rows", live.memtable_rows() as f64);
}

// ------------------------------------------------------- dataset probes

/// Distance and SQ8-bound kernels over each query's own candidate ids,
/// and the exact scan.
fn dataset_probes(w: &Workload, index: &MpLccsLsh, inputs: &Inputs, m: &mut Metrics) {
    let lccs = index.inner();
    let data = lccs.data();
    let sq = data.sq8();
    let budget = w.budget + K - 1;
    let mut scratch = SearchScratch::for_csa(lccs.csa());
    let (mut dist_ns, mut bound_ns, mut rows) = (0f64, 0f64, 0usize);
    for q in inputs.queries.iter().take(256) {
        let hash = lsh::hash_query(lccs.functions(), q);
        let (cands, _) = lccs.csa().search_with(&hash, budget, &mut scratch);
        let code = sq.encode_query(q);
        let t = Instant::now();
        let mut acc = 0f64;
        for c in &cands {
            acc += w.metric.surrogate(data.get(c.id as usize), q);
        }
        std::hint::black_box(acc);
        dist_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        let mut acc = 0u64;
        for c in &cands {
            acc += dataset::sq8::code_bound_sq(&code, sq.code_row(c.id as usize));
        }
        std::hint::black_box(acc);
        bound_ns += t.elapsed().as_nanos() as f64;
        rows += cands.len();
    }
    m.set("dataset.dist_ns_per_row", dist_ns / rows as f64);
    m.set("dataset.sq8_bound_ns_per_row", bound_ns / rows as f64);
    let scans: Vec<f64> = inputs
        .queries
        .iter()
        .take(16)
        .map(|q| {
            let t = Instant::now();
            std::hint::black_box(ExactKnn::single_query(&inputs.data, q, K, w.metric));
            us(t) / 1e3
        })
        .collect();
    m.set("dataset.exact_scan_ms", median(&scans));
}

/// `CalibrationTable::plan` over a 48-point table. None of the four
/// workloads plans (they pass explicit knobs); tracked so a planner
/// change has a number.
fn plan_probe(m: &mut Metrics) {
    let points = (0..8u32)
        .flat_map(|b| {
            (0..6u32).map(move |p| plan::CalPoint {
                budget: 16 << b,
                probes: 1 + 8 * p,
                recall: (0.30 + 0.08 * f64::from(b) + 0.02 * f64::from(p)).min(0.999),
                micros: u64::from(50 + 40 * b + 10 * p),
            })
        })
        .collect();
    let table = plan::CalibrationTable {
        sample_queries: 64,
        k: K as u32,
        rows: 100_000,
        built_unix: 0,
        stale: false,
        points,
    };
    let samples: Vec<f64> = (0..2000)
        .map(|i| {
            let target = 0.5 + 0.4 * f64::from(i % 100) / 100.0;
            let t = Instant::now();
            std::hint::black_box(
                table
                    .plan(std::hint::black_box(target))
                    .expect("calibrated"),
            );
            t.elapsed().as_nanos() as f64
        })
        .collect();
    m.set("plan.plan_ns", median(&samples));
}

/// `lsh::hash_dataset` and `Csa::build` timed apart (`LccsLsh::build`
/// runs them back to back and cannot be split from outside).
fn staged_build(w: &Workload, inputs: &Inputs, m: &mut Metrics) {
    let p = w.lccs_params(inputs.w);
    let data = &inputs.data;
    let funcs = lsh::sample_family(p.family, data.dim(), p.m, &p.family_params, p.seed);
    let (hash_secs, strings) = harness::secs(|| lsh::hash_dataset(&funcs, data));
    let set = StringSet::from_flat(data.len(), p.m, strings);
    let (build_secs, csa) = harness::secs(|| Csa::build(set));
    m.set("lsh.hash_dataset_s", hash_secs);
    m.set("csa.build_s", build_secs);
    m.set("csa.bytes_per_row", csa.nbytes() as f64 / data.len() as f64);
}

// ------------------------------------------------------------ the run

/// The workload's own path: bare and traced queries alternate until
/// `stop(i)`. Reports the overhead and checks the span tree's self
/// times against the bare median.
fn own_path(
    rig: &mut dyn Rig,
    t: &mut Tracer,
    nq: usize,
    stop: impl Fn(usize) -> bool,
    m: &mut Metrics,
) {
    let (mut bare, mut traced) = (Vec::new(), Vec::new());
    let mut i = 0usize;
    while !stop(i) {
        // The traced query is half a query set away from the bare one
        // before it, so neither finds the other's rows in cache.
        if i.is_multiple_of(2) {
            bare.push(rig.bare((i / 2) % nq));
        } else {
            traced.push(rig.traced(t, (i / 2 + nq / 2) % nq));
        }
        i += 1;
    }
    let (bare_p50, traced_p50) = (percentile(&bare, 0.5), percentile(&traced, 0.5));
    let (tree, shares) = t.tree_self(rig.root()).expect("own-path spans");
    eprintln!(
        "benchmark: own path {}: untraced p50 {bare_p50:.1} us over {} queries, traced p50 \
         {traced_p50:.1} us, span-tree self times sum to {tree:.1} us ({:+.1} % of untraced)",
        rig.root(),
        bare.len(),
        100.0 * (tree - bare_p50) / bare_p50
    );
    let shares: Vec<String> = shares
        .iter()
        .map(|(name, share)| format!("{name} {:.1} %", 100.0 * share))
        .collect();
    eprintln!(
        "benchmark: own path self time by span: {}",
        shares.join(", ")
    );
    m.set(
        "trace_overhead_pct",
        100.0 * (traced_p50 - bare_p50) / bare_p50,
    );
}

/// The traced run: every per-layer metric, and the span file.
pub fn run_traced(w: &Workload, args: &Args, inputs: &Inputs, scratch: &ScratchDir) -> Outcome {
    let mut out = Outcome::default();
    let mut m = Metrics::default();
    let mut t = Tracer::default();
    let nq = inputs.queries.len();
    // A rig that is the workload's own path alternates bare and traced
    // queries for half of --seconds (and at least once over the query
    // set); any other rig gets one traced pass.
    let drive = |rig: &mut dyn Rig, own: bool, t: &mut Tracer, m: &mut Metrics| {
        if own {
            let started = Instant::now();
            let stop =
                |i: usize| i >= 2 * nq && started.elapsed().as_secs_f64() >= args.seconds / 2.0;
            own_path(rig, t, nq, stop, m);
        } else {
            for qi in 0..nq {
                rig.traced(t, qi);
            }
        }
    };

    staged_build(w, inputs, &mut m);
    let (_, index) = inproc::build(w, inputs);
    inproc::check(w, inputs, inproc::searcher(w, &index), &mut out);
    if out.failed > 0 {
        return out;
    }

    // In-process rig, both schemes.
    {
        let mut lccs = LccsRig::new(w, &index, inputs);
        let mut mp = MpRig::new(w, &index, inputs);
        let in_process = w.path == Path::InProcess;
        drive(&mut lccs, in_process && w.probes == 1, &mut t, &mut m);
        drive(&mut mp, in_process && w.probes > 1, &mut t, &mut m);
        let c = &lccs.counts;
        let per_query = |x: u64| x as f64 / c.queries as f64;
        m.set("csa.cands_per_query", per_query(c.csa_cands));
        m.set("core.cands_scanned", per_query(c.scanned));
        m.set("core.heap_pushes", per_query(c.heap_pushes));
        m.set("core.sq8_pruned_share", c.pruned as f64 / c.scanned as f64);
        m.set("core.useful_share", c.useful as f64 / c.scanned as f64);
    }
    dataset_probes(w, &index, inputs, &mut m);
    drop(index);

    // Cluster rig.
    let rig_rows = inputs.data.truncated(inputs.data.len().min(RIG_ROWS));
    let mut cluster = cluster_rig(w, inputs, &rig_rows, scratch, &mut m);
    drive(&mut cluster, w.path == Path::Routed, &mut t, &mut m);
    let stage = |i: usize| median(&cluster.codec_ns.iter().map(|s| s[i]).collect::<Vec<_>>());
    m.set("protocol.search_req_encode_ns", stage(0));
    m.set("protocol.search_req_decode_ns", stage(1));
    m.set("protocol.search_resp_encode_ns", stage(2));
    m.set("protocol.search_resp_decode_ns", stage(3));
    m.set("protocol.search_req_bytes", cluster.codec_bytes[0] as f64);
    m.set("protocol.search_resp_bytes", cluster.codec_bytes[1] as f64);
    drop(cluster);

    // Live rig.
    live_rig(w, inputs, &rig_rows, scratch, &mut t, &mut m);
    plan_probe(&mut m);

    // live_mixed_32k's own path: the reader while the writer writes.
    if w.path == Path::LiveMixed {
        let (bulk, fvecs) = live::write_bulk(&inputs.data, scratch);
        let mut rig = live::start(w, inputs.w, &fvecs, &scratch.sub("annd"));
        live::warm_up(&mut rig, &inputs.data);
        let local = live::check_twin(w, inputs, &bulk, &mut rig.reader, &mut out);
        if out.failed > 0 {
            return out;
        }
        let (tracer, metrics) = (&mut t, &mut m);
        live::mixed_phase(
            &mut rig,
            &inputs.data,
            args.seconds / 2.0,
            |client, done| {
                let mut reader = ReaderRig {
                    queries: &inputs.queries,
                    req: w.request(),
                    client,
                    scratch: local.make_scratch(),
                    local,
                };
                own_path(
                    &mut reader,
                    tracer,
                    nq,
                    |_| done.load(Ordering::SeqCst),
                    metrics,
                );
            },
        );
        out.failed += rig.books.failed;
    }

    // A leaf span's self time is its duration; `csa.search`, the three
    // roots and `server.request` are what is left once their children
    // are taken out.
    for (metric, span) in [
        ("lsh.hash_query_us", "lsh.hash_query"),
        ("csa.anchor_us", "csa.anchor"),
        ("csa.merge_us", "csa.search"),
        ("core.verify_us", "core.search"),
        ("core.mp_alts_us", "core.mp_alts"),
        ("core.mp_gen_us", "core.mp_gen"),
        ("core.mp_rest_us", "core.mp_search"),
        ("server.hop_us", "server.request"),
        ("router.hop_us", "router.request"),
    ] {
        let value = t.median_self_us(span);
        m.set(metric, value.unwrap_or_else(|| panic!("no {span} spans")));
    }

    let path = harness::out_dir().join(format!("trace-{}.jsonl", w.name));
    t.write_jsonl(&path).expect("write span file");
    eprintln!(
        "benchmark: wrote {} spans to {}",
        t.spans().len(),
        path.display()
    );
    out.attempted += t.spans().iter().filter(|s| s.parent.is_none()).count() as u64;
    out.metrics = m;
    out
}
