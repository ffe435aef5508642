//! `routed_8k`: SEARCH through a `Router` over two snapshot-loaded
//! `annd` shards, all in-process threads as in `crates/serve/tests`.
//!
//! The router merges per-shard top-k lists without translating ids, so
//! shards are *live* indexes bulk-built with the strided ids
//! `s, s+2, s+4, …` (what a routed BUILD produces), flushed to `.snap`
//! containers and loaded back by `Catalog::load_dir`.
//!
//! Correctness reference: a two-shard LCCS cluster is **not**
//! byte-identical to one LCCS index over the union of rows (each shard
//! spends its own candidate budget; only exact schemes merge to the
//! single-node answer). What must hold bit for bit is that the routed
//! answer equals the in-process scatter-gather over the same two shard
//! indexes — same per-shard searches, same `(distance, id)` merge — and
//! that is what the check compares.

use crate::harness::{self, bits, ids, Args, Outcome, ScratchDir};
use crate::scenario::{Inputs, Workload, K};
use ann::{AnnIndex, IndexSpec, SearchRequest};
use ann_live::{LiveConfig, LiveIndex};
use dataset::exact::Neighbor;
use dataset::Dataset;
use serve::catalog::Catalog;
use serve::client::Client;
use serve::router::{Router, RouterConfig, ShardSpec};
use serve::server::Server;
use serve::snapshot::Snapshot;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;

/// Name the index is served under.
pub const INDEX: &str = "bench";
/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Seal policy of every live index the benchmark builds.
pub const LIVE_CONFIG: LiveConfig = LiveConfig {
    seal_threshold: 1024,
    max_segments: 4,
};

/// The spec string/value of the workload's segments.
pub fn spec(w: &Workload, width: f64) -> IndexSpec {
    let spec = if w.probes > 1 {
        IndexSpec::mp_lccs(w.m)
    } else {
        IndexSpec::lccs(w.m)
    };
    spec.with_w(width)
}

/// Splits `rows` round-robin and bulk-builds one live shard per slice,
/// row `i` keeping the global id `i`.
pub fn build_shards(w: &Workload, width: f64, rows: &Dataset) -> Vec<LiveIndex> {
    (0..SHARDS)
        .map(|s| {
            let ids: Vec<u32> = (s..rows.len()).step_by(SHARDS).map(|i| i as u32).collect();
            let flat: Vec<f32> = ids
                .iter()
                .flat_map(|&i| rows.get(i as usize).iter().copied())
                .collect();
            let slice = Dataset::from_flat(format!("shard{s}"), rows.dim(), flat);
            LiveIndex::build_from_ids(spec(w, width), w.metric, &slice, LIVE_CONFIG, &ids)
                .expect("shard build")
        })
        .collect()
}

/// The in-process scatter-gather the routed answer must equal.
pub fn merged_search(shards: &[LiveIndex], q: &[f32], req: &SearchRequest) -> Vec<Neighbor> {
    let mut hits: Vec<Neighbor> = shards
        .iter()
        .flat_map(|s| {
            let mut shard_req = req.clone();
            shard_req.k = req.k.min(s.len());
            s.search(q, &shard_req).hits
        })
        .collect();
    hits.sort_unstable();
    hits.truncate(req.k);
    hits
}

/// One served `annd`: its address and serving thread.
pub struct Node {
    pub addr: SocketAddr,
    handle: Option<JoinHandle<()>>,
}

impl Node {
    /// Runs `server` on a thread.
    pub fn spawn(server: Server) -> Node {
        let addr = server.local_addr().expect("bound address");
        let handle = std::thread::spawn(move || server.run().expect("serving loop"));
        Node {
            addr,
            handle: Some(handle),
        }
    }

    /// A fresh connection.
    pub fn connect(&self) -> Client {
        Client::connect(self.addr).expect("connect")
    }
}

/// Sends SHUTDOWN to `addr` and joins its thread; used by both node
/// kinds' `Drop` so no run leaves a thread behind.
fn stop(addr: SocketAddr, handle: &mut Option<JoinHandle<()>>) {
    if let Some(h) = handle.take() {
        if let Ok(mut c) = Client::connect(addr) {
            c.shutdown().ok();
        }
        h.join().ok();
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        stop(self.addr, &mut self.handle);
    }
}

/// Two snapshot-loaded shard servers behind a router.
pub struct Cluster {
    pub shards: Vec<Node>,
    pub router_addr: SocketAddr,
    router: Option<JoinHandle<()>>,
    /// The first shard's snapshot file (the snapshot probes reopen it).
    pub snap_path: PathBuf,
    /// Seconds `Snapshot::write_to` took for the first shard.
    pub snap_write_secs: f64,
}

impl Cluster {
    /// Snapshots every shard under `dir`, loads each directory into its
    /// own server, and binds a router over them.
    pub fn start(dir: &Path, shards: &[LiveIndex]) -> Cluster {
        let mut nodes = Vec::new();
        let mut first = None;
        for (s, live) in shards.iter().enumerate() {
            let shard_dir = dir.join(format!("shard{s}"));
            std::fs::create_dir_all(&shard_dir).expect("shard directory");
            let path = shard_dir.join(format!("{INDEX}.snap"));
            let snap = Snapshot::of_live(INDEX, &live.state()).expect("live container");
            let (secs, res) = harness::secs(|| snap.write_to(&path));
            res.expect("write snapshot");
            first.get_or_insert((path, secs));
            let catalog = Catalog::load_dir(&shard_dir).expect("load snapshot directory");
            let server = Server::bind(catalog, "127.0.0.1:0", 2)
                .expect("bind shard")
                .with_snapshot_dir(&shard_dir);
            nodes.push(Node::spawn(server));
        }
        let topology = nodes
            .iter()
            .map(|n| ShardSpec {
                primary: n.addr.to_string(),
                replicas: Vec::new(),
            })
            .collect();
        let router =
            Router::bind(RouterConfig::new(topology), "127.0.0.1:0", 2).expect("bind router");
        let router_addr = router.local_addr().expect("router address");
        let handle = std::thread::spawn(move || router.run().expect("router loop"));
        let (snap_path, snap_write_secs) = first.expect("at least one shard");
        Cluster {
            shards: nodes,
            router_addr,
            router: Some(handle),
            snap_path,
            snap_write_secs,
        }
    }

    /// A connection to the router, warmed so the shard pool is dialed
    /// and the placement learned before anything is timed.
    pub fn connect(&self, warm: &[f32], req: &SearchRequest) -> Client {
        let mut c = Client::connect(self.router_addr).expect("connect router");
        c.search(INDEX, warm, req).expect("warm-up search");
        c
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        // Router first: it holds pooled connections into the shards.
        stop(self.router_addr, &mut self.router);
        self.shards.clear();
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: &Workload, args: &Args, inputs: &Inputs, scratch: &ScratchDir) -> Outcome {
    let mut out = Outcome::default();
    let req = w.request();

    let mut build_secs = Vec::new();
    let mut setup_secs = Vec::new();
    let mut rig = None;
    for _ in 0..args.setup_repeats(9) {
        drop(rig.take());
        let (total, (build, shards, cluster, client)) = harness::secs(|| {
            let (build, shards) = harness::secs(|| build_shards(w, inputs.w, &inputs.data));
            let cluster = Cluster::start(&scratch.sub("cluster"), &shards);
            let client = cluster.connect(inputs.queries.get(0), &req);
            (build, shards, cluster, client)
        });
        build_secs.push(build);
        setup_secs.push(total);
        // Field order is drop order: the connection closes before the
        // cluster stops, or the router would wait out its read timeout.
        rig = Some((client, cluster, shards));
    }
    let (mut client, cluster, shards) = rig.expect("at least one set-up repeat");

    // Correctness before timing.
    let (check_secs, ()) = harness::secs(|| {
        for (qi, q) in inputs.queries.iter().take(64).enumerate() {
            let want = merged_search(&shards, q, &req);
            match client.search(INDEX, q, &req) {
                Ok((hits, _)) => out.check(bits(&hits) == bits(&want), || {
                    format!("routed answer != in-process scatter-gather on query {qi}")
                }),
                Err(e) => out.check(false, || format!("routed query {qi}: {e}")),
            }
        }
    });
    if out.failed > 0 {
        return out;
    }

    let nq = inputs.queries.len();
    let mut answers = Vec::new();
    let timed = harness::timed_passes(args.seconds, |pass| {
        let mut lat = Vec::with_capacity(nq);
        for q in inputs.queries.iter() {
            let t = std::time::Instant::now();
            let res = client.search(INDEX, q, &req);
            lat.push(harness::us(t));
            match res {
                Ok((hits, _)) if hits.len() == K => {
                    if pass == 0 {
                        answers.push(ids(&hits));
                    }
                }
                _ => out.failed += 1,
            }
        }
        lat
    });
    out.attempted += timed.samples_us.len() as u64;
    drop(client);
    drop(cluster);
    if out.failed > 0 {
        return out;
    }

    let rows = inputs.data.len() as f64;
    let build_s = crate::stats::fastest(&build_secs);
    let index_bytes: usize = shards.iter().map(AnnIndex::index_bytes).sum();
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        harness::setup_secs(inputs.secs + check_secs, &setup_secs),
    );
    m.set("build_s", build_s);
    m.set("index_bytes_per_row", index_bytes as f64 / rows);
    m.set("recall_at_10", harness::recall_of(&answers, inputs));
    m.set("writes_per_s", rows / build_s);
    timed.report(m);
    out
}
