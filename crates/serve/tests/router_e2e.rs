//! Cluster end-to-end tests: a router over real `annd` shard processes
//! must answer reads byte-identically to one single-node daemon over
//! the union of rows, and a SIGKILLed shard must degrade into *typed*
//! partial results (or a typed error under `--require-all`), never a
//! hang or a malformed frame.
//!
//! Shards are spawned as real `annd` child processes (via
//! `CARGO_BIN_EXE_annd`) so "killing a shard" is an actual `SIGKILL` —
//! the process disappears mid-traffic, pooled router connections break,
//! and the freed port refuses new dials, exactly like production. The
//! router itself runs in-process so tests can bind it on an ephemeral
//! port and join it cleanly.

use dataset::exact::Neighbor;
use dataset::SynthSpec;
use serve::client::{Client, ClientError};
use serve::router::{parse_topology, Router, RouterConfig};
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn bits(ns: &[Neighbor]) -> Vec<(u32, u64)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

/// A spawned `annd` child; SIGKILLed (if still alive) and reaped on drop.
struct Shard {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

impl Shard {
    /// The real-process kill the partial-failure tests are about.
    fn kill(&mut self) {
        self.child.kill().expect("kill shard");
        self.child.wait().expect("reap shard");
    }
}

/// Spawns `annd --snapshot-dir <dir> --addr <addr>` and waits for its
/// "listening on" banner to learn the bound (possibly ephemeral) port.
fn spawn_annd(dir: &Path, addr: &str) -> Shard {
    std::fs::create_dir_all(dir).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_annd"))
        .args(["--snapshot-dir", dir.to_str().unwrap(), "--addr", addr, "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn annd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut bound = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.trim().strip_prefix("annd: listening on ") {
            bound = Some(rest.split_whitespace().next().unwrap().to_string());
            break;
        }
        line.clear();
    }
    // Keep draining the child's stdout so it can never block on a full
    // pipe, however chatty it gets.
    std::thread::spawn(move || {
        for _ in reader.lines() {}
    });
    Shard {
        child,
        addr: bound.expect("annd printed its listening banner"),
        dir: dir.to_path_buf(),
    }
}

/// Binds an in-process router over `topology` and runs it on a thread.
fn spawn_router(
    topology: &str,
    require_all: bool,
    dir: Option<&Path>,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let config = RouterConfig {
        shards: parse_topology(topology).expect("topology"),
        require_all,
        dir: dir.map(Path::to_path_buf),
        shard_timeout: Duration::from_millis(1500),
        recall_floor: 0.0,
        p99_bound_micros: 0,
    };
    let router = Router::bind(config, "127.0.0.1:0", 3).expect("bind router");
    let addr = router.local_addr().unwrap();
    let handle = std::thread::spawn(move || router.run().expect("router loop"));
    (addr, handle)
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("annd-router-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An address that refuses connections: bind an ephemeral port, then
/// drop the listener so nothing is listening there anymore.
fn dead_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    l.local_addr().unwrap().to_string()
}

/// The tentpole acceptance test: a 3-shard cluster answers QUERY,
/// SEARCH (plain, filtered, deny-listed, range-limited), and BATCH
/// byte-identically — ids and raw f64 distance bits — to one
/// single-node daemon over the union of rows, including after INSERT,
/// DELETE, and FLUSH issued *through the router*.
#[test]
fn three_shard_search_is_byte_identical_to_single_node_union() {
    let root = tmp("ident");
    let data = SynthSpec::new("cluster", 240, 12).with_clusters(8).generate(33);
    let fvecs = root.join("cluster.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    // The oracle: one single-node daemon over the whole dataset.
    let oracle = spawn_annd(&root.join("oracle"), "127.0.0.1:0");
    let mut oc = Client::connect(oracle.addr.as_str()).unwrap();
    oc.build_live("u", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("oracle build");

    // The cluster: three shards plus a router with a persisted catalog.
    let shards: Vec<Shard> =
        (0..3).map(|i| spawn_annd(&root.join(format!("s{i}")), "127.0.0.1:0")).collect();
    let topology =
        shards.iter().map(|s| s.addr.clone()).collect::<Vec<_>>().join(",");
    let (raddr, rhandle) = spawn_router(&topology, false, Some(&root.join("router")));
    let mut rc = Client::connect(raddr).unwrap();
    rc.ping().unwrap();
    let (info, _, _) = rc
        .build_live("u", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("routed build");
    assert_eq!(info.len, 240, "routed BUILD aggregates the full row count");

    // Every shard got its residue class under the strided id layout.
    for (i, shard) in shards.iter().enumerate() {
        let mut sc = Client::connect(shard.addr.as_str()).unwrap();
        let infos = sc.list().unwrap();
        assert_eq!(infos.len(), 1);
        assert_eq!(infos[0].len, 80, "shard {i} holds a third of the rows");
        let hit = &sc.query("u", 1, 240, 0, data.get(i)).unwrap()[0];
        assert_eq!(hit.id as usize % 3, i, "shard {i} serves ids ≡ {i} (mod 3)");
    }

    let queries = data.sample_queries(12, 7);
    let compare = |rc: &mut Client, oc: &mut Client, tag: &str| {
        let shapes: Vec<ann::SearchRequest> = vec![
            ann::SearchRequest::top_k(7).budget(240),
            ann::SearchRequest::top_k(1).budget(240),
            ann::SearchRequest::top_k(200).budget(240),
            ann::SearchRequest::top_k(7)
                .budget(240)
                .filter(ann::IdFilter::allow((0..60).collect::<Vec<u32>>())),
            ann::SearchRequest::top_k(7)
                .budget(240)
                .filter(ann::IdFilter::deny(vec![0, 1, 2, 3, 4, 5, 50, 51])),
            ann::SearchRequest::top_k(12).budget(240).max_dist(1.5),
        ];
        for q in queries.iter() {
            for (si, req) in shapes.iter().enumerate() {
                let routed = rc.search("u", q, req).expect("routed search");
                let single = oc.search("u", q, req).expect("oracle search");
                assert_eq!(
                    bits(&routed.0),
                    bits(&single.0),
                    "{tag}: shape {si} must merge byte-identically"
                );
            }
            let routed = rc.query("u", 5, 240, 0, q).unwrap();
            let single = oc.query("u", 5, 240, 0, q).unwrap();
            assert_eq!(bits(&routed), bits(&single), "{tag}: QUERY parity");
        }
        let routed = rc.query_batch("u", 6, 240, 0, &queries).unwrap();
        let single = oc.query_batch("u", 6, 240, 0, &queries).unwrap();
        for (q, (r, s)) in routed.iter().zip(&single).enumerate() {
            assert_eq!(bits(r), bits(s), "{tag}: BATCH query {q} parity");
        }
    };
    compare(&mut rc, &mut oc, "after build");

    // Bad requests answer with the same message a single node gives.
    let e_routed = rc.query("u", 0, 64, 0, queries.get(0)).unwrap_err().to_string();
    let e_single = oc.query("u", 0, 64, 0, queries.get(0)).unwrap_err().to_string();
    assert_eq!(e_routed, e_single, "k=0 rejection parity");
    let e_routed = rc.query("u", 9999, 64, 0, queries.get(0)).unwrap_err().to_string();
    let e_single = oc.query("u", 9999, 64, 0, queries.get(0)).unwrap_err().to_string();
    assert_eq!(e_routed, e_single, "k>rows rejection parity");

    // Mutate through the router; mirror the same mutations on the
    // oracle. Auto-ids continue from the routed catalog's high-water
    // mark, identical to the single node's counter.
    let extra = SynthSpec::new("extra", 10, 12).with_clusters(2).generate(44);
    let routed_ids = rc.insert("u", &extra, None).expect("routed insert");
    let oracle_ids = oc.insert("u", &extra, None).expect("oracle insert");
    assert_eq!(routed_ids, (240..250).collect::<Vec<u32>>());
    assert_eq!(routed_ids, oracle_ids, "auto-id assignment parity");
    assert_eq!(rc.delete("u", &[0, 1, 2, 245]).unwrap(), 4);
    assert_eq!(oc.delete("u", &[0, 1, 2, 245]).unwrap(), 4);
    compare(&mut rc, &mut oc, "after insert+delete");

    let (paths, segments, live_rows) = rc.flush("u").expect("routed flush");
    oc.flush("u").expect("oracle flush");
    assert_eq!(live_rows, 240 + 10 - 4, "FLUSH aggregates live rows across shards");
    assert!(segments >= 3, "every shard contributes at least one segment");
    assert_eq!(paths.split("; ").count(), 3, "one snapshot path per shard");
    compare(&mut rc, &mut oc, "after flush");

    // LIST aggregates; STATS carries the aggregate plus per-shard rows.
    let infos = rc.list().unwrap();
    assert_eq!(infos.len(), 1);
    assert_eq!(infos[0].len, 246);
    assert_eq!(infos[0].load_mode, "router");
    let stats = rc.stats().unwrap();
    let agg = stats.iter().find(|s| s.name == "u").expect("aggregate entry");
    assert!(agg.queries > 0);
    assert!(agg.p99_micros >= agg.p50_micros, "quantiles come from the summed histogram");
    for i in 0..3 {
        assert!(
            stats.iter().any(|s| s.name == format!("u@shard{i}")),
            "per-shard breakdown for shard {i}"
        );
    }

    // One connection loop serves both modes: a malformed frame gets the
    // same error text, and the same close, from the router as from a
    // shard.
    let malformed = |addr: &str| {
        use serve::protocol::{read_frame, write_frame, Response};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, &[0xEE, 1, 2, 3]).unwrap();
        let reply = Response::decode(&read_frame(&mut raw).unwrap().expect("a reply")).unwrap();
        assert!(read_frame(&mut raw).unwrap().is_none(), "{addr} closes after a bad frame");
        reply
    };
    let from_router = malformed(&raddr.to_string());
    assert!(
        matches!(&from_router, serve::protocol::Response::Error(m) if m.starts_with("bad request: ")),
        "{from_router:?}"
    );
    assert_eq!(from_router, malformed(&shards[0].addr));

    // A restarted router (same --router-dir) routes identically.
    let mut sc = Client::connect(raddr).unwrap();
    sc.shutdown().unwrap();
    rhandle.join().unwrap();
    let (raddr2, rhandle2) = spawn_router(&topology, false, Some(&root.join("router")));
    let mut rc = Client::connect(raddr2).unwrap();
    compare(&mut rc, &mut oc, "after router restart");
    let routed_ids = rc.insert("u", &extra, None).expect("insert after restart");
    assert_eq!(
        routed_ids,
        (250..260).collect::<Vec<u32>>(),
        "the persisted catalog resumes auto-ids above everything ever assigned"
    );

    rc.shutdown().unwrap();
    rhandle2.join().unwrap();
    drop(shards);
    drop(oracle);
    std::fs::remove_dir_all(&root).ok();
}

/// SIGKILL one shard mid-traffic: searches keep answering with a typed
/// partial response naming exactly the dead shard, the surviving hits
/// are byte-identical to what the surviving shard serves, writes to the
/// dead residue class fail closed while writes confined to live shards
/// still apply, and restarting the shard on the same port recovers the
/// cluster without touching the router.
#[test]
fn killing_a_shard_mid_traffic_degrades_to_typed_partial_results() {
    let root = tmp("partial");
    let data = SynthSpec::new("pk", 120, 10).with_clusters(6).generate(9);
    let fvecs = root.join("pk.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let mut shards: Vec<Shard> =
        (0..2).map(|i| spawn_annd(&root.join(format!("s{i}")), "127.0.0.1:0")).collect();
    let topology = format!("{},{}", shards[0].addr, shards[1].addr);
    let (raddr, rhandle) = spawn_router(&topology, false, Some(&root.join("router")));
    let mut rc = Client::connect(raddr).unwrap();
    rc.build_live("pk", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("routed build");

    let q = data.get(3).to_vec();
    let req = ann::SearchRequest::top_k(8).budget(120);
    let full = rc.search("pk", &q, &req).expect("healthy search").0;

    // Keep traffic flowing, kill shard 1 partway through. Every request
    // must answer (no hang, no transport error); once the kill lands,
    // answers must be typed partials naming the dead shard.
    let victim = shards[1].addr.clone();
    let mut partials = 0;
    for i in 0..10 {
        if i == 3 {
            shards[1].kill();
        }
        let out = rc.search_outcome("pk", &q, &req).expect("search during failure");
        if out.missing_shards.is_empty() {
            assert_eq!(bits(&out.hits), bits(&full), "complete answers stay exact");
        } else {
            partials += 1;
            assert_eq!(
                out.missing_shards,
                vec![format!("shard1@{victim}")],
                "the partial names exactly the killed shard"
            );
            // Surviving hits == what shard 0 itself serves (k clamped
            // to its row count, here k < rows so just k).
            let mut s0 = Client::connect(shards[0].addr.as_str()).unwrap();
            let local = s0.search("pk", &q, &req).unwrap().0;
            assert_eq!(bits(&out.hits), bits(&local), "survivor hits are exact");
        }
    }
    assert!(partials >= 6, "the kill degraded the later searches ({partials}/7)");

    // The strict single-answer API surfaces the same degradation as a
    // typed ClientError::Partial, not a decode failure.
    match rc.search("pk", &q, &req) {
        Err(ClientError::Partial(missing)) => {
            assert_eq!(missing, vec![format!("shard1@{victim}")])
        }
        other => panic!("expected ClientError::Partial, got {other:?}"),
    }

    // Writes touching the dead residue class fail closed and say so;
    // writes confined to the live shard still apply (and are undone
    // here to keep the dataset unchanged for the recovery check).
    let row = SynthSpec::new("row", 1, 10).generate(77);
    let err = rc.insert("pk", &row, Some(&[1001])).unwrap_err().to_string();
    assert!(err.contains("shard1@") && err.contains("fail closed"), "got: {err}");
    assert_eq!(rc.insert("pk", &row, Some(&[1000])).unwrap(), vec![1000]);
    assert_eq!(rc.delete("pk", &[1000]).unwrap(), 1);

    // Restart the dead shard on its old port, over its surviving dir:
    // the WAL replays, and the very next routed search is whole again.
    shards[1] = spawn_annd(&root.join("s1").clone(), &victim);
    let recovered = rc.search("pk", &q, &req).expect("post-recovery search");
    assert_eq!(bits(&recovered.0), bits(&full), "recovery restores exact answers");

    rc.shutdown().unwrap();
    rhandle.join().unwrap();
    drop(shards);
    std::fs::remove_dir_all(&root).ok();
}

/// `--require-all` turns the same degradation into a typed error with
/// the stable `unavailable:` prefix — on SEARCH, QUERY, and STATS.
#[test]
fn require_all_fails_closed_with_a_typed_error() {
    let root = tmp("reqall");
    let data = SynthSpec::new("ra", 60, 8).with_clusters(4).generate(5);
    let fvecs = root.join("ra.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let shard = spawn_annd(&root.join("s0"), "127.0.0.1:0");
    let mut sc = Client::connect(shard.addr.as_str()).unwrap();
    sc.build_live("ra", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("direct build");
    let gone = dead_addr();
    let topology = format!("{},{}", shard.addr, gone);

    let (strict, strict_handle) = spawn_router(&topology, true, None);
    let mut rc = Client::connect(strict).unwrap();
    let q = data.get(0).to_vec();
    let err = rc
        .search("ra", &q, &ann::SearchRequest::top_k(3).budget(60))
        .unwrap_err()
        .to_string();
    assert!(err.contains("unavailable:"), "typed unavailable error, got: {err}");
    assert!(err.contains(&format!("shard1@{gone}")), "names the dead shard, got: {err}");
    let err = rc.stats().unwrap_err().to_string();
    assert!(err.contains("unavailable:"), "STATS fails closed too, got: {err}");
    rc.shutdown().unwrap();
    strict_handle.join().unwrap();

    // The same topology without --require-all degrades instead.
    let (lax, lax_handle) = spawn_router(&topology, false, None);
    let mut rc = Client::connect(lax).unwrap();
    let out = rc
        .search_outcome("ra", &q, &ann::SearchRequest::top_k(3).budget(60))
        .expect("degraded search");
    assert_eq!(out.missing_shards, vec![format!("shard1@{gone}")]);
    assert!(!out.hits.is_empty(), "the surviving shard still answers");
    match rc.query("ra", 3, 60, 0, &q) {
        Err(ClientError::Partial(missing)) => {
            assert_eq!(missing, vec![format!("shard1@{gone}")])
        }
        other => panic!("QUERY must surface the typed partial, got {other:?}"),
    }
    rc.shutdown().unwrap();
    lax_handle.join().unwrap();
    drop(shard);
    std::fs::remove_dir_all(&root).ok();
}

/// Replicas are read-only round-robin targets: with both endpoints up,
/// read traffic lands on primary *and* replica; with the primary
/// SIGKILLed, reads fail over to the replica with no degradation while
/// writes (primary-only by design) fail closed.
#[test]
fn replica_reads_round_robin_and_fail_over() {
    let root = tmp("replica");
    let data = SynthSpec::new("rep", 90, 8).with_clusters(5).generate(21);
    let fvecs = root.join("rep.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    // Build + flush on the primary, then clone its dir as the replica —
    // the documented way a replica is provisioned.
    let mut primary = spawn_annd(&root.join("prim"), "127.0.0.1:0");
    let mut pc = Client::connect(primary.addr.as_str()).unwrap();
    pc.build_live("rep", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("primary build");
    pc.flush("rep").expect("primary flush");
    let replica_dir = root.join("repl");
    std::fs::create_dir_all(&replica_dir).unwrap();
    for entry in std::fs::read_dir(&primary.dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), replica_dir.join(entry.file_name())).unwrap();
    }
    let replica = spawn_annd(&replica_dir, "127.0.0.1:0");

    let topology = format!("{},r0@{}", primary.addr, replica.addr);
    let (raddr, rhandle) = spawn_router(&topology, false, None);
    let mut rc = Client::connect(raddr).unwrap();
    let q = data.get(7).to_vec();
    let req = ann::SearchRequest::top_k(5).budget(90);
    let full = rc.search("rep", &q, &req).expect("search").0;
    for _ in 0..5 {
        let again = rc.search("rep", &q, &req).expect("search").0;
        assert_eq!(bits(&again), bits(&full), "replica answers are byte-identical");
    }

    // Round-robin: both endpoints saw read traffic.
    let mut rp = Client::connect(replica.addr.as_str()).unwrap();
    let primary_queries = pc.stats().unwrap().iter().map(|s| s.queries).sum::<u64>();
    let replica_queries = rp.stats().unwrap().iter().map(|s| s.queries).sum::<u64>();
    assert!(primary_queries >= 1, "primary took part of the read traffic");
    assert!(replica_queries >= 1, "replica took part of the read traffic");

    // Primary dies: reads fail over to the replica, *complete* (no
    // missing shards — the shard is still served); writes fail closed.
    drop(pc);
    primary.kill();
    for _ in 0..3 {
        let out = rc.search_outcome("rep", &q, &req).expect("failover search");
        assert!(out.missing_shards.is_empty(), "replica keeps the shard whole");
        assert_eq!(bits(&out.hits), bits(&full));
    }
    let row = SynthSpec::new("row", 1, 8).generate(2);
    let err = rc.insert("rep", &row, Some(&[500])).unwrap_err().to_string();
    assert!(err.contains("fail closed"), "writes need the primary, got: {err}");

    rc.shutdown().unwrap();
    rhandle.join().unwrap();
    drop(replica);
    std::fs::remove_dir_all(&root).ok();
}

/// Observability across the scatter-gather: traced requests answer
/// byte-identically to untraced ones, STATS carries a distinct `router`
/// row for the hop the shards cannot see, and METRICS exposes the
/// per-shard health counters — including the degraded-read counter
/// after a real `kill -9`.
#[test]
fn routed_requests_carry_traces_and_expose_router_metrics() {
    let root = tmp("obs");
    let data = SynthSpec::new("obs", 140, 10).with_clusters(6).generate(51);
    let fvecs = root.join("obs.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let mut shards: Vec<Shard> =
        (0..2).map(|i| spawn_annd(&root.join(format!("s{i}")), "127.0.0.1:0")).collect();
    let topology = format!("{},{}", shards[0].addr, shards[1].addr);
    let (raddr, rhandle) = spawn_router(&topology, false, Some(&root.join("router")));
    let mut rc = Client::connect(raddr).unwrap();
    rc.build_live("obs", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 64, 4)
        .expect("routed build");

    // A traced SEARCH answers exactly like an untraced one; the trace
    // context rides the request frame and fans out as child spans.
    let q = data.get(5).to_vec();
    let req = ann::SearchRequest::top_k(6).budget(100);
    let plain = rc.search("obs", &q, &req).expect("untraced search").0;
    rc.trace = Some(obs::TraceContext::mint());
    for _ in 0..3 {
        let traced = rc.search("obs", &q, &req).expect("traced search").0;
        assert_eq!(bits(&traced), bits(&plain), "tracing never changes answers");
    }
    rc.trace = None;

    // STATS: the router's own hop shows up as a distinct `router` row
    // next to the per-shard breakdowns, counting every routed read.
    let entries = rc.stats().expect("routed stats");
    let router_row = entries
        .iter()
        .find(|e| e.name == "router" && e.load_mode == "router")
        .expect("STATS carries the router's own row");
    assert!(router_row.queries >= 4, "4 routed searches ran, row says {}", router_row.queries);
    assert!(router_row.total_micros > 0, "the router row has its own latency sum");
    assert!(
        entries.iter().any(|e| e.name == "obs@shard0"),
        "per-shard breakdowns still present"
    );

    // METRICS on the router: its own process series, with one health
    // counter set per shard label.
    let text = rc.metrics().expect("router METRICS");
    for needle in [
        "# TYPE ann_router_shard_attempts_total counter",
        "ann_router_shard_attempts_total{shard=\"shard0\"}",
        "ann_router_shard_attempts_total{shard=\"shard1\"}",
        "ann_router_degraded_reads_total",
        "ann_queries_total{index=\"router\"}",
        "# TYPE ann_search_latency_micros histogram",
    ] {
        assert!(text.contains(needle), "router metrics missing {needle:?}:\n{text}");
    }
    let degraded_before = prom_value(&text, "ann_router_degraded_reads_total");

    // kill -9 one shard: the next reads degrade, and the degraded-read
    // and per-shard failure counters move.
    shards[1].kill();
    let out = rc.search_outcome("obs", &q, &req).expect("degraded search");
    assert!(!out.missing_shards.is_empty(), "shard1 is dead, the read must degrade");
    let text = rc.metrics().expect("router METRICS after kill");
    let degraded_after = prom_value(&text, "ann_router_degraded_reads_total");
    assert!(
        degraded_after > degraded_before,
        "degraded reads must be counted ({degraded_before} -> {degraded_after})"
    );
    let failures = prom_value(&text, "ann_router_shard_failures_total{shard=\"shard1\"}");
    assert!(failures > 0.0, "the dead shard's failure counter must move");

    rc.shutdown().unwrap();
    rhandle.join().unwrap();
    drop(shards);
    std::fs::remove_dir_all(&root).ok();
}

/// The value of the first sample line starting with `prefix` (0.0 when
/// the series is absent, which only happens before it first moves).
fn prom_value(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(prefix) && !l.starts_with("# "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// PR-10 through the cluster: CALIBRATE fans out to every shard, the
/// routed `target_recall` search forwards the target so each shard
/// plans against its own table, and the merged response reports the
/// binding (most pessimistic) plan. Bad targets answer with the same
/// typed text the single-node server produces, and STATS aggregates
/// the planner funnel and calibration state across shards.
#[test]
fn routed_target_recall_plans_per_shard_and_aggregates_the_funnel() {
    use ann::SearchRequest;

    let root = tmp("plan");
    let data = SynthSpec::new("plan", 300, 12).with_clusters(8).generate(44);
    let fvecs = root.join("plan.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let shards: Vec<Shard> =
        (0..2).map(|i| spawn_annd(&root.join(format!("s{i}")), "127.0.0.1:0")).collect();
    let topology = shards.iter().map(|s| s.addr.clone()).collect::<Vec<_>>().join(",");
    let (raddr, rhandle) = spawn_router(&topology, false, Some(&root.join("router")));
    let mut rc = Client::connect(raddr).unwrap();
    rc.build_live("u", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 1000, 4)
        .expect("routed build");

    // Uncalibrated cluster: the shard's typed error comes through.
    let planned = SearchRequest::top_k(5).target_recall(0.9);
    match rc.search("u", data.get(0), &planned) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("not calibrated"), "got {msg}")
        }
        other => panic!("uncalibrated routed target must fail, got {other:?}"),
    }
    // Malformed targets are rejected at the router edge with the
    // single-node error text.
    match rc.search("u", data.get(0), &SearchRequest::top_k(5).target_recall(2.0)) {
        Err(ClientError::Server(msg)) => {
            assert_eq!(msg, "index \"u\": target_recall must be in (0, 1], got 2")
        }
        other => panic!("bad routed target must fail, got {other:?}"),
    }
    match rc.search("u", data.get(0), &SearchRequest::top_k(5).budget(32).target_recall(0.9)) {
        Err(ClientError::Server(msg)) => {
            assert_eq!(
                msg,
                "index \"u\": target_recall is mutually exclusive with explicit budget/probes"
            )
        }
        other => panic!("target+knobs through the router must fail, got {other:?}"),
    }

    // One CALIBRATE against the router calibrates every shard.
    let (points, max_recall, _) = rc.calibrate("u", 16, 5).expect("routed calibrate");
    assert!(points > 0);
    assert!((max_recall - 1.0).abs() < 1e-9, "every shard's saturated corner is 1.0");

    // Planned search through the router merges shard plans.
    let mut planned = SearchRequest::top_k(5).target_recall(0.9);
    planned.fields.stats = true;
    let (hits, stats) = rc.search("u", data.get(0), &planned).expect("routed planned search");
    assert_eq!(hits.len(), 5);
    let plan = stats.expect("stats requested").plan.expect("merged plan reported");
    assert!(plan.predicted_recall >= 0.9, "binding shard still satisfies the target");
    assert!((plan.effective_target - 0.9).abs() < 1e-12);

    // The aggregate row sums the per-shard planner counters and folds
    // calibration state (both shards fresh → fresh).
    let entries = rc.stats().unwrap();
    let agg = entries.iter().find(|e| e.name == "u").expect("aggregate row");
    assert_eq!(agg.planned, 2, "one planned search hit both shards");
    assert_eq!(agg.degraded, 0);
    assert_eq!(agg.cal, "fresh");

    rc.shutdown().unwrap();
    rhandle.join().unwrap();
}
