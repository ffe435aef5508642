//! End-to-end serving test: build → snapshot to disk → load by a real
//! TCP server → query over the wire → results byte-identical to
//! in-process `query_batch` on the originally built index.

use ann::{AnnIndex, SearchParams, SearchRequest};
use dataset::exact::Neighbor;
use dataset::{Metric, SynthSpec};
use lccs_lsh::{LccsLsh, LccsParams, MpLccsLsh, MpParams};
use serve::catalog::Catalog;
use serve::client::{Client, ClientError};
use serve::server::Server;
use serve::snapshot::write_index_snapshot;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn bits(lists: &[Vec<Neighbor>]) -> Vec<Vec<(u32, u64)>> {
    lists
        .iter()
        .map(|ns| ns.iter().map(|n| (n.id, n.dist.to_bits())).collect())
        .collect()
}

struct Fixture {
    dir: PathBuf,
    data: Arc<dataset::Dataset>,
    single: LccsLsh,
    mp: MpLccsLsh,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Builds both LCCS schemes over a clustered synthetic dataset and
/// snapshots them into a fresh temp directory.
fn fixture(tag: &str) -> Fixture {
    let dir = std::env::temp_dir().join(format!("annd-e2e-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = Arc::new(SynthSpec::new("e2e", 800, 24).with_clusters(12).generate(17));
    let params = LccsParams::euclidean(8.0).with_m(16).with_seed(99);
    let single = LccsLsh::build(data.clone(), Metric::Euclidean, &params);
    let mp = MpLccsLsh::build(
        data.clone(),
        Metric::Euclidean,
        &params,
        MpParams { probes: 9, max_alts: 8 },
    );
    let meta = serve::snapshot::SnapMeta::of_build(
        &"lccs:m=16,w=8,seed=99".parse().unwrap(),
        0.5,
        data.len() as u64,
    );
    write_index_snapshot(&dir, "e2e-lccs", &single, &data, Some(meta)).unwrap();
    write_index_snapshot(&dir, "e2e-mp", &mp, &data, None).unwrap();
    Fixture { dir, data, single, mp }
}

/// Starts a server over the fixture's snapshot dir on an ephemeral port.
fn start_server(fx: &Fixture, workers: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let catalog = Catalog::load_dir(&fx.dir).expect("load snapshot dir");
    assert_eq!(catalog.len(), 2);
    let server = Server::bind(catalog, "127.0.0.1:0", workers).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    (addr, handle)
}

#[test]
fn served_results_are_byte_identical_to_in_process() {
    let fx = fixture("identical");
    let (addr, handle) = start_server(&fx, 2);
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();

    // LIST describes both snapshots, in name order, with their specs.
    let infos = client.list().unwrap();
    let names: Vec<&str> = infos.iter().map(|i| i.name.as_str()).collect();
    assert_eq!(names, ["e2e-lccs", "e2e-mp"]);
    assert_eq!(infos[0].method, "LCCS-LSH");
    assert_eq!(infos[1].method, "MP-LCCS-LSH");
    assert_eq!(infos[0].len, 800);
    assert_eq!(infos[0].dim, 24);
    assert_eq!(infos[0].spec, "lccs:m=16,w=8,seed=99", "meta spec surfaces in LIST");
    assert_eq!(infos[1].spec, "", "meta-less snapshot lists an empty spec");

    let queries = fx.data.sample_queries(37, 5);
    let params = SearchParams::new(10, 64);

    // Batch over TCP == in-process query_batch on the original index.
    let local = AnnIndex::query_batch(&fx.single, &queries, &params);
    let remote = client.query_batch("e2e-lccs", 10, 64, 0, &queries).unwrap();
    assert_eq!(bits(&remote), bits(&local), "LCCS-LSH batch must be byte-identical");

    let local_mp = AnnIndex::query_batch(&fx.mp, &queries, &params);
    let remote_mp = client.query_batch("e2e-mp", 10, 64, 0, &queries).unwrap();
    assert_eq!(bits(&remote_mp), bits(&local_mp), "MP-LCCS-LSH batch must be byte-identical");

    // Single queries too, including a probes override on the MP index.
    for i in [0usize, 11, 36] {
        let remote = client.query("e2e-lccs", 5, 48, 0, queries.get(i)).unwrap();
        let local = AnnIndex::query(&fx.single, queries.get(i), &SearchParams::new(5, 48));
        assert_eq!(bits(&[remote]), bits(&[local]), "query {i}");

        let remote = client.query("e2e-mp", 5, 48, 17, queries.get(i)).unwrap();
        let local =
            AnnIndex::query(&fx.mp, queries.get(i), &SearchRequest::top_k(5).budget(48).probes(17).params());
        assert_eq!(bits(&[remote]), bits(&[local]), "mp query {i} with probe override");
    }

    // STATS saw every request against the right index, and carries specs.
    let stats = client.stats().unwrap();
    let lccs = stats.iter().find(|s| s.name == "e2e-lccs").unwrap();
    assert_eq!(lccs.spec, "lccs:m=16,w=8,seed=99", "spec rides along in STATS");
    assert_eq!(lccs.queries, 3);
    assert_eq!(lccs.batch_requests, 1);
    assert_eq!(lccs.batch_queries, 37);
    let mp = stats.iter().find(|s| s.name == "e2e-mp").unwrap();
    assert_eq!(mp.queries, 3);
    assert_eq!(mp.batch_requests, 1);

    // Graceful shutdown: run() returns and the thread joins.
    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

#[test]
fn bad_requests_get_error_responses_not_disconnects() {
    let fx = fixture("errors");
    let (addr, handle) = start_server(&fx, 1);
    let mut client = Client::connect(addr).unwrap();

    let err = client.query("nope", 5, 32, 0, fx.data.get(0)).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("no such index")), "{err}");

    let err = client.query("e2e-lccs", 5, 32, 0, &[1.0, 2.0]).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("dimension mismatch")), "{err}");

    let err = client.query("e2e-lccs", 0, 32, 0, fx.data.get(0)).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("k must be")), "{err}");

    // A hostile k must be rejected, not allocate a k-sized heap.
    let err = client.query("e2e-lccs", u32::MAX as usize, 32, 0, fx.data.get(0)).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("exceeds")), "{err}");

    // The connection survives all three errors.
    client.ping().unwrap();

    // Stats counted no queries (validation failures are not served queries).
    let stats = client.stats().unwrap();
    assert!(stats.iter().all(|s| s.queries == 0 && s.batch_requests == 0));

    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

#[test]
fn build_over_the_wire_matches_in_process_build_bit_for_bit() {
    // The PR-3 acceptance path: gen an .fvecs dataset, BUILD from a spec
    // string against a live annd, query over the wire, and compare
    // byte-for-byte with an in-process build of the same spec — then
    // check the written .snap carries the spec for `describe`.
    let dir = std::env::temp_dir().join(format!("annd-build-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Server-side dataset file.
    let synth = SynthSpec::new("buildset", 600, 20).with_clusters(10);
    let data = Arc::new(synth.generate(33));
    let fvecs = dir.join("buildset.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    // Empty catalog + snapshot dir: everything arrives via BUILD.
    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 2)
        .expect("bind")
        .with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    let spec_text = "mp-lccs:m=16,w=8,seed=123";
    let (info, build_micros, snapshot_path) = client
        .build("live-mp", spec_text, "euclidean", fvecs.to_str().unwrap(), 0)
        .expect("BUILD");
    assert_eq!(info.name, "live-mp");
    assert_eq!(info.method, "MP-LCCS-LSH");
    assert_eq!(info.spec, spec_text, "catalog serves the originating spec");
    assert_eq!((info.len, info.dim), (600, 20));
    assert!(build_micros > 0);
    assert!(snapshot_path.ends_with("live-mp.snap"), "{snapshot_path}");

    // Same spec built in-process through the registry must answer
    // byte-identically over the wire.
    let spec: ann::IndexSpec = spec_text.parse().unwrap();
    let (local, _) = eval::registry::build_index_persist(
        &spec,
        &eval::registry::BuildCtx { data: &data, metric: dataset::Metric::Euclidean },
    )
    .expect("in-process build");
    let queries = data.sample_queries(23, 7);
    let params = SearchRequest::top_k(10).budget(64).probes(17).params();
    let expected = bits(&local.query_batch(&queries, &params));
    let remote = client.query_batch("live-mp", 10, 64, 17, &queries).unwrap();
    assert_eq!(bits(&remote), expected, "wire answers must be byte-identical");

    // The written snapshot carries the spec and provenance...
    let snap = serve::snapshot::Snapshot::read_from(std::path::Path::new(&snapshot_path))
        .expect("read built snapshot");
    let meta = snap.meta.expect("BUILD attaches meta");
    assert_eq!(meta.spec, spec_text);
    assert_eq!(meta.seed, 123);
    assert_eq!(meta.w, 8.0);
    assert_eq!(meta.source_rows, 600);

    // ...and a restarted server (fresh catalog off the same dir) serves
    // the built index with identical answers.
    let reloaded = Catalog::load_dir(&dir).expect("reload snapshot dir");
    assert_eq!(reloaded.len(), 1);
    let served = reloaded.get("live-mp").unwrap();
    assert_eq!(served.spec, spec_text);
    let serve::catalog::Backend::Static { index: reloaded_index, .. } = &served.backend else {
        panic!("BUILD without --live restores a static entry");
    };
    assert_eq!(bits(&reloaded_index.query_batch(&queries, &params)), expected);

    // BUILD onto an existing name replaces the entry (new seed, new spec).
    let (info2, _, _) = client
        .build("live-mp", "mp-lccs:m=16,w=8,seed=124", "euclidean", fvecs.to_str().unwrap(), 0)
        .expect("replacing BUILD");
    assert_eq!(info2.spec, "mp-lccs:m=16,w=8,seed=124");
    let infos = client.list().unwrap();
    assert_eq!(infos.len(), 1, "install replaced, not duplicated");

    // Names are file names under the snapshot dir: traversal is rejected.
    for evil in ["../evil", "a/b", "..", ".hidden", "a\\b"] {
        let err = client
            .build(evil, "lccs:m=8", "euclidean", fvecs.to_str().unwrap(), 0)
            .unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(m) if m.contains("bad catalog name")),
            "{evil:?}: {err}"
        );
    }
    assert!(!dir.join("../evil.snap").exists());

    // Replacing with a non-persisting scheme must also drop the stale
    // snapshot, or a restart would resurrect the old index under the name.
    let (info3, _, snap3) = client
        .build("live-mp", "e2lsh:k=2,l=4,w=8,seed=5", "euclidean", fvecs.to_str().unwrap(), 0)
        .expect("non-persisting replace");
    assert_eq!(info3.method, "E2LSH");
    assert!(snap3.is_empty(), "e2lsh writes no snapshot");
    assert!(!dir.join("live-mp.snap").exists(), "stale snapshot removed");
    assert!(Catalog::load_dir(&dir).unwrap().get("live-mp").is_none());

    // Build errors come back as protocol errors, not disconnects.
    let err = client
        .build("bad", "hnsw:m=16", "euclidean", fvecs.to_str().unwrap(), 0)
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("unknown scheme")), "{err}");
    // Grammar-valid specs that a builder's own invariants reject (LCCS
    // wants m >= 2) must error too — a panic here would kill the worker
    // and drop the connection instead.
    let err = client
        .build("bad", "lccs:m=1", "euclidean", fvecs.to_str().unwrap(), 0)
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("rejected")), "{err}");
    // The same worker (pool of 2, same connection) still answers.
    client.ping().unwrap();
    let err = client
        .build("bad", "lccs:m=16", "manhattan", fvecs.to_str().unwrap(), 0)
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("unknown metric")), "{err}");
    let err = client.build("bad", "lccs:m=16", "euclidean", "/no/such/file.fvecs", 0).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("loading dataset")), "{err}");
    client.ping().unwrap();

    client.shutdown().unwrap();
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_index_mutates_over_the_wire_and_survives_a_restart() {
    // The PR-4 acceptance path: BUILD --live → INSERT (auto + explicit
    // ids, read-your-writes) → DELETE (memtable + sealed rows) → FLUSH →
    // kill the daemon → restart from the flushed .snap → answers are
    // byte-identical to the pre-restart ones.
    let dir = std::env::temp_dir().join(format!("annd-live-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let data = Arc::new(SynthSpec::new("liveset", 300, 16).with_clusters(8).generate(51));
    let fvecs = dir.join("liveset.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 2)
        .expect("bind")
        .with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    // BUILD --live: the dataset seals into segment 0, small thresholds so
    // the wire traffic below exercises seal + compaction.
    let spec_text = "lccs:m=8,w=8,seed=77";
    let (info, _, snap_path) = client
        .build_live("lv", spec_text, "euclidean", fvecs.to_str().unwrap(), 0, 64, 3)
        .expect("BUILD --live");
    assert_eq!(info.method, "Live");
    assert_eq!(info.spec, spec_text);
    assert_eq!((info.len, info.dim), (300, 16));
    assert!(snap_path.ends_with("lv.snap"), "{snap_path}");

    // INSERT with auto ids continues the id space; read-your-writes on
    // the same connection: the fresh row is immediately findable.
    let extra = SynthSpec::new("extra", 100, 16).with_clusters(4).generate(52);
    let ids = client.insert("lv", &extra, None).expect("INSERT");
    assert_eq!(ids, (300..400).collect::<Vec<u32>>());
    let hit = client.query("lv", 1, 64, 0, extra.get(0)).unwrap();
    assert_eq!(hit[0].id, 300, "read-your-writes");
    assert_eq!(hit[0].dist, 0.0);

    // Explicit ids; re-using a live one is a clean error.
    let one = SynthSpec::new("one", 1, 16).generate(53);
    assert_eq!(client.insert("lv", &one, Some(&[5000])).unwrap(), vec![5000]);
    let err = client.insert("lv", &one, Some(&[5000])).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("already live")), "{err}");

    // DELETE hits both sealed rows (id 3) and memtable rows; absent ids
    // are counted out, not errors.
    let removed = client.delete("lv", &[3, 399, 999_999]).expect("DELETE");
    assert_eq!(removed, 2);
    let hits = client.query("lv", 5, 64, 0, data.get(3)).unwrap();
    assert!(hits.iter().all(|n| n.id != 3), "deleted sealed row filtered");

    // Writes are observable in STATS.
    let stats = client.stats().unwrap();
    let lv = stats.iter().find(|s| s.name == "lv").unwrap();
    assert_eq!(lv.inserts, 101, "insert counter counts rows");
    assert_eq!(lv.deletes, 2);
    assert_eq!(lv.flushes, 0);

    // Writes against a static entry are clean errors.
    client
        .build("frozen", "lccs:m=8,w=8,seed=1", "euclidean", fvecs.to_str().unwrap(), 0)
        .expect("static BUILD");
    let err = client.insert("frozen", &one, None).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("read-only")), "{err}");
    let err = client.delete("frozen", &[1]).unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("read-only")), "{err}");
    let err = client.flush("frozen").unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("read-only")), "{err}");

    // FLUSH: seals the memtable and persists the live structure.
    let (flush_path, segments, live_rows) = client.flush("lv").expect("FLUSH");
    assert!(flush_path.ends_with("lv.snap"), "{flush_path}");
    assert!((1..=3).contains(&segments), "compaction caps segments, got {segments}");
    assert_eq!(live_rows, 399);
    let stats = client.stats().unwrap();
    assert_eq!(stats.iter().find(|s| s.name == "lv").unwrap().flushes, 1);

    // Record the answers the live daemon serves right now...
    let queries = data.sample_queries(20, 9);
    let params_k = 10;
    let before = client.query_batch("lv", params_k, 64, 0, &queries).unwrap();
    let before_single = client.query("lv", 1, 64, 0, extra.get(7)).unwrap();

    // ...kill the daemon, restart over the same snapshot dir...
    client.shutdown().unwrap();
    handle.join().expect("server thread");
    let catalog = Catalog::load_dir(&dir).expect("reload");
    let served = catalog.get("lv").expect("flushed live index survives restart");
    assert_eq!(served.method, "Live");
    assert_eq!(served.spec, spec_text);
    let server = Server::bind(catalog, "127.0.0.1:0", 2).expect("rebind").with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    // ...and the reloaded index answers byte-identically.
    let after = client.query_batch("lv", params_k, 64, 0, &queries).unwrap();
    assert_eq!(bits(&after), bits(&before), "restart must not change answers");
    let after_single = client.query("lv", 1, 64, 0, extra.get(7)).unwrap();
    assert_eq!(bits(&[after_single]), bits(&[before_single]));

    // The restarted index is still mutable, ids keep ascending past
    // everything ever assigned (5000 steered the counter).
    let ids = client.insert("lv", &one, None).unwrap();
    assert_eq!(ids, vec![5001]);
    assert_eq!(client.delete("lv", &[5001]).unwrap(), 1);

    client.shutdown().unwrap();
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}

/// The PR-7 tentpole acceptance path: acknowledged INSERT/DELETE with
/// **no FLUSH**, then the daemon dies (the server goes down with the
/// memtable unpersisted — exactly what a `kill -9` leaves behind; the
/// smoke script does it with a real SIGKILL on a real process). Restart
/// replays `<name>.wal` over the last snapshot and must serve every
/// acknowledged row, byte-identically to the pre-crash answers. A torn
/// WAL tail (crash mid-append) is discarded, not fatal.
#[test]
fn acknowledged_writes_survive_a_crash_and_replay_from_the_wal() {
    let dir = std::env::temp_dir().join(format!("annd-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let data = Arc::new(SynthSpec::new("crashset", 200, 12).with_clusters(6).generate(61));
    let fvecs = dir.join("crashset.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 2)
        .expect("bind")
        .with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    // Two live entries cover both recovery regimes:
    //  - "wal-mem": big threshold, every post-BUILD write stays in the
    //    memtable — replay rebuilds a pure memtable tail.
    //  - "wal-seal": tiny threshold, writes cross it repeatedly — replay
    //    must reproduce seals and compactions too (exact spec, so the
    //    answers are insensitive to how far the background sealer got
    //    before the crash).
    client
        .build_live("wal-mem", "lccs:m=8,w=8,seed=21", "euclidean", fvecs.to_str().unwrap(), 0, 1000, 4)
        .expect("BUILD --live wal-mem");
    client
        .build_live("wal-seal", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 16, 2)
        .expect("BUILD --live wal-seal");

    // Acknowledged writes, never flushed.
    let extra = SynthSpec::new("extra", 40, 12).with_clusters(3).generate(62);
    let mem_ids = client.insert("wal-mem", &extra, None).expect("INSERT wal-mem");
    assert_eq!(mem_ids, (200..240).collect::<Vec<u32>>());
    assert_eq!(client.delete("wal-mem", &[3, 201]).expect("DELETE"), 2);
    for chunk in 0..4 {
        let rows = SynthSpec::new("seal", 10, 12).generate(70 + chunk);
        client.insert("wal-seal", &rows, None).expect("INSERT wal-seal");
    }
    assert_eq!(client.delete("wal-seal", &[5, 210, 999_999]).expect("DELETE"), 2);

    // Both logs exist and are non-empty (header + records).
    for name in ["wal-mem", "wal-seal"] {
        let wal = dir.join(format!("{name}.wal"));
        assert!(wal.exists(), "{name} has a WAL");
        assert!(std::fs::metadata(&wal).unwrap().len() > 16, "{name} WAL has records");
    }

    // Answers the daemon acknowledged and serves right now...
    let queries = data.sample_queries(15, 5);
    let before_mem = client.query_batch("wal-mem", 8, 64, 0, &queries).unwrap();
    let before_seal = client.query_batch("wal-seal", 8, 64, 0, &queries).unwrap();
    let before_fresh = client.query("wal-mem", 1, 64, 0, extra.get(7)).unwrap();
    assert_eq!(before_fresh[0].id, 207, "acked row is served pre-crash");
    assert_eq!(before_fresh[0].dist, 0.0);

    // ...the daemon dies without flushing anything...
    client.shutdown().unwrap();
    handle.join().expect("server thread");

    // ...and a restart replays the WALs: every acknowledged write is
    // still there, answers byte-identical.
    let catalog = Catalog::load_dir(&dir).expect("reload with WAL replay");
    let server = Server::bind(catalog, "127.0.0.1:0", 2).expect("rebind").with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    let after_mem = client.query_batch("wal-mem", 8, 64, 0, &queries).unwrap();
    assert_eq!(bits(&after_mem), bits(&before_mem), "memtable-tail replay is byte-identical");
    let after_seal = client.query_batch("wal-seal", 8, 64, 0, &queries).unwrap();
    assert_eq!(bits(&after_seal), bits(&before_seal), "sealed-path replay is byte-identical");
    let after_fresh = client.query("wal-mem", 1, 64, 0, extra.get(7)).unwrap();
    assert_eq!(bits(&[after_fresh]), bits(&[before_fresh]), "acked row survives the crash");
    let gone = client.query_batch("wal-mem", 8, 64, 0, &queries).unwrap();
    assert!(
        gone.iter().flatten().all(|n| n.id != 3 && n.id != 201),
        "acked deletes survive the crash too"
    );

    client.shutdown().unwrap();
    handle.join().expect("server thread");

    // Torn tail: garbage after the last complete record (what a crash
    // mid-append leaves) is logged + discarded, never fatal, and every
    // complete record still replays.
    use std::io::Write as _;
    let wal = dir.join("wal-seal.wal");
    let clean_len = std::fs::metadata(&wal).unwrap().len();
    let mut f = std::fs::OpenOptions::new().append(true).open(&wal).unwrap();
    f.write_all(&[0xFF; 7]).unwrap();
    drop(f);
    let catalog = Catalog::load_dir(&dir).expect("torn tail must not fail the load");
    let served = catalog.get("wal-seal").expect("entry survives");
    let serve::catalog::Backend::Live(lock) = &served.backend else { panic!("live entry") };
    let live = lock.read().unwrap();
    let p = SearchRequest::top_k(8).budget(64).params();
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            bits(&[AnnIndex::query(&*live, q, &p)]),
            bits(&[before_seal[qi].clone()]),
            "query {qi} after torn-tail recovery"
        );
    }
    // The load physically truncated the junk back off.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), clean_len, "tail truncated");

    std::fs::remove_dir_all(&dir).ok();
}

/// "Not durable ⇒ not acknowledged" starts at BUILD: a live entry whose
/// WAL cannot be created under a configured snapshot directory must not
/// be installed at all — serving it would acknowledge every later
/// INSERT/DELETE without a log record.
#[test]
fn a_live_build_that_cannot_create_its_wal_installs_nothing() {
    let dir = std::env::temp_dir().join(format!("annd-nowal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // A directory squatting on the log's path makes `Wal::create` fail.
    std::fs::create_dir_all(dir.join("nw.wal")).unwrap();

    let data = SynthSpec::new("nowal", 64, 8).with_clusters(4).generate(7);
    let fvecs = dir.join("nowal.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let server =
        Server::bind(Catalog::empty(), "127.0.0.1:0", 1).expect("bind").with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    let err = client
        .build_live("nw", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 16, 4)
        .expect_err("a live BUILD without a WAL must fail");
    assert!(matches!(&err, ClientError::Server(m) if m.contains("WAL")), "{err}");
    assert!(client.list().unwrap().is_empty(), "the entry must not be installed");
    assert!(client.insert("nw", &data, None).is_err(), "so nothing can be written to it");
    assert!(!dir.join("nw.snap").exists(), "and no snapshot was committed for it");

    // With the obstacle gone the same BUILD succeeds and logs its writes.
    std::fs::remove_dir(dir.join("nw.wal")).unwrap();
    client.build_live("nw", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 16, 4).unwrap();
    client.insert("nw", &data, None).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.iter().find(|s| s.name == "nw").unwrap().wal_records, 1);

    client.shutdown().unwrap();
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}

/// PR-7 background-seal acceptance: a writer streams inserts that cross
/// the seal threshold over and over while reader connections query the
/// same entry — every query must be answered (the rebuilds happen off
/// the request path), and STATS must show the background sealer
/// installing builds.
#[test]
fn queries_are_answered_while_background_seals_run() {
    let dir = std::env::temp_dir().join(format!("annd-sealer-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let data = Arc::new(SynthSpec::new("sealset", 128, 16).with_clusters(6).generate(91));
    let fvecs = dir.join("sealset.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 4)
        .expect("bind")
        .with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    client
        .build_live("hot", "lccs:m=8,w=8,seed=13", "euclidean", fvecs.to_str().unwrap(), 0, 64, 2)
        .expect("BUILD --live");

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        // Writer: 24 bursts of 25 rows cross the 64-row threshold many
        // times; every crossing queues a background seal (and its
        // compactions), none of which may block the readers below.
        scope.spawn(|| {
            let mut w = Client::connect(addr).unwrap();
            for burst in 0..24u64 {
                let rows = SynthSpec::new("burst", 25, 16).generate(1000 + burst);
                w.insert("hot", &rows, None).expect("INSERT during seals");
            }
            done.store(true, Ordering::SeqCst);
        });
        // Readers: hammer the entry until the writer finishes; every
        // single query must succeed.
        for r in 0..2 {
            let done = &done;
            let data = Arc::clone(&data);
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let mut answered = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let hits = c
                        .query("hot", 5, 64, 0, data.get((answered % 128) as usize))
                        .expect("query during an in-flight background seal");
                    assert!(!hits.is_empty());
                    answered += 1;
                }
                assert!(answered > 0, "reader {r} observed the ingest window");
            });
        }
    });

    // The background sealer did real work (polling briefly: the last
    // burst's build may still be in flight) and read-your-writes held
    // throughout — all 728 rows are live.
    let mut seals = 0;
    for _ in 0..100 {
        let s = client.stats().unwrap();
        let hot = s.into_iter().find(|s| s.name == "hot").unwrap();
        assert_eq!(hot.inserts, 600, "insert counter counts rows");
        seals = hot.seals;
        if seals > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let info = client.list().unwrap().into_iter().find(|i| i.name == "hot").unwrap();
    assert_eq!(info.len, 128 + 600, "every acked row is served");
    assert!(seals > 0, "background sealer installed at least one build");

    client.shutdown().unwrap();
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_v2_snapshots_without_spec_still_serve() {
    // A PR-2-era container (no META section) loads, serves, and reports
    // an empty/unknown spec everywhere.
    let fx = fixture("backcompat");
    // fixture() writes e2e-mp with meta: None — byte-compatible with the
    // PR-2 writer. Serve it and check the unknown-spec path end to end.
    let (addr, handle) = start_server(&fx, 1);
    let mut client = Client::connect(addr).unwrap();
    let info = client.list().unwrap().into_iter().find(|i| i.name == "e2e-mp").unwrap();
    assert_eq!(info.spec, "", "pre-v2 snapshot serves with an unknown spec");
    let remote = client.query("e2e-mp", 5, 48, 0, fx.data.get(3)).unwrap();
    let local = AnnIndex::query(&fx.mp, fx.data.get(3), &SearchParams::new(5, 48));
    assert_eq!(bits(&[remote]), bits(&[local]));
    client.shutdown().unwrap();
    handle.join().expect("server thread");

    // And `describe`'s decode path agrees: meta is None.
    let snap =
        serve::snapshot::Snapshot::read_from(&fx.dir.join("e2e-mp.snap")).expect("read");
    assert!(snap.meta.is_none());
}

#[test]
fn concurrent_connections_share_the_catalog() {
    let fx = fixture("concurrent");
    let (addr, handle) = start_server(&fx, 4);

    let queries = fx.data.sample_queries(16, 9);
    let expected = bits(&AnnIndex::query_batch(&fx.single, &queries, &SearchParams::new(5, 32)));
    let expected = Arc::new(expected);

    std::thread::scope(|scope| {
        for _ in 0..4 {
            let expected = expected.clone();
            let queries = &queries;
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let got = client.query_batch("e2e-lccs", 5, 32, 0, queries).unwrap();
                    assert_eq!(&bits(&got), expected.as_ref());
                }
            });
        }
    });

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let lccs = stats.iter().find(|s| s.name == "e2e-lccs").unwrap();
    assert_eq!(lccs.batch_requests, 12);
    assert_eq!(lccs.batch_queries, 12 * 16);

    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// The PR-5 acceptance path: filtered and range SEARCH over real TCP,
/// byte-identical to an in-process brute-force oracle, with the stats
/// section present exactly when asked for and the scanned counter
/// surfacing in STATS.
#[test]
fn filtered_and_range_search_over_the_wire_matches_brute_force_oracle() {
    use dataset::ExactKnn;

    let data = Arc::new(SynthSpec::new("wire-filter", 500, 12).with_clusters(8).generate(77));
    let exact_index = eval::registry::build_index(
        &ann::IndexSpec::linear(),
        &eval::registry::BuildCtx { data: &data, metric: Metric::Euclidean },
    )
    .expect("linear builds everywhere");
    let mut catalog = Catalog::empty();
    catalog
        .install("exact".into(), "Linear".into(), "linear".into(), exact_index, data.clone())
        .unwrap();
    let server = Server::bind(catalog, "127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();

    let oracle = |q: &[f32], k: usize, accepts: &dyn Fn(u32) -> bool, max: Option<f64>| {
        vec![ExactKnn::single_query_filtered(&data, q, k, Metric::Euclidean, accepts, max)]
    };

    let allow: Vec<u32> = (0..500).filter(|i| i % 7 == 0).collect();
    let deny: Vec<u32> = (0..500).filter(|i| i % 11 == 0).collect();
    let queries = data.sample_queries(9, 3);
    for (qi, q) in queries.iter().enumerate() {
        // Allowlist.
        let req = ann::SearchRequest::top_k(5).budget(1).filter(ann::IdFilter::allow(allow.clone()));
        let (hits, stats) = client.search("exact", q, &req).unwrap();
        assert!(stats.is_none(), "stats section only when requested");
        assert_eq!(bits(&[hits]), bits(&oracle(q, 5, &|id| id % 7 == 0, None)), "allow q{qi}");

        // Denylist with stats.
        let req = ann::SearchRequest::top_k(5)
            .budget(1)
            .filter(ann::IdFilter::deny(deny.clone()))
            .with_stats();
        let (hits, stats) = client.search("exact", q, &req).unwrap();
        let stats = stats.expect("stats requested");
        // The default (non-LCCS) search path reports returned-candidate
        // counts — a documented lower bound that must cover the deny
        // over-fetch (k + |denylist| candidates were surfaced).
        assert!(
            stats.candidates_scanned >= (5 + deny.len()) as u64,
            "scanned lower bound, got {}",
            stats.candidates_scanned
        );
        assert_eq!(bits(&[hits]), bits(&oracle(q, 5, &|id| id % 11 != 0, None)), "deny q{qi}");

        // Range search: threshold at the true 3rd-NN distance ⇒ exactly
        // three of the requested ten qualify.
        let third = ExactKnn::single_query(&data, q, 3, Metric::Euclidean)[2].dist;
        let req = ann::SearchRequest::top_k(10).budget(1).max_dist(third);
        let (hits, _) = client.search("exact", q, &req).unwrap();
        assert_eq!(hits.len(), 3, "range q{qi}");
        assert_eq!(bits(&[hits]), bits(&oracle(q, 10, &|_| true, Some(third))), "range q{qi}");

        // Filter + threshold compose.
        let req = ann::SearchRequest::top_k(10)
            .budget(1)
            .filter(ann::IdFilter::deny(deny.clone()))
            .max_dist(third * 2.0);
        let (hits, _) = client.search("exact", q, &req).unwrap();
        assert_eq!(
            bits(&[hits]),
            bits(&oracle(q, 10, &|id| id % 11 != 0, Some(third * 2.0))),
            "combined q{qi}"
        );
    }

    // A SEARCH with no optional sections answers exactly like QUERY.
    let q = queries.get(0);
    let (via_search, _) =
        client.search("exact", q, &ann::SearchRequest::top_k(6).budget(1)).unwrap();
    let via_query = client.query("exact", 6, 1, 0, q).unwrap();
    assert_eq!(bits(&[via_search]), bits(&[via_query]));

    // Bad requests are typed errors, and validation runs the shared rule.
    let err = client
        .search("exact", q, &ann::SearchRequest::top_k(501).budget(1))
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("exceeds")), "{err}");
    let err = client
        .search("exact", q, &ann::SearchRequest::top_k(1).max_dist(f64::NAN))
        .unwrap_err();
    assert!(matches!(&err, ClientError::Server(m) if m.contains("max_dist")), "{err}");

    // The cumulative scanned counter reached STATS: at minimum the 9
    // range searches each surfaced a full-fetch candidate list (the
    // threshold path over-fetches the whole index before post-filtering).
    let stats = client.stats().unwrap();
    let exact = stats.iter().find(|s| s.name == "exact").unwrap();
    assert!(
        exact.candidates_scanned >= 9 * 500,
        "scanned counter accumulates ({} seen)",
        exact.candidates_scanned
    );

    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// Back-compat: QUERY and BATCH frames encoded with the *pre-redesign*
/// byte layout (hand-assembled here, independent of today's encoder)
/// must still decode and be answered byte-identically to the in-process
/// results — a pre-PR-5 client keeps working against a post-PR-5 daemon.
#[test]
fn legacy_query_and_batch_frames_are_answered_unchanged() {
    use serve::protocol::{read_frame, write_frame, Response};
    use std::io::Write as _;

    let fx = fixture("legacy");
    let (addr, handle) = start_server(&fx, 1);

    let put_legacy_header = |out: &mut Vec<u8>, tag: u8, index: &str, k: u32, b: u32, p: u32| {
        out.push(tag);
        out.push(index.len() as u8);
        out.extend_from_slice(index.as_bytes());
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&b.to_le_bytes());
        out.extend_from_slice(&p.to_le_bytes());
    };

    let queries = fx.data.sample_queries(4, 21);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();

    // Legacy QUERY: tag 3, str8 name, k/budget/probes u32, dim u32, f32s.
    let q = queries.get(2);
    let mut body = Vec::new();
    put_legacy_header(&mut body, 3, "e2e-lccs", 7, 48, 0);
    body.extend_from_slice(&(q.len() as u32).to_le_bytes());
    for v in q {
        body.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    write_frame(&mut stream, &body).unwrap();
    stream.flush().unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("reply");
    let Response::Neighbors(hits) = Response::decode(&reply).unwrap() else {
        panic!("legacy QUERY must get a NEIGHBORS reply");
    };
    let local = AnnIndex::query(&fx.single, q, &SearchParams::new(7, 48));
    assert_eq!(bits(&[hits]), bits(&[local]), "legacy QUERY answered unchanged");

    // Legacy BATCH: tag 4, str8 name, k/budget/probes u32, dim u32,
    // nq u32, row-major f32s.
    let mut body = Vec::new();
    put_legacy_header(&mut body, 4, "e2e-lccs", 5, 64, 0);
    body.extend_from_slice(&(queries.dim() as u32).to_le_bytes());
    body.extend_from_slice(&(queries.len() as u32).to_le_bytes());
    for v in queries.as_flat() {
        body.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    write_frame(&mut stream, &body).unwrap();
    let reply = read_frame(&mut stream).unwrap().expect("reply");
    let Response::Batch(lists) = Response::decode(&reply).unwrap() else {
        panic!("legacy BATCH must get a BATCH reply");
    };
    let local = AnnIndex::query_batch(&fx.single, &queries, &SearchParams::new(5, 64));
    assert_eq!(bits(&lists), bits(&local), "legacy BATCH answered unchanged");

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// The trace section is strictly additive on the wire: a traced frame is
/// the untraced frame plus the 18-byte section, the server answers both
/// identically, and METRICS exposes the Prometheus scrape text with the
/// serving histogram in it.
#[test]
fn traced_frames_interop_and_metrics_scrape() {
    use obs::TraceContext;
    use serve::protocol::{read_frame, write_frame, Request, Response, TRACE_SECTION_LEN};

    let fx = fixture("traced");
    // A snapshot dir, so the live BUILD at the end has somewhere to log.
    let server = Server::bind(Catalog::load_dir(&fx.dir).unwrap(), "127.0.0.1:0", 1)
        .unwrap()
        .with_snapshot_dir(&fx.dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));

    let q = fx.data.sample_queries(1, 33);
    let req = Request::Query {
        index: "e2e-lccs".into(),
        k: 6,
        budget: 64,
        probes: 0,
        vector: q.get(0).to_vec(),
    };
    let plain = req.encode();
    let ctx = TraceContext { trace_id: 0x1122_3344_5566_7788, span_id: 0x99aa_bbcc_ddee_ff00 };
    let traced = req.encode_traced(Some(ctx));
    assert_eq!(
        &traced[..traced.len() - TRACE_SECTION_LEN],
        plain.as_slice(),
        "a traced frame is the untraced frame plus the trailing section"
    );

    // Same connection, both layouts: answers must be byte-identical.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut answers = Vec::new();
    for body in [&plain, &traced] {
        write_frame(&mut stream, body).unwrap();
        let reply = read_frame(&mut stream).unwrap().expect("reply");
        let Response::Neighbors(hits) = Response::decode(&reply).unwrap() else {
            panic!("QUERY must get a NEIGHBORS reply");
        };
        answers.push(hits);
    }
    assert_eq!(
        bits(&[answers[0].clone()]),
        bits(&[answers[1].clone()]),
        "the server ignores the trace section when answering"
    );

    // The client-side knob produces the same interop.
    let mut client = Client::connect(addr).unwrap();
    client.trace = Some(TraceContext::mint());
    let hits = client.query("e2e-lccs", 6, 64, 0, q.get(0)).unwrap();
    assert_eq!(bits(&[hits]), bits(&[answers[0].clone()]));

    // And the scrape surface knows about the queries we just ran.
    client.trace = None;
    let text = client.metrics().expect("METRICS answers");
    for needle in [
        "# TYPE ann_queries_total counter",
        "# TYPE ann_search_latency_micros histogram",
        "ann_search_latency_micros_count{index=\"e2e-lccs\"}",
        "ann_connections_total",
        "ann_candidates_scanned_total",
    ] {
        assert!(text.contains(needle), "metrics text is missing {needle:?}:\n{text}");
    }
    let q_line = text
        .lines()
        .find(|l| l.starts_with("ann_queries_total{index=\"e2e-lccs\"}"))
        .expect("per-index query counter");
    let count: f64 = q_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 3.0, "three QUERYs ran, metrics say {count}");

    // Live-index shape is sampled at scrape: rows a DELETE tombstones in
    // a sealed segment show up as dead rows until a compaction drops them.
    let fvecs = fx.dir.join("rows.fvecs");
    dataset::io::write_fvecs(&fvecs, &fx.data.truncated(100)).unwrap();
    client.build_live("lv", "lccs:m=8,w=8,seed=3", "euclidean", fvecs.to_str().unwrap(), 0, 64, 3).unwrap();
    let gauge = |text: &str, name: &str| -> f64 {
        let line = text.lines().find(|l| l.starts_with(&format!("{name}{{index=\"lv\"}}")));
        line.unwrap_or_else(|| panic!("no {name} sample:\n{text}")).rsplit(' ').next().unwrap().parse().unwrap()
    };
    let before = client.metrics().unwrap();
    assert_eq!((gauge(&before, "ann_live_segments"), gauge(&before, "ann_live_dead_rows")), (1.0, 0.0));
    assert_eq!(client.delete("lv", &[2, 40, 41, 5_000]).unwrap(), 3);
    let after = client.metrics().unwrap();
    assert!(after.contains("# TYPE ann_live_dead_rows gauge"));
    assert_eq!(gauge(&after, "ann_live_dead_rows"), 3.0, "three sealed rows are tombstoned");

    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// Fraction of `truth`'s ids that `hits` recovered — recall@k against
/// an exact oracle, computed inline so the test owns its own metric.
fn recall_of(hits: &[Neighbor], truth: &[Neighbor]) -> f64 {
    let want: std::collections::HashSet<u32> = truth.iter().map(|n| n.id).collect();
    hits.iter().filter(|n| want.contains(&n.id)).count() as f64 / truth.len().max(1) as f64
}

/// The PR-10 tentpole acceptance path: CALIBRATE over real TCP turns
/// `target_recall(0.9)` from a typed error into a planned search whose
/// *measured* recall against an independent exact oracle meets the
/// target on held-out queries — while scanning fewer candidates than
/// the worst-case manual grid point. Uncalibrated and malformed
/// targets answer with text byte-identical to in-process validation,
/// and the table survives a restart through the snapshot's CALB
/// section.
#[test]
fn calibrated_target_recall_plans_cheap_params_and_survives_restart() {
    use dataset::ExactKnn;

    let fx = fixture("plan");
    let catalog = Catalog::load_dir(&fx.dir).unwrap();
    let server =
        Server::bind(catalog, "127.0.0.1:0", 2).unwrap().with_snapshot_dir(&fx.dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    let q0 = fx.data.get(0);

    // Pre-calibration snapshots load and serve with calibration "none".
    let infos = client.list().unwrap();
    assert!(infos.iter().all(|i| i.cal == "none" && i.cal_age_secs == 0));

    // Planned search before calibration: a typed, actionable error.
    let planned = SearchRequest::top_k(10).target_recall(0.9);
    match client.search("e2e-lccs", q0, &planned) {
        Err(ClientError::Server(msg)) => assert!(
            msg.contains("not calibrated") && msg.contains("ann-cli calibrate"),
            "unhelpful uncalibrated error: {msg}"
        ),
        other => panic!("uncalibrated target must fail, got {other:?}"),
    }

    // Malformed targets answer with the exact text in-process
    // validation produces — one validator, zero drift.
    for bad in [
        SearchRequest::top_k(10).target_recall(1.5),
        SearchRequest::top_k(10).target_recall(0.0),
        SearchRequest::top_k(10).target_recall(f64::NAN),
        SearchRequest::top_k(10).budget(64).target_recall(0.9),
        SearchRequest::top_k(10).probes(4).target_recall(0.9),
    ] {
        let local = bad.validate(fx.data.len()).expect_err("invalid in-process");
        match client.search("e2e-lccs", q0, &bad) {
            Err(ClientError::Server(msg)) => assert_eq!(
                msg,
                format!("index \"e2e-lccs\": {local}"),
                "wire error text must match in-process validation"
            ),
            other => panic!("invalid target must fail, got {other:?}"),
        }
    }

    // Calibrate over the wire: the saturated corner measures 1.0, so
    // every target is plannable from here on.
    let (points, max_recall, sample) = client.calibrate("e2e-lccs", 32, 10).unwrap();
    assert!(points >= 6, "grid should carry several points, got {points}");
    assert_eq!(sample, 32);
    assert!((max_recall - 1.0).abs() < 1e-9, "saturated corner must measure 1.0");
    let infos = client.list().unwrap();
    let lccs = infos.iter().find(|i| i.name == "e2e-lccs").unwrap();
    assert_eq!(lccs.cal, "fresh");

    // Held-out queries (perturbed rows, never calibration inputs):
    // planned recall vs an exact oracle meets the target, and the
    // planner spends strictly fewer candidates than the worst-case
    // manual grid point.
    let queries = fx.data.sample_queries(32, 123);
    let mut planned = SearchRequest::top_k(10).target_recall(0.9);
    planned.fields.stats = true;
    let mut saturated = SearchRequest::top_k(10).budget(fx.data.len()).probes(16);
    saturated.fields.stats = true;
    let mut recall_sum = 0.0;
    let (mut planned_scanned, mut manual_scanned) = (0u64, 0u64);
    for qi in 0..queries.len() {
        let q = queries.get(qi);
        let (hits, stats) = client.search("e2e-lccs", q, &planned).unwrap();
        let stats = stats.expect("stats requested");
        let plan = stats.plan.expect("planned searches report their plan");
        assert!(plan.predicted_recall >= 0.9, "plan must satisfy the target");
        assert!((plan.effective_target - 0.9).abs() < 1e-12, "no degradation armed");
        assert!((plan.budget as usize) <= fx.data.len());
        planned_scanned += stats.candidates_scanned;
        let (_, sat_stats) = client.search("e2e-lccs", q, &saturated).unwrap();
        manual_scanned += sat_stats.unwrap().candidates_scanned;
        let truth = ExactKnn::single_query(&fx.data, q, 10, Metric::Euclidean);
        recall_sum += recall_of(&hits, &truth);
        // Planning only picks knobs: the same knobs passed by hand give
        // the same bytes.
        let manual =
            SearchRequest::top_k(10).budget(plan.budget as usize).probes(plan.probes as usize);
        let (by_hand, _) = client.search("e2e-lccs", q, &manual).unwrap();
        assert_eq!(bits(&[hits]), bits(&[by_hand]), "planned vs manual, query {qi}");
    }
    let measured = recall_sum / queries.len() as f64;
    assert!(measured >= 0.9, "measured recall {measured:.4} misses the 0.9 target");
    assert!(
        planned_scanned < manual_scanned,
        "planning must beat the worst-case grid point: {planned_scanned} vs {manual_scanned}"
    );

    // The funnel surfaces in STATS and METRICS.
    let entries = client.stats().unwrap();
    let e = entries.iter().find(|s| s.name == "e2e-lccs").unwrap();
    assert_eq!(e.planned, queries.len() as u64);
    assert_eq!(e.degraded, 0);
    assert_eq!(e.cal, "fresh");
    let text = client.metrics().unwrap();
    assert!(text.contains("ann_planned_total{index=\"e2e-lccs\"} 32\n"), "metrics:\n{text}");
    assert!(text.contains("ann_calibration_age_seconds{index=\"e2e-lccs\",state=\"fresh\"}"));

    client.shutdown().unwrap();
    handle.join().expect("server thread");

    // Restart from disk: the CALB section brings the table back and
    // planned searches keep working without re-calibrating.
    let catalog = Catalog::load_dir(&fx.dir).unwrap();
    let server = Server::bind(catalog, "127.0.0.1:0", 2).unwrap().with_snapshot_dir(&fx.dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    let infos = client.list().unwrap();
    let lccs = infos.iter().find(|i| i.name == "e2e-lccs").unwrap();
    assert_eq!(lccs.cal, "fresh", "calibration must survive the restart");
    let (hits, stats) = client.search("e2e-lccs", q0, &planned).unwrap();
    assert!(!hits.is_empty());
    assert!(stats.unwrap().plan.expect("plan after restart").predicted_recall >= 0.9);
    // The uncalibrated sibling still answers its typed error.
    match client.search("e2e-mp", q0, &SearchRequest::top_k(10).target_recall(0.9)) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("not calibrated")),
        other => panic!("e2e-mp was never calibrated, got {other:?}"),
    }
    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// Overload degradation: with `--recall-floor 0.7` and a 1µs p99 bound
/// (every real request breaches it), planned targets step down toward
/// the floor — honestly reported in the plan's `effective_target`, the
/// STATS `degraded` counter, and METRICS — instead of silently
/// breaching the latency bound.
#[test]
fn overload_steps_recall_targets_down_toward_the_floor() {
    let fx = fixture("degrade");
    let catalog = Catalog::load_dir(&fx.dir).unwrap();
    let server = Server::bind(catalog, "127.0.0.1:0", 2)
        .unwrap()
        .with_snapshot_dir(&fx.dir)
        .with_recall_floor(0.7)
        .with_p99_bound_micros(1);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    client.calibrate("e2e-lccs", 16, 10).unwrap();

    // Prime the latency histogram: the dial reads the per-index p99,
    // which needs at least one answered query to exceed the 1µs bound.
    let q0 = fx.data.get(0);
    for _ in 0..4 {
        client.query("e2e-lccs", 10, 64, 0, q0).unwrap();
    }

    let mut req = SearchRequest::top_k(10).target_recall(0.95);
    req.fields.stats = true;
    let (hits, stats) = client.search("e2e-lccs", q0, &req).unwrap();
    assert!(!hits.is_empty());
    let plan = stats.unwrap().plan.expect("degraded searches still report their plan");
    assert!(
        plan.effective_target < 0.95,
        "p99 over bound must step the target down, got {}",
        plan.effective_target
    );
    assert!(plan.effective_target >= 0.7 - 1e-12, "never below the floor");

    let entries = client.stats().unwrap();
    let e = entries.iter().find(|s| s.name == "e2e-lccs").unwrap();
    assert_eq!(e.planned, 1);
    assert_eq!(e.degraded, 1, "the step-down must be counted, not hidden");
    let text = client.metrics().unwrap();
    assert!(text.contains("ann_degraded_total{index=\"e2e-lccs\"} 1\n"), "metrics:\n{text}");

    client.shutdown().unwrap();
    handle.join().expect("server thread");
}

/// The small-fix satellite: mutating a live index after its sweep marks
/// the table stale (visible in LIST/STATS), FLUSH persists the stale
/// bit through the snapshot, and a restart still plans from it.
#[test]
fn mutations_mark_calibration_stale_and_flush_persists_the_bit() {
    let dir = std::env::temp_dir().join(format!("annd-e2e-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = SynthSpec::new("stale", 400, 16).with_clusters(8).generate(5);
    let fvecs = dir.join("rows.fvecs");
    dataset::io::write_fvecs(&fvecs, &data).unwrap();

    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 2)
        .unwrap()
        .with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    client
        .build_live("st", "linear", "euclidean", fvecs.to_str().unwrap(), 0, 1000, 4)
        .unwrap();
    client.calibrate("st", 16, 5).unwrap();
    let infos = client.list().unwrap();
    assert_eq!(infos[0].cal, "fresh");

    // INSERT: the measured index no longer exists → stale, but planning
    // keeps working from the old table.
    let row = dataset::Dataset::from_rows("ins", &[data.get(0).to_vec()]);
    client.insert("st", &row, None).unwrap();
    let infos = client.list().unwrap();
    assert_eq!(infos[0].cal, "stale", "mutation must mark the table stale");
    let mut req = SearchRequest::top_k(5).target_recall(0.9);
    req.fields.stats = true;
    let (_, stats) = client.search("st", data.get(1), &req).unwrap();
    assert!(stats.unwrap().plan.is_some(), "stale tables still plan");

    // FLUSH persists the (stale) table; a restart reloads it as stale.
    client.flush("st").unwrap();
    client.shutdown().unwrap();
    handle.join().expect("server thread");
    let catalog = Catalog::load_dir(&dir).unwrap();
    let server = Server::bind(catalog, "127.0.0.1:0", 2).unwrap().with_snapshot_dir(&dir);
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("serving loop"));
    let mut client = Client::connect(addr).unwrap();
    let infos = client.list().unwrap();
    let st = infos.iter().find(|i| i.name == "st").unwrap();
    assert_eq!(st.cal, "stale", "the stale bit must survive FLUSH + restart");
    let (_, stats) = client.search("st", data.get(1), &req).unwrap();
    assert!(stats.unwrap().plan.is_some());
    client.shutdown().unwrap();
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(&dir);
}
