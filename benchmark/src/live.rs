//! `live_mixed_32k`: one `annd` with a WAL that fsyncs before every ack
//! (`WalSync::Always`), a live LCCS index bulk-loaded with the first
//! 24 576 rows and warmed up to its steady-state layout, and two
//! closed-loop connections for `--seconds`: a **writer** issuing
//! single-row INSERTs from the remaining rows with one DELETE per four
//! inserts that retires the four oldest live ids — so the live set stays
//! at the bulk size while the memtable fills, seals every 1024 inserts
//! and compacts past four segments (about 32k physical rows resident) —
//! and a **reader** looping SEARCH until the writer stops. The insert
//! pool is larger than the live window, so a cycled pool row never
//! coexists with its earlier copy.

use crate::harness::{self, bits, ids, Args, Outcome, ScratchDir};
use crate::routed::{spec, Node, INDEX, LIVE_CONFIG};
use crate::scenario::{self, Inputs, Workload, K};
use crate::stats;
use ann::{AnnIndex, MutableAnn};
use ann_live::wal::WalSync;
use ann_live::LiveIndex;
use dataset::{Dataset, ExactKnn};
use serve::catalog::{Backend, Catalog};
use serve::client::Client;
use serve::server::Server;
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// INSERTs between DELETEs; each DELETE retires as many ids.
const INSERTS_PER_DELETE: usize = 4;

/// The first three eighths of the rows are bulk-loaded; the rest feed
/// the writer.
pub fn bulk_rows(rows: &Dataset) -> Dataset {
    rows.truncated(rows.len() / 8 * 3)
}

/// A served live index: two connections, the catalog (for the post-run
/// audit), the node, and what BUILD reported. Field order is drop order:
/// connections close before the node stops, or its workers would wait
/// out their read timeout.
pub struct Rig {
    pub writer: Client,
    pub reader: Client,
    catalog: Arc<RwLock<Catalog>>,
    _node: Node,
    /// The writer's bookkeeping, from the bulk load on.
    pub books: Books,
    build_secs: f64,
    index_bytes_per_row: f64,
}

/// Starts an `annd` over `dir` and bulk-loads `fvecs` into a live index.
pub fn start(w: &Workload, width: f64, fvecs: &Path, dir: &Path) -> Rig {
    let server = Server::bind(Catalog::empty(), "127.0.0.1:0", 2)
        .expect("bind annd")
        .with_snapshot_dir(dir)
        .with_wal_sync(WalSync::Always);
    let catalog = server.catalog();
    let node = Node::spawn(server);
    let mut writer = node.connect();
    let (build_secs, built) = harness::secs(|| {
        writer.build_live(
            INDEX,
            &spec(w, width).to_string(),
            w.metric.name(),
            fvecs.to_str().expect("utf-8 scratch path"),
            0,
            LIVE_CONFIG.seal_threshold,
            LIVE_CONFIG.max_segments,
        )
    });
    let (info, _, _) = built.expect("live BUILD");
    let reader = node.connect();
    Rig {
        writer,
        reader,
        catalog,
        _node: node,
        books: Books::after_bulk(info.len as usize),
        build_secs,
        index_bytes_per_row: info.index_bytes as f64 / info.len as f64,
    }
}

/// Writes the bulk rows where the server can read them.
pub fn write_bulk(rows: &Dataset, scratch: &ScratchDir) -> (Dataset, std::path::PathBuf) {
    let bulk = bulk_rows(rows);
    let fvecs = scratch.path().join("bulk.fvecs");
    dataset::io::write_fvecs(&fvecs, &bulk).expect("write bulk rows");
    (bulk, fvecs)
}

/// Where the writer's pattern lands: the served index over the wire,
/// or its in-process twin.
trait Sink {
    fn insert_rows(&mut self, rows: &Dataset) -> Option<Vec<u32>>;
    fn delete_ids(&mut self, ids: &[u32]) -> Option<u64>;
}

impl Sink for Client {
    fn insert_rows(&mut self, rows: &Dataset) -> Option<Vec<u32>> {
        self.insert(INDEX, rows, None).ok()
    }

    fn delete_ids(&mut self, ids: &[u32]) -> Option<u64> {
        self.delete(INDEX, ids).ok()
    }
}

impl Sink for LiveIndex {
    fn insert_rows(&mut self, rows: &Dataset) -> Option<Vec<u32>> {
        MutableAnn::insert(self, rows, None).ok()
    }

    fn delete_ids(&mut self, ids: &[u32]) -> Option<u64> {
        Some(MutableAnn::delete(self, ids) as u64)
    }
}

/// Brings an index to the layout it cycles through in steady state:
/// four batch INSERTs of a seal threshold's worth of rows, each with its
/// batch DELETE, leave the segment count at its cap with a compaction
/// behind it. Without this a run starts on one segment and reads slow
/// down all the way through it as segments accumulate.
fn warm(books: &mut Books, sink: &mut impl Sink, rows: &Dataset) {
    for _ in 0..LIVE_CONFIG.max_segments {
        books.cycle(sink, rows, LIVE_CONFIG.seal_threshold, 1);
    }
    books.latencies_us.clear();
}

/// Warms the served index up; FLUSH waits the background builds out.
pub fn warm_up(rig: &mut Rig, rows: &Dataset) {
    warm(&mut rig.books, &mut rig.writer, rows);
    rig.writer.flush(INDEX).expect("warm-up FLUSH");
}

/// Correctness before timing: an in-process twin — the same spec, the
/// same bulk load, the same warm-up writes, sealed — must answer exactly
/// like the warmed-up served index. Returns the twin.
pub fn check_twin(
    w: &Workload,
    inputs: &Inputs,
    bulk: &Dataset,
    reader: &mut Client,
    out: &mut Outcome,
) -> LiveIndex {
    let req = w.request();
    let mut twin = LiveIndex::build_from(spec(w, inputs.w), w.metric, bulk, LIVE_CONFIG)
        .expect("in-process bulk load");
    warm(&mut Books::after_bulk(bulk.len()), &mut twin, &inputs.data);
    twin.seal().expect("twin seal");
    for (qi, q) in inputs.queries.iter().take(64).enumerate() {
        let want = twin.search(q, &req).hits;
        match reader.search(INDEX, q, &req) {
            Ok((hits, _)) => out.check(bits(&hits) == bits(&want), || {
                format!("served answer != in-process twin on query {qi}")
            }),
            Err(e) => out.check(false, || format!("query {qi}: {e}")),
        }
    }
    twin
}

/// The mixed phase: the writer runs on this thread for `seconds`,
/// `read` on a second one until the flag it is handed turns true.
/// Returns what `read` returned and the phase's wall seconds.
pub fn mixed_phase<R: Send>(
    rig: &mut Rig,
    rows: &Dataset,
    seconds: f64,
    read: impl FnOnce(&mut Client, &AtomicBool) -> R + Send,
) -> (R, f64) {
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(seconds);
    let (reader, writer, books) = (&mut rig.reader, &mut rig.writer, &mut rig.books);
    let reads = std::thread::scope(|s| {
        let reading = s.spawn(|| read(reader, &done));
        while Instant::now() < deadline {
            books.cycle(writer, rows, 1, INSERTS_PER_DELETE);
        }
        done.store(true, Ordering::SeqCst);
        reading.join().expect("reader thread")
    });
    (reads, t0.elapsed().as_secs_f64())
}

/// The writer's books: ack latencies, and which id holds which row —
/// what the audit after the run checks the index against.
pub struct Books {
    pub latencies_us: Vec<f64>,
    pub failed: u64,
    /// Live ids, oldest first, with the row each was inserted from.
    live: VecDeque<(u32, usize)>,
    deleted: Vec<u32>,
    /// Rows `bulk..` feed the inserts, cycled; `next` counts them.
    bulk: usize,
    next: usize,
}

impl Books {
    fn after_bulk(bulk: usize) -> Books {
        Books {
            latencies_us: Vec::new(),
            failed: 0,
            live: (0..bulk).map(|i| (i as u32, i)).collect(),
            deleted: Vec::new(),
            bulk,
            next: 0,
        }
    }

    /// `inserts` INSERTs of `batch` fresh rows each, then one DELETE of
    /// as many of the oldest live ids, so the live set keeps its size.
    fn cycle(&mut self, sink: &mut impl Sink, rows: &Dataset, batch: usize, inserts: usize) {
        let pool = rows.len() - self.bulk;
        for _ in 0..inserts {
            let picked: Vec<usize> = (0..batch)
                .map(|i| self.bulk + (self.next + i) % pool)
                .collect();
            self.next += batch;
            let flat: Vec<f32> = picked
                .iter()
                .flat_map(|&r| rows.get(r).iter().copied())
                .collect();
            let fresh = Dataset::from_flat("rows", rows.dim(), flat);
            let t = Instant::now();
            let acked = sink.insert_rows(&fresh);
            self.latencies_us.push(harness::us(t));
            match acked {
                Some(ids) if ids.len() == batch => self.live.extend(ids.into_iter().zip(picked)),
                _ => self.failed += 1,
            }
        }
        let victims: Vec<u32> = self
            .live
            .drain(..batch * inserts)
            .map(|(id, _)| id)
            .collect();
        let t = Instant::now();
        let removed = sink.delete_ids(&victims);
        self.latencies_us.push(harness::us(t));
        if removed != Some(victims.len() as u64) {
            self.failed += 1;
        }
        self.deleted.extend(victims);
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: &Workload, args: &Args, inputs: &Inputs, scratch: &ScratchDir) -> Outcome {
    let mut out = Outcome::default();
    let req = w.request();
    let rows = &inputs.data;

    let (file_secs, (bulk, fvecs)) = harness::secs(|| write_bulk(rows, scratch));

    // Each set-up repeat is BUILD plus warm-up; the last one is kept.
    let (mut setup_secs, mut build_secs) = (Vec::new(), Vec::new());
    let mut rig = None;
    for _ in 0..args.setup_repeats(5) {
        drop(rig.take());
        let (secs, r) = harness::secs(|| {
            let mut r = start(w, inputs.w, &fvecs, &scratch.sub("annd"));
            warm_up(&mut r, rows);
            r
        });
        setup_secs.push(secs);
        build_secs.push(r.build_secs);
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up repeat");
    let (check_secs, _) = harness::secs(|| check_twin(w, inputs, &bulk, &mut rig.reader, &mut out));
    if out.failed > 0 {
        return out;
    }

    let ((read_us, read_failed), wall) =
        mixed_phase(&mut rig, rows, args.seconds, |reader, done| {
            let (mut lat, mut failed, mut i) = (Vec::new(), 0u64, 0usize);
            while !done.load(Ordering::SeqCst) {
                let q = inputs.queries.get(i % inputs.queries.len());
                i += 1;
                let t = Instant::now();
                let res = reader.search(INDEX, q, &req);
                lat.push(harness::us(t));
                if !res.is_ok_and(|(hits, _)| hits.len() == K) {
                    failed += 1;
                }
            }
            (lat, failed)
        });
    out.attempted += (read_us.len() + rig.books.latencies_us.len()) as u64;
    out.failed += read_failed + rig.books.failed;

    // Quiescence, then the audit: every acked insert still owed is
    // readable, no deleted id is, and searches return live ids only.
    let (_, segments, live_rows) = rig.writer.flush(INDEX).expect("FLUSH");
    {
        let catalog = rig.catalog.read().expect("catalog lock");
        let Backend::Live(lock) = &catalog.get(INDEX).expect("served index").backend else {
            panic!("{INDEX} is not a live index");
        };
        let live = lock.read().expect("live index lock");
        for &(id, row) in &rig.books.live {
            out.check(live.vector(id).as_deref() == Some(rows.get(row)), || {
                format!("acked insert {id} is not readable after FLUSH")
            });
        }
        for &id in &rig.books.deleted {
            out.check(live.vector(id).is_none(), || {
                format!("deleted id {id} is still readable")
            });
        }
    }
    out.check(live_rows == rig.books.live.len() as u64, || {
        format!(
            "FLUSH reports {live_rows} live rows, the writer is owed {}",
            rig.books.live.len()
        )
    });

    // Recall against the exact oracle over the final live rows.
    let final_ids: Vec<u32> = rig.books.live.iter().map(|&(id, _)| id).collect();
    let flat: Vec<f32> = rig
        .books
        .live
        .iter()
        .flat_map(|&(_, row)| rows.get(row).iter().copied())
        .collect();
    let final_rows = Dataset::from_flat("final", rows.dim(), flat);
    let truth = ExactKnn::compute(&final_rows, &inputs.queries, K, w.metric);
    let truth: Vec<Vec<u32>> = scenario::truth_ids(&truth)
        .iter()
        .map(|l| l.iter().map(|&slot| final_ids[slot as usize]).collect())
        .collect();
    let owed: std::collections::HashSet<u32> = final_ids.iter().copied().collect();
    let mut answers = Vec::new();
    for (qi, q) in inputs.queries.iter().enumerate() {
        match rig.reader.search(INDEX, q, &req) {
            Ok((hits, _)) => {
                out.check(hits.iter().all(|h| owed.contains(&h.id)), || {
                    format!("query {qi} returned an id that is not live")
                });
                answers.push(ids(&hits));
            }
            Err(e) => out.check(false, || format!("post-flush query {qi}: {e}")),
        }
    }
    if out.failed > 0 {
        return out;
    }

    let writes = &rig.books.latencies_us;
    eprintln!(
        "benchmark: writer acked {} writes (p50 {:.1} us, p95 {:.1} us); {segments} segments and \
         {live_rows} live rows after FLUSH",
        writes.len(),
        stats::p50(writes),
        stats::p95(writes),
    );
    let acked = writes.len();
    let index_bytes_per_row = rig.index_bytes_per_row;
    drop(rig);

    let reads = harness::Timed {
        samples_us: read_us,
        wall_secs: wall,
    };
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        harness::setup_secs(inputs.secs + file_secs + check_secs, &setup_secs),
    );
    m.set("build_s", stats::fastest(&build_secs));
    m.set("index_bytes_per_row", index_bytes_per_row);
    m.set("recall_at_10", scenario::recall(&answers, &truth));
    m.set("writes_per_s", acked as f64 / wall);
    reads.report(m);
    out
}
