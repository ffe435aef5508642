//! The single-node `annd` service: what each request means against a
//! catalog of served indexes.
//!
//! The connection loop — accept poll, worker pool, framing, trace
//! minting, request logs, SHUTDOWN — lives in the private `service`
//! module; this module is the `Service` it calls. Each worker owns one
//! [`ann::Scratch`] per index it has touched and reuses it for every
//! single query it answers — the same allocation amortization the batch
//! executor gets per worker thread. QUERY, BATCH and SEARCH are decoded
//! into one [`ReadRequest`] and answered by one read handler; a BATCH
//! runs [`ann::AnnIndex::search_batch`] (the parallel executor), so one
//! heavy batch saturates the cores even with a single connection.
//!
//! The catalog lives behind an `RwLock`: request paths take short read
//! locks (queries only ever write per-index atomic counters), while the
//! BUILD command — which constructs an index from an [`ann::IndexSpec`]
//! string and a server-local dataset path — does all its expensive work
//! lock-free and takes the write lock only for the final
//! [`Catalog::install`], so installs are atomic with respect to every
//! concurrent reader.
//!
//! Since PR 7 the write path is durable and off-request-path (the full
//! contract lives in `docs/durability.md`):
//!
//! - Every acknowledged INSERT/DELETE against a live entry under a
//!   snapshot directory first applies under the entry's write lock,
//!   then appends a CRC-guarded record to the entry's `<name>.wal` and
//!   fsyncs per [`Server::with_wal_sync`] — only then is the response
//!   written. Restart replays the log over the last FLUSH snapshot
//!   ([`Catalog::load_dir`]), so acknowledged writes survive a crash.
//! - Seal and compaction *builds* run on a dedicated background thread:
//!   an insert that crosses the seal threshold only freezes the
//!   memtable and queues the work ([`ann_live::LiveIndex::insert_deferred`]),
//!   the sealer rebuilds segments with no lock held, and each finished
//!   segment is installed under a short write-lock splice — readers are
//!   served throughout.

use crate::catalog::{live_read, panic_message, with_live_write, Backend, Catalog, ServedIndex};
use crate::protocol::{ReadRequest, ReplyShape, Request, Response};
use crate::service::{Ctx, Listener, Service};
use crate::snapshot::{SnapMeta, StagedSnapshot};
use ann::{AnnIndex, IndexSpec, MutableAnn, Scratch, SearchRequest};
use ann_live::wal::{wal_path, Wal, WalRecord, WalSync};
use ann_live::{LiveConfig, LiveIndex};
use eval::registry::{self, BuildCtx};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Cap on the dataset file a BUILD request may ask the server to load
/// (matches the snapshot loader's 1 GiB vector-section cap).
pub(crate) const MAX_BUILD_DATASET_BYTES: u64 = 1 << 30;

/// A bound, not-yet-running server.
pub struct Server {
    listener: Listener,
    shared: Shared,
    seal_rx: Receiver<String>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) and prepares a
    /// pool of `workers` connection handlers.
    pub fn bind(catalog: Catalog, addr: impl ToSocketAddrs, workers: usize) -> io::Result<Server> {
        let (sealer, seal_rx) = mpsc::channel();
        Ok(Server {
            listener: Listener::bind(addr, workers)?,
            shared: Shared {
                catalog: Arc::new(RwLock::new(catalog)),
                snapshot_dir: None,
                wal_sync: WalSync::Always,
                sealer,
                degrader: plan::Degrader::off(),
            },
            seal_rx,
        })
    }

    /// Directory where BUILD persists `.snap` containers for schemes that
    /// support snapshots. Without it BUILD still installs in the catalog,
    /// it just writes nothing.
    pub fn with_snapshot_dir(mut self, dir: impl Into<PathBuf>) -> Server {
        self.shared.snapshot_dir = Some(dir.into());
        self
    }

    /// WAL fsync policy for acknowledged writes (`--wal-sync`): the
    /// default [`WalSync::Always`] fsyncs every record before its ack;
    /// [`WalSync::Batch`] group-commits, trading a bounded window of
    /// acknowledged-but-unsynced records on a *power* failure for much
    /// higher ingest throughput (a process kill alone loses nothing —
    /// the records are already in the kernel). See `docs/durability.md`.
    pub fn with_wal_sync(mut self, sync: WalSync) -> Server {
        self.shared.wal_sync = sync;
        self
    }

    /// Arms the overload dial for recall-targeted requests
    /// (`--recall-floor`): when the serving p99 runs past the bound set
    /// with [`Server::with_p99_bound_micros`], planned targets are
    /// stepped down toward `floor` instead of letting latency grow
    /// unbounded. `0.0` (the default) never degrades.
    pub fn with_recall_floor(mut self, floor: f64) -> Server {
        self.shared.degrader.floor = floor;
        self
    }

    /// The p99 latency bound (µs) that triggers recall-target
    /// degradation (`--p99-bound-us`); `0` (the default) never degrades.
    pub fn with_p99_bound_micros(mut self, bound: u64) -> Server {
        self.shared.degrader.p99_bound_micros = bound;
        self
    }

    /// The bound address (the real port when bound with port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.listener.local_addr())
    }

    /// The served catalog (for printing summaries and final stats around
    /// [`Server::run`]).
    pub fn catalog(&self) -> Arc<RwLock<Catalog>> {
        self.shared.catalog.clone()
    }

    /// Serves until a SHUTDOWN request arrives, then drains and returns.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, shared, seal_rx } = self;
        std::thread::scope(|scope| {
            // The background seal/compaction worker: one thread per
            // server, fed index names by the write paths.
            let (shared, listener) = (&shared, &listener);
            scope.spawn(move || sealer_loop(&seal_rx, shared, listener));
            listener.serve(shared);
        });
        Ok(())
    }
}

/// What every worker (and the sealer) shares: the [`Service`] state.
struct Shared {
    catalog: Arc<RwLock<Catalog>>,
    snapshot_dir: Option<PathBuf>,
    wal_sync: WalSync,
    /// Feeds the background sealer the name of a live entry whose
    /// insert just froze the memtable (queued seal/compaction work).
    sealer: Sender<String>,
    /// The load-shedding dial for recall-targeted requests.
    degrader: plan::Degrader,
}

impl Service for Shared {
    /// One scratch per (worker, index): reused across every connection
    /// and single query the worker handles.
    type Worker = HashMap<String, Scratch>;

    fn worker(&self) -> Self::Worker {
        HashMap::new()
    }

    fn call(&self, req: Request, _: &Ctx, scratches: &mut Self::Worker) -> Response {
        dispatch(req, self, scratches).unwrap_or_else(Response::Error)
    }
}

/// How often the sealer re-checks the shutdown flag while idle.
const SEALER_POLL: Duration = Duration::from_millis(100);

/// The background seal/compaction loop: waits for index names from the
/// write paths and drains each one's queued builds. Exits when the
/// server is shutting down (pending work is not lost — it is folded
/// back into the memtable by `state()` on FLUSH, or rebuilt after
/// restart from the WAL).
fn sealer_loop(rx: &Receiver<String>, shared: &Shared, listener: &Listener) {
    loop {
        match rx.recv_timeout(SEALER_POLL) {
            Ok(name) => seal_index(shared, &name),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if listener.is_shut_down() {
                    return;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Drains one live entry's queued seal/compaction builds. Each segment
/// rebuild runs with *no lock held* (the queued op carries its own
/// frozen copy of the rows); only the final install takes the entry's
/// write lock, and only for the pointer swap — readers are served
/// throughout, which the e2e concurrency test pins.
fn seal_index(shared: &Shared, name: &str) {
    loop {
        let pending = {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            let Ok(served) = lookup(&catalog, name) else { return };
            let Backend::Live(lock) = &served.backend else { return };
            let Ok(live) = live_read(lock, name) else { return };
            live.pending_build()
        };
        let Some(build) = pending else { return };
        let built = match build.build() {
            Ok(b) => b,
            Err(e) => {
                // Leave the op queued: the next synchronous drain (an
                // insert crossing the threshold, or FLUSH) reports the
                // error to a client instead of retrying silently here.
                obs::error!("background seal failed", index = name, error = e);
                return;
            }
        };
        let catalog = shared.catalog.read().expect("catalog poisoned");
        let Ok(served) = lookup(&catalog, name) else { return };
        let Backend::Live(lock) = &served.backend else { return };
        match with_live_write(lock, name, |live| Ok(live.install_built(built))) {
            Ok(true) => served.stats.record_seal(),
            // Token mismatch: a FLUSH or failed-insert rollback already
            // resolved this op synchronously; check for newer work.
            Ok(false) => {}
            Err(_) => return,
        }
    }
}

/// Validates and answers one request; the error side is the message for
/// a [`Response::Error`] (not the response itself: `Response` grew large
/// enough with BUILT that clippy rightly objects to it riding in every
/// `Err`).
fn dispatch(
    req: Request,
    shared: &Shared,
    scratches: &mut HashMap<String, Scratch>,
) -> Result<Response, String> {
    match req {
        Request::Ping => Ok(Response::Pong),
        // The connection loop raised the flag before calling in.
        Request::Shutdown => Ok(Response::ShuttingDown),
        Request::List => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            Ok(Response::List(catalog.iter().map(ServedIndex::info).collect()))
        }
        Request::Stats => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            Ok(Response::Stats(catalog.iter().map(stats_entry).collect()))
        }
        Request::Metrics => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            let entries: Vec<_> = catalog.iter().map(stats_entry).collect();
            // Live-index internals are sampled at scrape time (they are
            // sizes, not event counters): memtable rows, sealed
            // segments, queued background ops, and dead rows still in
            // sealed segments per live entry.
            // (name, memtable rows, sealed segments, pending ops, dead rows)
            type LiveRow = (String, u64, u64, u64, u64);
            type GaugeCol = fn(&LiveRow) -> u64;
            let mut live_sizes: Vec<LiveRow> = Vec::new();
            for served in catalog.iter() {
                if let Backend::Live(lock) = &served.backend {
                    if let Ok(live) = live_read(lock, &served.name) {
                        live_sizes.push((
                            served.name.clone(),
                            live.memtable_rows() as u64,
                            live.segment_count() as u64,
                            live.pending_ops() as u64,
                            live.dead_rows() as u64,
                        ));
                    }
                }
            }
            drop(catalog);
            let mut out = obs::PromText::new();
            // Process-global series first (WAL fsync + seal/compaction
            // build histograms, connection counter), then the per-index
            // serving counters, then the sampled live-index gauges.
            obs::global().render_into(&mut out);
            crate::stats::render_prom(&entries, &mut out);
            let gauges: [(&str, &str, GaugeCol); 4] = [
                ("ann_live_memtable_rows", "Rows currently buffered in the live memtable", |r| {
                    r.1
                }),
                ("ann_live_segments", "Sealed segments in the live index", |r| r.2),
                ("ann_live_pending_ops", "Seal/compaction builds queued for the sealer", |r| {
                    r.3
                }),
                (
                    "ann_live_dead_rows",
                    "Deleted or superseded rows still in sealed segments (each read walks them)",
                    |r| r.4,
                ),
            ];
            for (name, help, get) in gauges {
                out.header(name, "gauge", help);
                for row in &live_sizes {
                    out.sample(name, &[("index", &row.0)], get(row));
                }
            }
            Ok(Response::Metrics(out.into_string()))
        }
        // QUERY and BATCH stay on the wire unchanged and are answered as
        // SEARCHes with no optional sections — the search path without a
        // filter or threshold is byte-identical to the pre-redesign query
        // path (the e2e back-compat test pins this).
        Request::Query { .. } | Request::Batch { .. } | Request::Search { .. } => {
            let read = ReadRequest::from_wire(req).expect("matched a read opcode");
            answer_read(shared, scratches, read)
        }
        Request::Calibrate { index, sample, k } => handle_calibrate(shared, &index, sample, k),
        Request::Build {
            name,
            spec,
            metric,
            data_path,
            limit,
            live,
            seal_threshold,
            max_segments,
            id_base,
            id_step,
        } => {
            let opts = BuildOpts { live, seal_threshold, max_segments, id_base, id_step };
            handle_build(shared, &name, &spec, &metric, &data_path, limit, opts)
        }
        Request::Insert { index, dim, vectors, ids } => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            let served = lookup(&catalog, &index)?;
            let lock = require_live(served, &index)?;
            // The response echoes one u32 id per row; keep it inside a frame.
            let nq = vectors.len() / dim.max(1) as usize;
            if 5 + nq as u64 * 4 > crate::protocol::MAX_FRAME as u64 {
                return Err(format!(
                    "insert of {nq} rows would overflow the response frame; split it"
                ));
            }
            let rows = dataset::Dataset::from_flat("insert", dim as usize, vectors);
            let ids_opt = (!ids.is_empty()).then_some(ids.as_slice());
            let t0 = Instant::now();
            // Apply, then log, then ack — all under the entry's write
            // lock, so the WAL's record order is exactly the apply
            // order. Rows are logged as received (pre-normalization):
            // replay re-normalizes identically. A seal crossing only
            // freezes and queues here; the rebuild happens on the
            // sealer thread after the ack.
            let (assigned, froze) = with_live_write(lock, &index, |live| {
                let (assigned, froze) =
                    live.insert_deferred(&rows, ids_opt).map_err(|e| e.to_string())?;
                let mut wal = served.wal.lock().expect("wal mutex poisoned");
                if let Some(wal) = wal.as_mut() {
                    let rec = WalRecord::Insert {
                        dim,
                        rows: rows.as_flat().to_vec(),
                        ids: assigned.clone(),
                    };
                    match wal.append(&rec, shared.wal_sync) {
                        Ok(bytes) => served.stats.record_wal(bytes),
                        Err(e) => {
                            // Not durable ⇒ not acknowledged: undo the
                            // in-memory apply so the index never holds
                            // rows the log (and thus a restart) lacks.
                            live.delete(&assigned);
                            return Err(format!("WAL append for {index:?} failed: {e}"));
                        }
                    }
                }
                Ok((assigned, froze))
            })?;
            served.stats.record_insert(assigned.len() as u64, t0.elapsed().as_micros() as u64);
            // The index the table was measured on no longer exists: keep
            // planning, but report it stale.
            served.mark_cal_stale();
            if froze {
                shared.sealer.send(index.clone()).ok();
            }
            Ok(Response::Inserted { ids: assigned })
        }
        Request::Delete { index, ids } => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            let served = lookup(&catalog, &index)?;
            let lock = require_live(served, &index)?;
            let t0 = Instant::now();
            let removed = with_live_write(lock, &index, |live| {
                let removed = live.delete(&ids);
                // A no-op delete (no requested id was live) changes
                // nothing, so nothing needs to survive a crash.
                if removed > 0 {
                    let mut wal = served.wal.lock().expect("wal mutex poisoned");
                    if let Some(wal) = wal.as_mut() {
                        match wal.append(&WalRecord::Delete { ids: ids.clone() }, shared.wal_sync)
                        {
                            Ok(bytes) => served.stats.record_wal(bytes),
                            Err(e) => {
                                return Err(format!("WAL append for {index:?} failed: {e}"))
                            }
                        }
                    }
                }
                Ok(removed)
            })?;
            served.stats.record_delete(removed as u64, t0.elapsed().as_micros() as u64);
            if removed > 0 {
                served.mark_cal_stale();
            }
            Ok(Response::Deleted { removed: removed as u64 })
        }
        Request::Flush { index } => {
            let catalog = shared.catalog.read().expect("catalog poisoned");
            let served = lookup(&catalog, &index)?;
            let lock = require_live(served, &index)?;
            let Some(dir) = shared.snapshot_dir.as_deref() else {
                return Err("server has no snapshot directory; FLUSH cannot persist".into());
            };
            let t0 = Instant::now();
            // Seal AND persist under one inner write-lock critical
            // section: two concurrent FLUSHes of the same entry must not
            // interleave their seal and their `.snap` rename, or the
            // older state could land on disk *after* the newer FLUSH
            // already acknowledged its rows as durable. Readers of this
            // entry wait out the encode+fsync — the price of ordered
            // durability; other entries are unaffected.
            //
            // The WAL truncates in the same critical section, *after*
            // the snapshot rename: the snapshot is committed at a new
            // generation, so if the process dies between rename and
            // truncate, restart sees a log whose generation no longer
            // matches and discards it instead of double-applying — the
            // rename IS the atomic flush point (`docs/durability.md`).
            let (path, segments, live_rows) = with_live_write(lock, &index, |live| {
                live.seal().map_err(|e| e.to_string())?;
                let old_gen = live.wal_gen();
                live.set_wal_gen(old_gen + 1);
                let state = live.state();
                if state.total_rows() == 0 {
                    live.set_wal_gen(old_gen);
                    return Err(format!("live index {index:?} is empty; nothing to flush"));
                }
                let meta = SnapMeta::of_build(&state.spec, 0.0, state.live_rows() as u64);
                // Persist whatever table the entry holds — stale bit
                // and all — so a restart keeps planning (and keeps
                // reporting the staleness honestly).
                let cal = served
                    .calibration
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone();
                let staged =
                    crate::snapshot::stage_live_snapshot(dir, &index, &state, &meta, cal.as_ref())
                        .and_then(StagedSnapshot::commit);
                let path = match staged {
                    Ok(path) => path,
                    Err(e) => {
                        live.set_wal_gen(old_gen);
                        return Err(format!("flushing {index:?}: {e}"));
                    }
                };
                let mut wal = served.wal.lock().expect("wal mutex poisoned");
                if let Some(wal) = wal.as_mut() {
                    if let Err(e) = wal.reset(old_gen + 1) {
                        // Safe to continue: the stale log's generation
                        // mismatches and is discarded on restart.
                        obs::error!("WAL truncate after FLUSH failed", index = index, error = e);
                    }
                }
                Ok((path, state.segments.len() as u32, state.live_rows() as u64))
            })?;
            served.stats.record_flush(t0.elapsed().as_micros() as u64);
            Ok(Response::Flushed {
                snapshot_path: path.display().to_string(),
                segments,
                live_rows,
            })
        }
    }
}

/// The live-build knobs riding on a BUILD request.
struct BuildOpts {
    live: bool,
    seal_threshold: u32,
    max_segments: u32,
    /// External id of the first dataset row (live only; a router builds
    /// shard *s* of *m* with `(s, m)` so shard-local ids are global).
    id_base: u32,
    /// Stride between consecutive row ids (live only, `>= 1`).
    id_step: u32,
}

/// Resolves a served entry's inner live lock, or explains that the entry
/// is static (writes need a live index).
fn require_live<'a>(
    served: &'a ServedIndex,
    name: &str,
) -> Result<&'a std::sync::RwLock<LiveIndex>, String> {
    match &served.backend {
        Backend::Live(lock) => Ok(lock),
        Backend::Static { .. } => Err(format!(
            "index {name:?} is a static snapshot and read-only; BUILD it with --live true \
             to accept INSERT/DELETE/FLUSH"
        )),
    }
}

/// Shared validation for the read path: the workspace-wide
/// request-legality rule ([`SearchRequest::validate`] — the same rule
/// the in-process harness and the live index apply, so a hostile `k` can
/// never reach the k-sized verification heaps) plus the dimension check.
fn check_request(
    name: &str,
    req: &SearchRequest,
    dim: usize,
    len: usize,
    expect_dim: usize,
) -> Result<(), String> {
    req.validate(len).map_err(|e| format!("index {name:?}: {e}"))?;
    if dim != expect_dim {
        return Err(format!(
            "dimension mismatch: index {name:?} has dim {expect_dim}, query has {dim}"
        ));
    }
    Ok(())
}

/// The one read handler behind QUERY, BATCH and SEARCH: look up the
/// entry, resolve a recall target, validate, run the backend — a single
/// row through `search_with` on this worker's cached scratch, a batch
/// through `search_batch` on the parallel executor — and account the
/// latency and funnel counters.
fn answer_read(
    shared: &Shared,
    scratches: &mut HashMap<String, Scratch>,
    read: ReadRequest,
) -> Result<Response, String> {
    let index = read.index.as_str();
    let catalog = shared.catalog.read().expect("catalog poisoned");
    let served = lookup(&catalog, index)?;
    read.check_reply_fits()?;
    // A recall target resolves to concrete knobs *before* the backend
    // sees the request; the backend then runs an ordinary search.
    let planned = plan_request(shared, served, index, &read.request)?;
    let req = planned.as_ref().map_or(&read.request, |(r, _, _)| r);
    let t0 = Instant::now();
    let live;
    let (backend, index_dim): (&dyn AnnIndex, usize) = match &served.backend {
        Backend::Static { index: idx, data } => (idx.as_ref(), data.dim()),
        Backend::Live(lock) => {
            live = live_read(lock, index)?;
            (&*live, live.dim())
        }
    };
    check_request(index, req, read.dim, backend.len(), index_dim)?;
    let mut responses = if read.reply == ReplyShape::Batch {
        let queries = dataset::Dataset::from_flat("batch", read.dim, read.vectors);
        backend.search_batch(&queries, req)
    } else {
        let scratch =
            scratches.entry(index.to_string()).or_insert_with(|| backend.make_scratch());
        vec![backend.search_with(&read.vectors, req, scratch)]
    };
    let sum = |f: fn(&ann::SearchStats) -> u64| responses.iter().map(|r| f(&r.stats)).sum::<u64>();
    served.stats.record_scanned(sum(|s| s.candidates_scanned));
    served.stats.record_funnel(sum(|s| s.heap_pushes), sum(|s| s.sq8_pruned));
    let micros = t0.elapsed().as_micros() as u64;
    if read.reply == ReplyShape::Batch {
        served.stats.record_batch(responses.len() as u64, micros);
    } else {
        if let Some((_, choice, degraded)) = planned {
            responses[0].stats.plan = Some(choice);
            served.stats.record_planned(degraded);
        }
        served.stats.record_query(micros);
    }
    // The stats section is the backend's own (its wall clock, its plan).
    let wire_stats = read.request.fields.stats.then(|| responses[0].stats);
    Ok(read.reply.respond(responses.into_iter().map(|r| r.hits).collect(), wire_stats))
}

/// Resolves a `target_recall` request against the entry's calibration
/// table: validate the target (identical [`ann::RequestError`] texts to
/// the in-process path), apply the overload dial, and pick the cheapest
/// satisfying `(budget, probes)`. `Ok(None)` when the request carries
/// no target; the `bool` reports whether the dial lowered the target.
fn plan_request(
    shared: &Shared,
    served: &ServedIndex,
    index: &str,
    req: &SearchRequest,
) -> Result<Option<(SearchRequest, ann::PlanChoice, bool)>, String> {
    let Some(requested) = req.target_recall else {
        return Ok(None);
    };
    req.validate_target().map_err(|e| format!("index {index:?}: {e}"))?;
    let table = served
        .calibration
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone();
    let Some(table) = table else {
        return Err(format!("index {index:?}: {}", plan::PlanError::Uncalibrated));
    };
    let effective = shared.degrader.effective(requested, served.stats.p99_micros());
    let degraded = effective < requested;
    let p = table.plan(effective).map_err(|e| format!("index {index:?}: {e}"))?;
    let choice = ann::PlanChoice {
        budget: p.budget,
        probes: p.probes,
        predicted_recall: p.predicted_recall,
        effective_target: effective,
    };
    let mut planned = req.clone();
    planned.target_recall = None;
    planned.knobs_set = true;
    planned.budget = p.budget as usize;
    planned.probes = p.probes as usize;
    Ok(Some((planned, choice, degraded)))
}

/// One STATS/METRICS row for a served entry: the atomic counters, plus
/// the calibration presence/age that lives on the catalog entry rather
/// than in the counter block.
fn stats_entry(s: &ServedIndex) -> crate::protocol::StatsEntry {
    let mut e = s.stats.snapshot(&s.name, &s.spec, s.load_mode(), s.sq8_active());
    let (cal, cal_age_secs) = s.cal_summary();
    e.cal = cal.to_string();
    e.cal_age_secs = cal_age_secs;
    e
}

/// Default queries sampled by a CALIBRATE with `sample = 0`.
const DEFAULT_CAL_SAMPLE: usize = 64;

/// Default recall depth measured by a CALIBRATE with `k = 0`.
const DEFAULT_CAL_K: usize = 10;

/// CALIBRATE: sweep the entry's own rows through the eval harness's
/// calibration driver, install the measured table on the catalog entry
/// (a mutex swap — concurrent readers plan against the old table until
/// the swap), and persist it into the entry's `.snap` so it survives a
/// restart. The sweep runs under the catalog *read* lock: queries keep
/// flowing, only BUILD installs wait.
fn handle_calibrate(shared: &Shared, name: &str, sample: u32, k: u32) -> Result<Response, String> {
    let cfg_base = eval::calibrate::CalibrateConfig {
        sample: if sample == 0 { DEFAULT_CAL_SAMPLE } else { sample as usize },
        k: if k == 0 { DEFAULT_CAL_K } else { k as usize },
        built_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_secs()),
        ..Default::default()
    };
    let catalog = shared.catalog.read().expect("catalog poisoned");
    let served = lookup(&catalog, name)?;
    // The scheme's m (when the spec parses and carries one) anchors the
    // budget grid with Theorem 5.1's λ.
    let m_hint = served.spec.parse::<IndexSpec>().ok().and_then(|s| match s.scheme {
        ann::Scheme::Lccs { m } | ann::Scheme::MpLccs { m } => Some(m),
        _ => None,
    });
    let cfg = eval::calibrate::CalibrateConfig { m_hint, ..cfg_base };
    let table = match &served.backend {
        Backend::Static { index: idx, data } => {
            eval::calibrate::sweep(idx.as_ref(), data, &cfg)
        }
        Backend::Live(lock) => {
            let live = live_read(lock, name)?;
            // Sample queries from the live index's physical rows; the
            // sweep only needs vectors shaped like real data, liveness
            // is irrelevant for a query vector.
            let state = live.state();
            let mut flat = Vec::with_capacity(state.total_rows() * state.dim);
            for unit in state.segments.iter().chain(std::iter::once(&state.memtable)) {
                flat.extend_from_slice(&unit.rows);
            }
            if flat.is_empty() {
                return Err(format!("index {name:?} is empty; nothing to calibrate"));
            }
            let rows = dataset::Dataset::from_flat("calibrate", state.dim, flat);
            eval::calibrate::sweep(&*live, &rows, &cfg)
        }
    };
    let resp = Response::Calibrated {
        points: table.points.len() as u32,
        max_recall: table.max_recall(),
        sample: table.sample_queries,
    };
    *served.calibration.lock().unwrap_or_else(std::sync::PoisonError::into_inner) =
        Some(table.clone());
    drop(catalog);
    if let Some(dir) = &shared.snapshot_dir {
        let path = dir.join(format!("{name}.{}", crate::snapshot::SNAPSHOT_EXT));
        if path.exists() {
            if let Err(e) = crate::snapshot::attach_calibration(&path, &table) {
                // The table still serves from memory; only restart
                // persistence is lost, which the next CALIBRATE heals.
                obs::error!("persisting calibration failed", index = name, error = e);
            }
        }
    }
    Ok(resp)
}

/// A finished BUILD waiting for [`commit_build`]: the backend to
/// install and, when it persists, its container staged next to its
/// final path.
struct StagedBuild {
    method: String,
    backend: Backend,
    snapshot: Option<StagedSnapshot>,
    build_secs: f64,
}

/// BUILD: validate the request, load the dataset, run the static or the
/// live build step, then persist and install through [`commit_build`].
/// Everything except that final step runs without any lock held.
fn handle_build(
    shared: &Shared,
    name: &str,
    spec_text: &str,
    metric_name: &str,
    data_path: &str,
    limit: u32,
    opts: BuildOpts,
) -> Result<Response, String> {
    // The name becomes a file name under the snapshot dir, so it must be
    // a plain token: no separators, no leading dot — a hostile
    // "../../etc/x" must not escape the directory.
    if !valid_build_name(name) {
        return Err(format!(
            "bad catalog name {name:?}: use letters, digits, '-', '_', '.' (not leading), \
             at most {} bytes",
            crate::protocol::MAX_NAME
        ));
    }
    let spec: IndexSpec = spec_text.parse().map_err(|e| format!("bad spec {spec_text:?}: {e}"))?;
    let Some(metric) = dataset::Metric::from_name(metric_name) else {
        return Err(format!(
            "unknown metric {metric_name:?} (euclidean, angular, hamming, jaccard)"
        ));
    };
    // Bound what an unauthenticated request can make the daemon read:
    // the file size caps total in-memory growth up front (fvecs stores
    // 4 bytes/element, so memory ≈ file size), and the fvecs reader
    // itself caps per-record dimension headers.
    match std::fs::metadata(data_path) {
        Ok(m) if m.len() > MAX_BUILD_DATASET_BYTES => {
            return Err(format!(
                "dataset {data_path:?} is {} bytes, over the {MAX_BUILD_DATASET_BYTES}-byte \
                 BUILD cap; pass --limit or pre-slice the file",
                m.len()
            ));
        }
        Ok(_) => {}
        Err(e) => return Err(format!("loading dataset {data_path:?}: {e}")),
    }
    if !opts.live && (opts.id_base, opts.id_step) != (0, 1) {
        // Static indexes answer with positional ids; only the live path
        // can honor an explicit id layout.
        return Err("id_base/id_step require a live build (static ids are positional)".into());
    }
    let limit = if limit == 0 { None } else { Some(limit as usize) };
    let data = dataset::io::read_fvecs(data_path, limit)
        .map_err(|e| format!("loading dataset {data_path:?}: {e}"))?;
    let dir = shared.snapshot_dir.as_deref();
    let built = if opts.live {
        build_live(dir, name, &spec, spec_text, metric, &data, opts)?
    } else {
        build_static(dir, name, &spec, spec_text, metric, data)?
    };
    commit_build(shared, name, &spec, built)
}

/// Runs one index builder, turning both of its failure modes into an
/// error message. The spec grammar bounds every knob, but individual
/// builders keep their own stricter invariants as asserts (LCCS wants
/// m ≥ 2, a family may reject a degenerate dimension, …). A panic from
/// untrusted BUILD input must become an error response, not a dead
/// worker thread.
fn guarded_build<T, E: std::fmt::Display>(
    what: &str,
    build: impl FnOnce() -> Result<T, E>,
) -> Result<T, String> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build)) {
        Ok(Ok(built)) => Ok(built),
        Ok(Err(e)) => Err(format!("building {what}: {e}")),
        Err(panic) => Err(format!("building {what} rejected: {}", panic_message(panic))),
    }
}

/// The static build step: build through the eval registry and stage the
/// snapshot (encode + write + fsync, the slow part) before any lock is
/// taken; persisting before installing means an installed-but-
/// unsnapshotted index can't silently vanish on restart, while the
/// opposite surprise is harmless.
fn build_static(
    dir: Option<&Path>,
    name: &str,
    spec: &IndexSpec,
    spec_text: &str,
    metric: dataset::Metric,
    data: dataset::Dataset,
) -> Result<StagedBuild, String> {
    let data = Arc::new(if metric.is_angular() { data.normalized() } else { data });
    let t0 = Instant::now();
    let (index, payload) = guarded_build(&format!("{spec_text:?}"), || {
        registry::build_index_persist(spec, &BuildCtx { data: &data, metric })
    })?;
    let build_secs = t0.elapsed().as_secs_f64();
    let method = index.name().to_string();
    let snapshot = match (&payload, dir) {
        (Some(payload), Some(dir)) => {
            let meta = SnapMeta::of_build(spec, build_secs, data.len() as u64);
            let staged =
                crate::snapshot::stage_built_snapshot(dir, name, &method, &data, payload, &meta)
                    .map_err(|e| format!("snapshotting {name:?}: {e}"))?;
            Some(staged)
        }
        _ => None,
    };
    Ok(StagedBuild { method, backend: Backend::Static { index, data }, snapshot, build_secs })
}

/// The live build step: the dataset becomes the first sealed segment of
/// a fresh [`LiveIndex`], staged as a LIVE-section snapshot. The rows go
/// in raw — `LiveIndex` normalizes angular inserts itself, and
/// pre-normalizing here would round twice.
fn build_live(
    dir: Option<&Path>,
    name: &str,
    spec: &IndexSpec,
    spec_text: &str,
    metric: dataset::Metric,
    data: &dataset::Dataset,
    opts: BuildOpts,
) -> Result<StagedBuild, String> {
    let defaults = LiveConfig::default();
    let config = LiveConfig {
        seal_threshold: if opts.seal_threshold == 0 {
            defaults.seal_threshold
        } else {
            opts.seal_threshold as usize
        },
        max_segments: if opts.max_segments == 0 {
            defaults.max_segments
        } else {
            opts.max_segments as usize
        },
    };
    // Strided id assignment for routed shard builds: row i gets
    // id_base + i * id_step. Reject layouts that would overflow the id
    // space before touching the builder.
    let ids: Option<Vec<u32>> = if (opts.id_base, opts.id_step) == (0, 1) {
        None
    } else {
        let last = opts.id_base as u64 + (data.len() as u64).saturating_sub(1) * opts.id_step as u64;
        if last >= u32::MAX as u64 {
            return Err(format!(
                "id layout base={} step={} over {} rows reaches id {last}, past the u32 id space",
                opts.id_base,
                opts.id_step,
                data.len()
            ));
        }
        Some((0..data.len() as u32).map(|i| opts.id_base + i * opts.id_step).collect())
    };
    let t0 = Instant::now();
    let live = guarded_build(&format!("live {spec_text:?}"), || match &ids {
        None => LiveIndex::build_from(*spec, metric, data, config),
        Some(ids) => LiveIndex::build_from_ids(*spec, metric, data, config, ids),
    })?;
    let build_secs = t0.elapsed().as_secs_f64();
    let snapshot = match dir {
        Some(dir) => {
            let state = live.state();
            let meta = SnapMeta::of_build(spec, build_secs, state.live_rows() as u64);
            let staged = crate::snapshot::stage_live_snapshot(dir, name, &state, &meta, None)
                .map_err(|e| format!("snapshotting {name:?}: {e}"))?;
            Some(staged)
        }
        None => None,
    };
    Ok(StagedBuild {
        method: ann_live::LIVE_METHOD.to_string(),
        backend: Backend::Live(Box::new(RwLock::new(live))),
        snapshot,
        build_secs,
    })
}

/// The tail every BUILD shares: commit the staged snapshot and install
/// the entry under one catalog write lock. Two concurrent BUILDs of the
/// same name must not interleave the snapshot rename and the map insert,
/// or disk and catalog would name different indexes after a restart.
/// Only this WAL-create/rename/insert section holds the lock.
fn commit_build(
    shared: &Shared,
    name: &str,
    spec: &IndexSpec,
    built: StagedBuild,
) -> Result<Response, String> {
    let StagedBuild { method, backend, snapshot, build_secs } = built;
    let dir = shared.snapshot_dir.as_deref();
    let mut catalog = shared.catalog.write().expect("catalog poisoned");
    // A fresh live entry starts a fresh log at generation 0 — matching
    // the snapshot about to be committed — truncating any WAL a
    // replaced entry left behind. It is created *before* the rename and
    // the install: an entry that cannot log must not be installed, or
    // its writes would be acknowledged without being durable. Without a
    // snapshot dir the entry serves without durability (like FLUSH,
    // which also needs the dir).
    let wal = match (dir, &backend) {
        (Some(dir), Backend::Live(_)) => match Wal::create(&wal_path(dir, name), 0) {
            Ok(wal) => Some(wal),
            Err(e) => {
                if let Some(staged) = snapshot {
                    staged.abort();
                }
                return Err(format!("creating the WAL for {name:?}: {e}"));
            }
        },
        _ => None,
    };
    let snapshot_path = match snapshot {
        Some(staged) => {
            let path = staged.commit().map_err(|e| format!("snapshotting {name:?}: {e}"))?;
            path.display().to_string()
        }
        // A non-persisting scheme writes nothing — but a *stale*
        // snapshot from an earlier BUILD of this name would resurrect
        // the replaced index on restart, so drop it.
        None => {
            if let Some(dir) = dir {
                let stale = dir.join(format!("{name}.{}", crate::snapshot::SNAPSHOT_EXT));
                std::fs::remove_file(stale).ok();
            }
            String::new()
        }
    };
    // A static entry accepts no writes: drop any WAL left by a live
    // entry this BUILD replaces, or a restart would replay it over the
    // wrong index.
    if let (Some(dir), Backend::Static { .. }) = (dir, &backend) {
        std::fs::remove_file(wal_path(dir, name)).ok();
    }
    catalog
        .install_backend(name.to_string(), method, spec.to_string(), backend)
        .map_err(|e| format!("installing {name:?}: {e}"))?;
    let served = catalog.get(name).expect("just installed");
    *served.wal.lock().expect("wal mutex poisoned") = wal;
    Ok(Response::Built {
        info: served.info(),
        build_micros: (build_secs * 1e6) as u64,
        snapshot_path,
    })
}

/// BUILD names double as snapshot file names: plain tokens only.
pub(crate) fn valid_build_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= crate::protocol::MAX_NAME
        && !name.starts_with('.')
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'))
}

fn lookup<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a ServedIndex, String> {
    catalog.get(name).ok_or_else(|| format!("no such index {name:?}"))
}
