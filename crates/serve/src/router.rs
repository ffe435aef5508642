//! The cluster router: one `annd` process that speaks the client
//! protocol downstream and fans out to unmodified `annd` shard
//! processes upstream.
//!
//! The design lifts the live index's segment merge one level up: every
//! row lives on exactly one shard (`id % n_shards`, the modulus frozen
//! per index at BUILD time in a [`crate::placement`] catalog file), so
//! per-shard top-k lists are disjoint candidate sets and merging them by
//! `(distance, id)` — the same total order
//! [`dataset::exact::Neighbor`]'s `Ord` defines for segments — yields a
//! result byte-identical to a single-node index built over the union of
//! rows. The router over-fetches `min(k, shard_rows)` from each shard,
//! concatenates, sorts, truncates to `k`; the e2e suite pins the
//! byte-identity (ids and raw `f64` distance bits) including filtered
//! and range requests and after INSERT/DELETE/FLUSH through the router.
//!
//! Request handling:
//!
//! * **BUILD** (live only): the router reads the dataset, slices row
//!   `i` to shard `i % m`, spools each slice as a shard-local `.fvecs`,
//!   and issues per-shard BUILDs with the strided id layout
//!   `(id_base = s, id_step = m)` so shard-local ids are the global
//!   ids. Writes fail closed: any shard failure is an error.
//! * **INSERT/DELETE** group rows by `id % m` and apply per shard in
//!   parallel; auto-assigned ids come from the persisted `next_id`
//!   high-water mark so a restarted router never re-issues an id.
//! * **SEARCH/QUERY/BATCH** scatter-gather through
//!   [`ann::executor::par_map_scratch`] over a per-shard connection
//!   pool, round-robining read traffic across a shard's primary and
//!   its read-only replicas, with failover to the next endpoint.
//! * **LIST/STATS** aggregate across shards; STATS keeps per-shard
//!   breakdowns (`name@shard<i>` entries) next to the cluster-wide
//!   aggregate, latency histograms summed element-wise.
//!
//! Partial failure: a shard that refuses connections or times out gets
//! one retry with backoff (on a different endpoint when replicas
//! exist); if it still fails, reads degrade to a typed
//! [`Response::Partial`] naming the missing shards — or, under
//! `--require-all`, a typed error with the stable `unavailable:`
//! prefix. Writes always fail closed. The failure matrix lives in
//! `docs/cluster.md`.

use crate::client::{Client, ClientError};
use crate::placement::{Placement, PlacementTable};
use crate::protocol::{
    IndexInfo, ReadRequest, ReplyShape, Request, Response, StatsEntry, MAX_FRAME, MAX_NAME,
};
use crate::service::{Ctx, Listener, Service};
use crate::stats::{hist_quantile, IndexStats};
use ann::SearchStats;
use dataset::exact::Neighbor;
use dataset::Dataset;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Backoff between the two attempts at an unresponsive shard.
const RETRY_BACKOFF: Duration = Duration::from_millis(50);

/// Cap on pooled idle connections per endpoint.
const POOL_CAP: usize = 8;

/// One shard's addresses: a read-write primary plus read-only replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// The primary's `host:port` — all writes, and its turn of reads.
    pub primary: String,
    /// Read-only replicas the router round-robins SEARCH/QUERY to.
    pub replicas: Vec<String>,
}

/// Parses the `--router` topology string: comma-separated elements,
/// each either a shard primary `host:port` (shard index = position) or
/// a replica `r<N>@host:port` / `replica<N>@host:port` attached to
/// shard `N` (`r@host:port` attaches to the most recent shard).
///
/// ```
/// let shards = serve::router::parse_topology(
///     "127.0.0.1:7701,127.0.0.1:7702,r0@127.0.0.1:7711",
/// ).unwrap();
/// assert_eq!(shards.len(), 2);
/// assert_eq!(shards[0].replicas, vec!["127.0.0.1:7711".to_string()]);
/// ```
pub fn parse_topology(spec: &str) -> Result<Vec<ShardSpec>, String> {
    let mut shards: Vec<ShardSpec> = Vec::new();
    for raw in spec.split(',') {
        let element = raw.trim();
        if element.is_empty() {
            return Err("empty element in the shard list".into());
        }
        let replica_of = element
            .split_once('@')
            .and_then(|(tag, _)| tag.strip_prefix("replica").or_else(|| tag.strip_prefix('r')));
        match replica_of {
            Some(n_text) => {
                let addr = element.split_once('@').expect("checked above").1;
                check_addr(addr)?;
                let target = if n_text.is_empty() {
                    shards.len().checked_sub(1).ok_or("replica listed before any shard")?
                } else {
                    let n: usize =
                        n_text.parse().map_err(|_| format!("bad replica tag in {element:?}"))?;
                    if n >= shards.len() {
                        return Err(format!(
                            "replica {element:?} references shard {n}, but only {} shards are \
                             listed before it",
                            shards.len()
                        ));
                    }
                    n
                };
                shards[target].replicas.push(addr.to_string());
            }
            None => {
                check_addr(element)?;
                shards.push(ShardSpec { primary: element.to_string(), replicas: Vec::new() });
            }
        }
    }
    if shards.is_empty() {
        return Err("no shards in the topology".into());
    }
    Ok(shards)
}

fn check_addr(addr: &str) -> Result<(), String> {
    if addr.contains(':') && !addr.ends_with(':') {
        Ok(())
    } else {
        Err(format!("{addr:?} is not a host:port address"))
    }
}

/// Router configuration (the `--router*` flags).
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// The shard topology (see [`parse_topology`]).
    pub shards: Vec<ShardSpec>,
    /// Fail closed: turn degraded reads into typed errors instead of
    /// [`Response::Partial`].
    pub require_all: bool,
    /// Directory for the routed-catalog file and BUILD spool slices;
    /// `None` keeps placement in memory only (restart re-learns it from
    /// shard LISTs, and auto-id INSERT is then refused for safety).
    pub dir: Option<PathBuf>,
    /// Connect + read deadline on every shard call.
    pub shard_timeout: Duration,
    /// The `--recall-floor` dial: lowest effective `target_recall` the
    /// router degrades planned requests to under overload (`0.0` off).
    pub recall_floor: f64,
    /// The `--p99-bound-us` overload signal for the dial (`0` off).
    pub p99_bound_micros: u64,
}

impl RouterConfig {
    /// A config with the default timeout and no persistence.
    pub fn new(shards: Vec<ShardSpec>) -> RouterConfig {
        RouterConfig {
            shards,
            require_all: false,
            dir: None,
            shard_timeout: Duration::from_secs(5),
            recall_floor: 0.0,
            p99_bound_micros: 0,
        }
    }
}

/// A bound, not-yet-running router (the cluster-facing counterpart of
/// [`crate::server::Server`]).
pub struct Router {
    listener: Listener,
    state: RouterState,
}

/// One upstream endpoint (a primary or a replica) with its idle pool.
struct Endpoint {
    addr: String,
    idle: Mutex<Vec<Client>>,
}

impl Endpoint {
    fn new(addr: String) -> Endpoint {
        Endpoint { addr, idle: Mutex::new(Vec::new()) }
    }
}

/// One shard's endpoints plus the read round-robin cursor.
struct ShardPool {
    label: String,
    primary: Endpoint,
    replicas: Vec<Endpoint>,
    rr: AtomicUsize,
}

impl ShardPool {
    fn endpoint(&self, i: usize) -> &Endpoint {
        if i == 0 {
            &self.primary
        } else {
            &self.replicas[i - 1]
        }
    }

    fn endpoints(&self) -> usize {
        1 + self.replicas.len()
    }

    /// The label a missing shard is reported under.
    fn down_label(&self) -> String {
        format!("{}@{}", self.label, self.primary.addr)
    }
}

/// Why one shard call failed.
enum ShardError {
    /// The shard (every endpoint tried) is unreachable or timed out.
    Down(String),
    /// The shard answered with a server-side error — the request's
    /// problem, not the shard's availability.
    Remote(String),
}

/// What `try_endpoint` distinguishes for the retry loop.
enum EndpointError {
    /// Connect/read failure; `timed_out` splits deadline expiry from
    /// refused/reset connections for the health counters.
    Transport { timed_out: bool },
    Remote(String),
}

/// Wall-clock breakdown of one shard call, filled in as the call moves
/// through queue → dial → wire; these become the fields on the
/// per-shard child span of a routed SEARCH.
#[derive(Default, Clone, Copy)]
struct CallTiming {
    /// Time the call sat waiting for an executor slot.
    queue_micros: u64,
    /// Time dialing fresh connections (0 when a pooled one was reused).
    connect_micros: u64,
    /// Time on the wire: request write through response read, summed
    /// over attempts.
    rtt_micros: u64,
    /// Endpoint tries made (1 normally, 2 after a failover/retry).
    attempts: u32,
}

/// Pre-registered per-shard health counters (registry lookups are
/// hash-map hits; the hot path should bump atomics instead).
struct ShardObs {
    attempts: obs::Counter,
    failures: obs::Counter,
    timeouts: obs::Counter,
}

impl ShardObs {
    fn new(label: &str) -> ShardObs {
        let reg = obs::global();
        let labels = &[("shard", label)];
        ShardObs {
            attempts: reg.counter(
                "ann_router_shard_attempts_total",
                labels,
                "Endpoint tries per shard, including retries and failovers",
            ),
            failures: reg.counter(
                "ann_router_shard_failures_total",
                labels,
                "Endpoint tries that failed at the transport layer",
            ),
            timeouts: reg.counter(
                "ann_router_shard_timeouts_total",
                labels,
                "Transport failures that were deadline expiries",
            ),
        }
    }
}

/// Whether a client error is a deadline expiry (read timeout or
/// connect timeout) rather than a refused/reset connection.
fn is_timeout(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(io)
            if matches!(io.kind(), io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock)
    )
}

struct RouterState {
    pools: Vec<ShardPool>,
    require_all: bool,
    timeout: Duration,
    placement: Mutex<PlacementTable>,
    /// Per-index, per-shard live row counts, used to clamp the
    /// over-fetch `k` per shard (`SearchRequest::validate` rejects
    /// `k > rows`). Write-through from routed BUILD/INSERT/DELETE,
    /// refreshed from shard LISTs, invalidated when a shard rejects a
    /// clamped request (drift from writes that bypassed the router).
    lens: RwLock<HashMap<String, Vec<Option<u64>>>>,
    spool: PathBuf,
    /// The router's own hop stats — what the shards cannot see: queue
    /// wait, scatter, merge. Reported as the `router` row in STATS and
    /// as this process's `ann_*` series in METRICS.
    stats: IndexStats,
    /// Health counters parallel to `pools`.
    shard_obs: Vec<ShardObs>,
    degraded_reads: obs::Counter,
    /// The router-edge overload dial: steps `target_recall` down toward
    /// the floor *before* the target fans out, reading this process's
    /// own end-to-end p99 (which sees scatter + merge cost the shards
    /// cannot). Shards may degrade again against their own signals.
    degrader: plan::Degrader,
}

impl Router {
    /// Binds `addr` and prepares the shard pools. Fails if a persisted
    /// routed catalog names more shards than `config` provides — a
    /// shrunk cluster cannot route identically, and silently re-hashing
    /// would scatter every index.
    pub fn bind(config: RouterConfig, addr: impl ToSocketAddrs, workers: usize) -> io::Result<Router> {
        let placement = match &config.dir {
            Some(dir) => PlacementTable::open(dir)?,
            None => PlacementTable::in_memory(),
        };
        let n = config.shards.len() as u32;
        if placement.max_mod() > n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "routed catalog was written for {} shards but the topology lists {n}; \
                     restore the missing shards (placement is frozen per index)",
                    placement.max_mod()
                ),
            ));
        }
        let spool = match &config.dir {
            Some(dir) => dir.join("spool"),
            None => std::env::temp_dir().join(format!("annd-router-spool-{}", std::process::id())),
        };
        let pools: Vec<ShardPool> = config
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| ShardPool {
                label: format!("shard{i}"),
                primary: Endpoint::new(s.primary.clone()),
                replicas: s.replicas.iter().cloned().map(Endpoint::new).collect(),
                rr: AtomicUsize::new(i), // stagger the starting endpoint
            })
            .collect();
        let shard_obs = pools.iter().map(|p| ShardObs::new(&p.label)).collect();
        Ok(Router {
            listener: Listener::bind(addr, workers)?,
            state: RouterState {
                pools,
                require_all: config.require_all,
                timeout: config.shard_timeout,
                placement: Mutex::new(placement),
                lens: RwLock::new(HashMap::new()),
                spool,
                stats: IndexStats::default(),
                shard_obs,
                degraded_reads: obs::global().counter(
                    "ann_router_degraded_reads_total",
                    &[],
                    "Reads that lost at least one shard (Partial or unavailable error)",
                ),
                degrader: plan::Degrader {
                    floor: config.recall_floor,
                    p99_bound_micros: config.p99_bound_micros,
                },
            },
        })
    }

    /// The bound address (the real port when bound with port `0`).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.listener.local_addr())
    }

    /// Serves until a SHUTDOWN request arrives, then drains and returns.
    /// Shards are *not* shut down — they are independent processes; stop
    /// them individually.
    pub fn run(self) -> io::Result<()> {
        self.listener.serve(&self.state);
        Ok(())
    }
}

impl Service for RouterState {
    /// Routing keeps no per-thread state: connections to shards are
    /// pooled per endpoint, not per worker.
    type Worker = ();

    fn worker(&self) {}

    fn call(&self, req: Request, ctx: &Ctx, (): &mut ()) -> Response {
        match req {
            Request::Ping => Response::Pong,
            // The connection loop raised the flag before calling in.
            Request::Shutdown => Response::ShuttingDown,
            Request::List => self.route_list(),
            Request::Stats => self.route_stats(),
            Request::Metrics => self.route_metrics(),
            Request::Query { .. } | Request::Batch { .. } | Request::Search { .. } => {
                let read = ReadRequest::from_wire(req).expect("matched a read opcode");
                self.route_read(ctx, read).unwrap_or_else(Response::Error)
            }
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
                if (id_base, id_step) != (0, 1) {
                    return Response::Error(
                        "the router owns the cluster id layout; BUILD without id_base/id_step"
                            .into(),
                    );
                }
                self.route_build(
                    &name,
                    &spec,
                    &metric,
                    &data_path,
                    limit,
                    live,
                    seal_threshold,
                    max_segments,
                )
            }
            Request::Insert { index, dim, vectors, ids } => {
                self.route_insert(&index, dim, vectors, ids)
            }
            Request::Delete { index, ids } => self.route_delete(&index, &ids),
            Request::Flush { index } => self.route_flush(&index),
            Request::Calibrate { index, sample, k } => self.route_calibrate(&index, sample, k),
        }
    }
}

impl RouterState {
    fn n_shards(&self) -> u32 {
        self.pools.len() as u32
    }

    // ------------------------------------------------------ shard calls

    /// One call against one endpoint: check a pooled connection out (or
    /// dial), run `f`, check it back in on success. A server-side error
    /// keeps the connection (it is healthy); transport errors drop it.
    fn try_endpoint<T>(
        &self,
        ep: &Endpoint,
        f: &(impl Fn(&mut Client) -> Result<T, ClientError> + Sync),
        timing: &mut CallTiming,
    ) -> Result<T, EndpointError> {
        let pooled = ep.idle.lock().expect("pool poisoned").pop();
        let mut client = match pooled {
            Some(c) => c,
            None => {
                let dial = Instant::now();
                let out = Client::connect_timeout(&ep.addr, self.timeout);
                timing.connect_micros += dial.elapsed().as_micros() as u64;
                out.map_err(|e| EndpointError::Transport {
                    timed_out: matches!(
                        e.kind(),
                        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                    ),
                })?
            }
        };
        let wire = Instant::now();
        let result = f(&mut client);
        timing.rtt_micros += wire.elapsed().as_micros() as u64;
        match result {
            Ok(v) => {
                let mut idle = ep.idle.lock().expect("pool poisoned");
                if idle.len() < POOL_CAP {
                    idle.push(client);
                }
                Ok(v)
            }
            Err(ClientError::Server(msg)) => {
                let mut idle = ep.idle.lock().expect("pool poisoned");
                if idle.len() < POOL_CAP {
                    idle.push(client);
                }
                Err(EndpointError::Remote(msg))
            }
            Err(e) => Err(EndpointError::Transport { timed_out: is_timeout(&e) }),
        }
    }

    /// One call against shard `s` with the cluster's availability
    /// policy: reads round-robin across primary + replicas and fail
    /// over to the next endpoint; writes always hit the primary. An
    /// unresponsive endpoint gets exactly one retry after
    /// [`RETRY_BACKOFF`] before the shard is declared down. Fills
    /// `timing` and bumps the shard's health counters as it goes.
    fn call_shard_timed<T>(
        &self,
        s: usize,
        write: bool,
        f: &(impl Fn(&mut Client) -> Result<T, ClientError> + Sync),
        timing: &mut CallTiming,
    ) -> Result<T, ShardError> {
        let pool = &self.pools[s];
        let watch = &self.shard_obs[s];
        let eps = pool.endpoints();
        let start = if write || eps == 1 {
            0
        } else {
            pool.rr.fetch_add(1, Ordering::Relaxed) % eps
        };
        for attempt in 0..2 {
            let ep = pool.endpoint(if write { 0 } else { (start + attempt) % eps });
            timing.attempts += 1;
            watch.attempts.inc();
            match self.try_endpoint(ep, f, timing) {
                Ok(v) => return Ok(v),
                Err(EndpointError::Remote(msg)) => return Err(ShardError::Remote(msg)),
                Err(EndpointError::Transport { timed_out }) => {
                    watch.failures.inc();
                    if timed_out {
                        watch.timeouts.inc();
                    }
                    if attempt == 0 {
                        std::thread::sleep(RETRY_BACKOFF);
                    }
                }
            }
        }
        Err(ShardError::Down(pool.down_label()))
    }

    fn call_shard<T>(
        &self,
        s: usize,
        write: bool,
        f: &(impl Fn(&mut Client) -> Result<T, ClientError> + Sync),
    ) -> Result<T, ShardError> {
        self.call_shard_timed(s, write, f, &mut CallTiming::default())
    }

    /// Scatter one call over `shards` through the workspace executor
    /// (the same chunked scheduler batches run on), gathering one
    /// result per shard in order.
    fn fan_out<T, F>(&self, shards: &[usize], write: bool, f: F) -> Vec<Result<T, ShardError>>
    where
        T: Send + Sync,
        F: Fn(usize, &mut Client) -> Result<T, ClientError> + Sync,
    {
        ann::executor::par_map_scratch(shards.len(), || (), |i, (): &mut ()| {
            let s = shards[i];
            self.call_shard(s, write, &|c: &mut Client| f(s, c))
        })
    }

    /// [`fan_out`](RouterState::fan_out) plus the per-call
    /// [`CallTiming`] — the variant routed SEARCH uses to build its
    /// span tree. Queue wait is measured from this call's entry to the
    /// moment the executor actually starts the shard call.
    fn fan_out_timed<T, F>(
        &self,
        shards: &[usize],
        write: bool,
        f: F,
    ) -> Vec<(Result<T, ShardError>, CallTiming)>
    where
        T: Send + Sync,
        F: Fn(usize, &mut Client) -> Result<T, ClientError> + Sync,
    {
        let submitted = Instant::now();
        ann::executor::par_map_scratch(shards.len(), || (), |i, (): &mut ()| {
            let mut timing = CallTiming {
                queue_micros: submitted.elapsed().as_micros() as u64,
                ..CallTiming::default()
            };
            let s = shards[i];
            let result =
                self.call_shard_timed(s, write, &|c: &mut Client| f(s, c), &mut timing);
            (result, timing)
        })
    }

    // ------------------------------------------------- placement + lens

    /// The placement for `index`, adopting `mod = n_shards` (with an
    /// unknown id high-water mark) when the index exists on the shards
    /// but the router has no record — the restart-without-`--router-dir`
    /// path. Returns `None` when no shard serves the index.
    fn placement_of(&self, index: &str) -> Option<Placement> {
        if let Some(p) = self.placement.lock().expect("placement poisoned").get(index) {
            return Some(p);
        }
        // Learn from the shards: any shard listing the index means it
        // is servable; adopt the full-cluster modulus.
        let lens = self.refresh_lens(index);
        if lens.iter().any(|l| matches!(l, Some(n) if *n > 0)) {
            let adopted = Placement { mod_shards: self.n_shards(), next_id: 0 };
            let mut table = self.placement.lock().expect("placement poisoned");
            if table.get(index).is_none() {
                if let Err(e) = table.set(index, adopted) {
                    obs::error!("persisting adopted placement failed", index = index, error = e);
                }
            }
            Some(adopted)
        } else {
            None
        }
    }

    /// Per-shard row counts for `index` (cache, then shard LISTs).
    fn lens_of(&self, index: &str, m: u32) -> Vec<Option<u64>> {
        if let Some(lens) = self.lens.read().expect("lens poisoned").get(index) {
            return lens[..m as usize].to_vec();
        }
        self.refresh_lens(index)[..m as usize].to_vec()
    }

    /// Fans LIST to every shard and rebuilds the length cache for all
    /// indexes it sees; returns `index`'s per-shard lengths (a down
    /// shard's slot stays `None`).
    fn refresh_lens(&self, index: &str) -> Vec<Option<u64>> {
        let all: Vec<usize> = (0..self.pools.len()).collect();
        let results = self.fan_out(&all, false, |_, c| c.list());
        let mut fresh: HashMap<String, Vec<Option<u64>>> = HashMap::new();
        for (s, result) in results.iter().enumerate() {
            if let Ok(infos) = result {
                for info in infos {
                    fresh
                        .entry(info.name.clone())
                        .or_insert_with(|| vec![None; self.pools.len()])[s] = Some(info.len);
                }
            }
        }
        let out =
            fresh.get(index).cloned().unwrap_or_else(|| vec![None; self.pools.len()]);
        *self.lens.write().expect("lens poisoned") = fresh;
        out
    }

    /// Write-through after a routed write: apply `delta` to the cached
    /// length of `index` on shard `s`.
    fn adjust_len(&self, index: &str, s: usize, delta: i64) {
        if let Some(lens) = self.lens.write().expect("lens poisoned").get_mut(index) {
            if let Some(Some(len)) = lens.get_mut(s) {
                *len = len.saturating_add_signed(delta);
            }
        }
    }

    fn set_lens(&self, index: &str, per_shard: Vec<Option<u64>>) {
        self.lens.write().expect("lens poisoned").insert(index.to_string(), per_shard);
    }

    fn drop_lens(&self, index: &str) {
        self.lens.write().expect("lens poisoned").remove(index);
    }

    /// The degraded-read policy in one place: `missing` non-empty turns
    /// into either the typed `unavailable:` error (`--require-all`) or
    /// a [`Response::Partial`] carrying `lists`.
    fn degraded(&self, lists: Vec<Vec<Neighbor>>, missing: Vec<String>) -> Response {
        self.degraded_reads.inc();
        obs::warn!("degraded read", missing = missing.join(", "));
        if self.require_all {
            Response::Error(format!(
                "unavailable: shards [{}] did not answer and --require-all is set",
                missing.join(", ")
            ))
        } else {
            Response::Partial { lists, missing_shards: missing }
        }
    }

    // ------------------------------------------------------------ reads

    /// What every routed read settles before it fans out, in the
    /// single-node server's order so a router in front of the same rows
    /// answers a bad request with byte-identical text: placement, the
    /// target-recall rule (on the server the plan resolves before the
    /// substituted request is checked), request legality over the union
    /// row count, the BATCH reply cap. Returns the per-shard row counts
    /// and the shards worth asking (a shard known to be empty is
    /// skipped). Unknown lengths (a shard was down during refresh) skip
    /// the rows check — the shard's own validation still applies.
    fn read_targets(&self, read: &ReadRequest) -> Result<(Vec<Option<u64>>, Vec<usize>), String> {
        let (index, req) = (read.index.as_str(), &read.request);
        let p = self.placement_of(index).ok_or_else(|| format!("no such index {index:?}"))?;
        let invalid = |e: ann::RequestError| format!("index {index:?}: {e}");
        req.validate_target().map_err(invalid)?;
        let lens = self.lens_of(index, p.mod_shards);
        let rows = if lens.iter().all(Option::is_some) {
            lens.iter().flatten().sum::<u64>() as usize
        } else {
            usize::MAX
        };
        req.validate(rows).map_err(invalid)?;
        read.check_reply_fits()?;
        let targets = (0..lens.len()).filter(|&s| lens[s].is_none_or(|n| n > 0)).collect();
        Ok((lens, targets))
    }

    /// The scatter-gather core behind QUERY, BATCH and SEARCH. Each
    /// shard call carries a child of the request's trace on the wire and
    /// comes back with its [`CallTiming`]; the per-shard spans and the
    /// merge span go to `ctx`, so the connection loop's slow-request log
    /// prints the whole tree when the request runs past
    /// `--slow-query-ms`.
    fn route_read(&self, ctx: &Ctx, read: ReadRequest) -> Result<Response, String> {
        let (lens, targets) = self.read_targets(&read)?;
        let nq = read.rows();
        let ReadRequest { index, request: req, dim, mut vectors, reply } = read;
        let (index, k, trace) = (index.as_str(), req.k, ctx.trace);
        // The router-edge overload dial: step the target down toward
        // the floor against this process's end-to-end p99, then fan the
        // *effective* target out knob-less (the client encodes the 0/0
        // sentinels), so each shard plans against its own calibration
        // table (candidate sets are disjoint, so per-shard recall
        // composes into cluster recall), and may step down again
        // against its own signals.
        let effective =
            req.target_recall.map(|t| self.degrader.effective(t, self.stats.p99_micros()));
        let edge_degraded = matches!((req.target_recall, effective), (Some(r), Some(e)) if e < r);
        let batch = (reply == ReplyShape::Batch)
            .then(|| Dataset::from_flat("batch", dim, std::mem::take(&mut vectors)));
        let t0 = Instant::now();
        let results = self.fan_out_timed(&targets, false, |s, c| {
            let mut shard_req = req.clone();
            // Over-fetch at most what the shard holds (`validate`
            // rejects `k > rows`).
            shard_req.k = lens[s].map_or(k as u64, |n| n.min(k as u64)) as usize;
            shard_req.target_recall = effective;
            c.trace = Some(trace.child());
            let out = match &batch {
                Some(queries) => c
                    .query_batch(index, shard_req.k, req.budget, req.probes, queries)
                    .map(|lists| (lists, None)),
                None => c.search(index, &vectors, &shard_req).map(|(hits, st)| (vec![hits], st)),
            };
            c.trace = None;
            out
        });
        let scatter_micros = t0.elapsed().as_micros() as u64;
        let merge_start = Instant::now();
        let mut merged: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
        let mut stats = SearchStats::default();
        let mut missing = Vec::new();
        let mut spans: Vec<obs::SpanRecord> = Vec::with_capacity(targets.len() + 1);
        for (i, (result, timing)) in results.into_iter().enumerate() {
            let mut span = obs::SpanRecord::new(
                self.pools[targets[i]].label.clone(),
                timing.queue_micros,
                timing.connect_micros + timing.rtt_micros,
            )
            .field("queue_us", timing.queue_micros)
            .field("connect_us", timing.connect_micros)
            .field("rtt_us", timing.rtt_micros)
            .field("attempts", timing.attempts);
            match result {
                Ok((lists, shard_stats)) => {
                    for (slot, list) in merged.iter_mut().zip(lists) {
                        slot.extend(list);
                    }
                    if let Some(s) = shard_stats {
                        // Counters sum; the cluster plan is the binding
                        // shard's: worst-case knobs, most pessimistic
                        // prediction.
                        stats.absorb(&s);
                    }
                }
                Err(ShardError::Remote(msg)) => {
                    // Likely length drift (a write bypassed the router
                    // and our clamp overshot): refetch next time.
                    self.drop_lens(index);
                    return Err(msg);
                }
                Err(ShardError::Down(label)) => {
                    span = span.field("down", &label);
                    missing.push(label);
                }
            }
            spans.push(span);
        }
        for list in &mut merged {
            list.sort_unstable();
            list.truncate(k);
        }
        let wall = t0.elapsed().as_micros() as u64;
        if reply == ReplyShape::Batch {
            self.stats.record_batch(nq as u64, wall);
        } else {
            self.stats.record_query(wall);
            self.stats.record_scanned(stats.candidates_scanned);
            self.stats.record_funnel(stats.heap_pushes, 0);
            if req.target_recall.is_some() {
                self.stats.record_planned(edge_degraded);
            }
        }
        spans.push(
            obs::SpanRecord::new("merge", scatter_micros, merge_start.elapsed().as_micros() as u64)
                .field("hits", merged.iter().map(Vec::len).sum::<usize>()),
        );
        ctx.add_spans(spans);
        if !missing.is_empty() {
            return Ok(self.degraded(merged, missing));
        }
        stats.wall_micros = wall;
        Ok(reply.respond(merged, req.fields.stats.then_some(stats)))
    }

    fn route_list(&self) -> Response {
        let all: Vec<usize> = (0..self.pools.len()).collect();
        let results = self.fan_out(&all, false, |_, c| c.list());
        let mut agg: BTreeMap<String, IndexInfo> = BTreeMap::new();
        let mut fresh: HashMap<String, Vec<Option<u64>>> = HashMap::new();
        let mut missing = Vec::new();
        for (s, result) in results.into_iter().enumerate() {
            match result {
                Ok(infos) => {
                    for info in infos {
                        fresh
                            .entry(info.name.clone())
                            .or_insert_with(|| vec![None; self.pools.len()])[s] =
                            Some(info.len);
                        match agg.get_mut(&info.name) {
                            Some(existing) => {
                                existing.len += info.len;
                                existing.index_bytes += info.index_bytes;
                                existing.sq8 &= info.sq8;
                            }
                            None => {
                                let mut first = info;
                                first.load_mode = "router".into();
                                agg.insert(first.name.clone(), first);
                            }
                        }
                    }
                }
                Err(ShardError::Remote(msg)) => {
                    return Response::Error(format!(
                        "{}: {msg}",
                        self.pools[s].down_label()
                    ))
                }
                Err(ShardError::Down(label)) => missing.push(label),
            }
        }
        *self.lens.write().expect("lens poisoned") = fresh;
        if !missing.is_empty() && self.require_all {
            return Response::Error(format!(
                "unavailable: shards [{}] did not answer and --require-all is set",
                missing.join(", ")
            ));
        }
        // LIST has no partial variant: serve the surviving aggregate
        // (row counts are lower bounds while shards are down).
        Response::List(agg.into_values().collect())
    }

    fn route_stats(&self) -> Response {
        let all: Vec<usize> = (0..self.pools.len()).collect();
        let results = self.fan_out(&all, false, |_, c| c.stats());
        let mut aggregates: BTreeMap<String, StatsEntry> = BTreeMap::new();
        let mut breakdowns: Vec<StatsEntry> = Vec::new();
        let mut missing = Vec::new();
        for (s, result) in results.into_iter().enumerate() {
            match result {
                Ok(entries) => {
                    for entry in entries {
                        match aggregates.get_mut(&entry.name) {
                            Some(agg) => merge_stats(agg, &entry),
                            None => {
                                let mut first = entry.clone();
                                first.load_mode = "router".into();
                                aggregates.insert(first.name.clone(), first);
                            }
                        }
                        breakdowns.push(shard_entry(entry, &self.pools[s].label));
                    }
                }
                Err(ShardError::Remote(msg)) => {
                    return Response::Error(format!(
                        "{}: {msg}",
                        self.pools[s].down_label()
                    ))
                }
                Err(ShardError::Down(label)) => missing.push(label),
            }
        }
        if !missing.is_empty() && self.require_all {
            return Response::Error(format!(
                "unavailable: shards [{}] did not answer and --require-all is set",
                missing.join(", ")
            ));
        }
        let mut out: Vec<StatsEntry> = aggregates.into_values().collect();
        for agg in &mut out {
            agg.p50_micros = hist_quantile(&agg.latency_hist, 0.50);
            agg.p99_micros = hist_quantile(&agg.latency_hist, 0.99);
        }
        // The router's own hop: end-to-end latencies as clients see
        // them, next to (not folded into) the shard-side numbers, so
        // `router p99 - shard p99` reads off the scatter/merge cost.
        out.push(self.router_entry());
        out.extend(breakdowns);
        Response::Stats(out)
    }

    /// The `router` pseudo-index: this process's own request counters.
    fn router_entry(&self) -> StatsEntry {
        self.stats.snapshot("router", "", "router", false)
    }

    /// METRICS answers with the *router process's* series — the
    /// health counters and the hop histogram. Shard internals are
    /// scraped from the shards themselves, which keeps every exporter
    /// owning exactly its own process.
    fn route_metrics(&self) -> Response {
        let mut out = obs::PromText::new();
        obs::global().render_into(&mut out);
        crate::stats::render_prom(&[self.router_entry()], &mut out);
        Response::Metrics(out.into_string())
    }

    // ----------------------------------------------------------- writes

    /// The error writes fail closed with: name the shards that did not
    /// apply, and say so — the cluster may be partially written.
    fn write_failure(&self, verb: &str, index: &str, failures: &[String]) -> Response {
        Response::Error(format!(
            "{verb} on {index:?} failed on [{}]; writes fail closed and other shards may \
             already have applied — retry once every shard is reachable",
            failures.join(", ")
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn route_build(
        &self,
        name: &str,
        spec: &str,
        metric: &str,
        data_path: &str,
        limit: u32,
        live: bool,
        seal_threshold: u32,
        max_segments: u32,
    ) -> Response {
        if !live {
            return Response::Error(
                "routed BUILDs are live-only: static indexes answer with positional ids, which \
                 cannot be made cluster-unique; pass --live true"
                    .into(),
            );
        }
        if !crate::server::valid_build_name(name) {
            return Response::Error(format!(
                "bad catalog name {name:?}: use letters, digits, '-', '_', '.' (not leading), \
                 at most {MAX_NAME} bytes"
            ));
        }
        match std::fs::metadata(data_path) {
            Ok(m) if m.len() > crate::server::MAX_BUILD_DATASET_BYTES => {
                return Response::Error(format!(
                    "dataset {data_path:?} is {} bytes, over the {}-byte BUILD cap; pass \
                     --limit or pre-slice the file",
                    m.len(),
                    crate::server::MAX_BUILD_DATASET_BYTES
                ));
            }
            Ok(_) => {}
            Err(e) => return Response::Error(format!("loading dataset {data_path:?}: {e}")),
        }
        let limit = if limit == 0 { None } else { Some(limit as usize) };
        let data = match dataset::io::read_fvecs(data_path, limit) {
            Ok(d) => d,
            Err(e) => return Response::Error(format!("loading dataset {data_path:?}: {e}")),
        };
        let m = self.n_shards();
        if (data.len() as u64) < u64::from(m) {
            return Response::Error(format!(
                "dataset has {} rows but the cluster has {m} shards; every shard needs at \
                 least one row",
                data.len()
            ));
        }
        // Slice row i to shard i % m (row i's global id is i, so this IS
        // the placement rule) and spool each slice where its shard can
        // read it. Routed BUILD therefore requires shards to share a
        // filesystem with the router — the docs call this out.
        if let Err(e) = std::fs::create_dir_all(&self.spool) {
            return Response::Error(format!("creating spool dir: {e}"));
        }
        let mut slice_paths = Vec::with_capacity(m as usize);
        for s in 0..m {
            let rows: Vec<&[f32]> =
                (s as usize..data.len()).step_by(m as usize).map(|i| data.get(i)).collect();
            let flat: Vec<f32> = rows.concat();
            let slice = Dataset::from_flat("slice", data.dim(), flat);
            let path = self.spool.join(format!("{name}.shard{s}.fvecs"));
            if let Err(e) = dataset::io::write_fvecs(&path, &slice) {
                return Response::Error(format!("spooling shard {s} slice: {e}"));
            }
            slice_paths.push(path);
        }
        let targets: Vec<usize> = (0..m as usize).collect();
        let results = self.fan_out(&targets, true, |s, c| {
            c.build_live_ids(
                name,
                spec,
                metric,
                &slice_paths[s].display().to_string(),
                seal_threshold as usize,
                max_segments as usize,
                s as u32,
                m,
            )
        });
        for path in &slice_paths {
            std::fs::remove_file(path).ok();
        }
        let mut failures = Vec::new();
        let mut info_agg: Option<IndexInfo> = None;
        let mut build_micros = 0u64;
        let mut snapshot_paths = Vec::new();
        for (s, result) in results.into_iter().enumerate() {
            match result {
                Ok((info, micros, snap)) => {
                    build_micros = build_micros.max(micros);
                    if !snap.is_empty() {
                        snapshot_paths.push(snap);
                    }
                    match &mut info_agg {
                        Some(agg) => {
                            agg.len += info.len;
                            agg.index_bytes += info.index_bytes;
                            agg.sq8 &= info.sq8;
                        }
                        None => {
                            let mut first = info;
                            first.load_mode = "router".into();
                            info_agg = Some(first);
                        }
                    }
                }
                Err(ShardError::Remote(msg)) => {
                    failures.push(format!("{}: {msg}", self.pools[s].down_label()))
                }
                Err(ShardError::Down(label)) => failures.push(label),
            }
        }
        if !failures.is_empty() {
            return self.write_failure("BUILD", name, &failures);
        }
        let placement = Placement { mod_shards: m, next_id: data.len() as u32 };
        if let Err(e) = self.placement.lock().expect("placement poisoned").set(name, placement) {
            return Response::Error(format!("persisting routed catalog for {name:?}: {e}"));
        }
        let per_shard: Vec<Option<u64>> = (0..m as u64)
            .map(|s| Some((data.len() as u64 + (m as u64 - 1) - s) / m as u64))
            .collect();
        self.set_lens(name, per_shard);
        let info = info_agg.expect("at least one shard built");
        Response::Built { info, build_micros, snapshot_path: snapshot_paths.join("; ") }
    }

    fn route_insert(&self, index: &str, dim: u32, vectors: Vec<f32>, ids: Vec<u32>) -> Response {
        let Some(p) = self.placement_of(index) else {
            return Response::Error(format!("no such index {index:?}"));
        };
        let nq = vectors.len() / dim.max(1) as usize;
        if 5 + nq as u64 * 4 > MAX_FRAME as u64 {
            return Response::Error(format!(
                "insert of {nq} rows would overflow the response frame; split it"
            ));
        }
        let m = p.mod_shards;
        let assigned: Vec<u32> = if ids.is_empty() {
            // Auto-assign from the persisted high-water mark. An adopted
            // placement (next_id unknown, recorded as 0 over a non-empty
            // index) cannot do this safely.
            let lens = self.lens_of(index, m);
            let total: u64 = lens.iter().map(|l| l.unwrap_or(0)).sum();
            if p.next_id == 0 && total > 0 {
                return Response::Error(format!(
                    "cannot auto-assign ids for {index:?}: the routed catalog has no id \
                     high-water mark for it (adopted index); pass explicit ids or rebuild \
                     through the router"
                ));
            }
            if u64::from(p.next_id) + nq as u64 >= u64::from(u32::MAX) {
                return Response::Error("id space exhausted".into());
            }
            (p.next_id..p.next_id + nq as u32).collect()
        } else {
            ids
        };
        // Burn the ids *before* fanning out: if the insert half-fails,
        // a retry (or the next auto-assign) must not re-issue them.
        let high = assigned.iter().copied().max().unwrap_or(0);
        if let Err(e) = self
            .placement
            .lock()
            .expect("placement poisoned")
            .bump_next_id(index, high.saturating_add(1))
        {
            return Response::Error(format!("persisting routed catalog for {index:?}: {e}"));
        }
        // Group rows by their placement shard, preserving request order
        // within each group.
        let dim_usize = dim.max(1) as usize;
        let mut groups: HashMap<usize, (Vec<f32>, Vec<u32>)> = HashMap::new();
        for (j, &id) in assigned.iter().enumerate() {
            let (flat, gids) = groups.entry((id % m) as usize).or_default();
            flat.extend_from_slice(&vectors[j * dim_usize..(j + 1) * dim_usize]);
            gids.push(id);
        }
        let targets: Vec<usize> = {
            let mut t: Vec<usize> = groups.keys().copied().collect();
            t.sort_unstable();
            t
        };
        let results = self.fan_out(&targets, true, |s, c| {
            let (flat, gids) = &groups[&s];
            let rows = Dataset::from_flat("insert", dim_usize, flat.clone());
            c.insert(index, &rows, Some(gids))
        });
        let mut failures = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let s = targets[i];
            match result {
                Ok(got) => {
                    self.adjust_len(index, s, got.len() as i64);
                }
                Err(ShardError::Remote(msg)) => {
                    failures.push(format!("{}: {msg}", self.pools[s].down_label()))
                }
                Err(ShardError::Down(label)) => failures.push(label),
            }
        }
        if !failures.is_empty() {
            return self.write_failure("INSERT", index, &failures);
        }
        Response::Inserted { ids: assigned }
    }

    fn route_delete(&self, index: &str, ids: &[u32]) -> Response {
        let Some(p) = self.placement_of(index) else {
            return Response::Error(format!("no such index {index:?}"));
        };
        let mut groups: HashMap<usize, Vec<u32>> = HashMap::new();
        for &id in ids {
            groups.entry((id % p.mod_shards) as usize).or_default().push(id);
        }
        let targets: Vec<usize> = {
            let mut t: Vec<usize> = groups.keys().copied().collect();
            t.sort_unstable();
            t
        };
        let results = self.fan_out(&targets, true, |s, c| c.delete(index, &groups[&s]));
        let mut removed = 0u64;
        let mut failures = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let s = targets[i];
            match result {
                Ok(n) => {
                    removed += n;
                    self.adjust_len(index, s, -(n as i64));
                }
                Err(ShardError::Remote(msg)) => {
                    failures.push(format!("{}: {msg}", self.pools[s].down_label()))
                }
                Err(ShardError::Down(label)) => failures.push(label),
            }
        }
        if !failures.is_empty() {
            return self.write_failure("DELETE", index, &failures);
        }
        Response::Deleted { removed }
    }

    fn route_flush(&self, index: &str) -> Response {
        let Some(p) = self.placement_of(index) else {
            return Response::Error(format!("no such index {index:?}"));
        };
        let targets: Vec<usize> = (0..p.mod_shards as usize).collect();
        let results = self.fan_out(&targets, true, |_, c| c.flush(index));
        let mut paths = Vec::new();
        let mut segments = 0u32;
        let mut live_rows = 0u64;
        let mut failures = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((path, segs, rows)) => {
                    paths.push(path);
                    segments += segs;
                    live_rows += rows;
                }
                Err(ShardError::Remote(msg)) => {
                    failures.push(format!("{}: {msg}", self.pools[targets[i]].down_label()))
                }
                Err(ShardError::Down(label)) => failures.push(label),
            }
        }
        if !failures.is_empty() {
            return self.write_failure("FLUSH", index, &failures);
        }
        Response::Flushed { snapshot_path: paths.join("; "), segments, live_rows }
    }

    /// CALIBRATE fans to every shard primary and fails closed like a
    /// write: a cluster where only some shards hold a table would turn
    /// planned requests into per-shard `Uncalibrated` errors. The
    /// summary aggregates pessimistically — the cluster can only
    /// promise the recall its weakest shard measured.
    fn route_calibrate(&self, index: &str, sample: u32, k: u32) -> Response {
        let Some(p) = self.placement_of(index) else {
            return Response::Error(format!("no such index {index:?}"));
        };
        let targets: Vec<usize> = (0..p.mod_shards as usize).collect();
        let results =
            self.fan_out(&targets, true, |_, c| c.calibrate(index, sample as usize, k as usize));
        let mut points = 0u32;
        let mut max_recall = f64::INFINITY;
        let mut sample_out = 0u32;
        let mut failures = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Ok((pts, mr, smp)) => {
                    points += pts;
                    max_recall = max_recall.min(mr);
                    sample_out = sample_out.max(smp);
                }
                Err(ShardError::Remote(msg)) => {
                    failures.push(format!("{}: {msg}", self.pools[targets[i]].down_label()))
                }
                Err(ShardError::Down(label)) => failures.push(label),
            }
        }
        if !failures.is_empty() {
            return self.write_failure("CALIBRATE", index, &failures);
        }
        Response::Calibrated { points, max_recall, sample: sample_out }
    }
}

/// Renames a shard's stats entry `name` → `name@shard<i>`, truncating
/// the base name if the suffix would push past the wire's name cap.
fn shard_entry(mut entry: StatsEntry, label: &str) -> StatsEntry {
    let budget = MAX_NAME - (label.len() + 1);
    if entry.name.len() > budget {
        let mut end = budget;
        while !entry.name.is_char_boundary(end) {
            end -= 1;
        }
        entry.name.truncate(end);
    }
    entry.name = format!("{}@{label}", entry.name);
    entry
}

/// Folds one shard's stats entry into the cluster aggregate: counters
/// sum, `max_micros` maxes, histograms add element-wise (quantiles are
/// recomputed by the caller once every shard is folded in).
fn merge_stats(agg: &mut StatsEntry, e: &StatsEntry) {
    agg.queries += e.queries;
    agg.batch_requests += e.batch_requests;
    agg.batch_queries += e.batch_queries;
    agg.inserts += e.inserts;
    agg.deletes += e.deletes;
    agg.flushes += e.flushes;
    agg.wal_records += e.wal_records;
    agg.wal_bytes += e.wal_bytes;
    agg.seals += e.seals;
    agg.candidates_scanned += e.candidates_scanned;
    agg.heap_pushes += e.heap_pushes;
    agg.sq8_pruned += e.sq8_pruned;
    agg.planned += e.planned;
    agg.degraded += e.degraded;
    // The cluster is only as calibrated as its least-calibrated shard;
    // the age reports the oldest sweep still serving.
    agg.cal = match (agg.cal.as_str(), e.cal.as_str()) {
        ("none", _) | (_, "none") => "none".into(),
        ("stale", _) | (_, "stale") => "stale".into(),
        _ => "fresh".into(),
    };
    agg.cal_age_secs = agg.cal_age_secs.max(e.cal_age_secs);
    agg.total_micros += e.total_micros;
    agg.max_micros = agg.max_micros.max(e.max_micros);
    if agg.latency_hist.len() < e.latency_hist.len() {
        agg.latency_hist.resize(e.latency_hist.len(), 0);
    }
    for (i, b) in e.latency_hist.iter().enumerate() {
        agg.latency_hist[i] += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_parses_primaries_and_replicas() {
        let shards =
            parse_topology("127.0.0.1:7701, 127.0.0.1:7702,r0@127.0.0.1:7711,replica1@h:9,r@h:10")
                .unwrap();
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].primary, "127.0.0.1:7701");
        assert_eq!(shards[0].replicas, vec!["127.0.0.1:7711".to_string()]);
        assert_eq!(
            shards[1].replicas,
            vec!["h:9".to_string(), "h:10".to_string()],
            "bare r@ attaches to the most recent shard"
        );
    }

    #[test]
    fn bad_topologies_are_rejected() {
        for bad in [
            "",                      // nothing
            "127.0.0.1:1,,127.0.0.1:2", // empty element
            "r0@127.0.0.1:1",        // replica before any shard
            "127.0.0.1:1,r5@h:2",    // replica of an unlisted shard
            "localhost",             // no port
            "r@h:1",                 // bare replica with no shard yet
        ] {
            assert!(parse_topology(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn shard_entries_respect_the_name_cap() {
        let long = "x".repeat(MAX_NAME);
        let entry = StatsEntry {
            name: long,
            spec: String::new(),
            load_mode: "owned".into(),
            sq8: false,
            queries: 0,
            batch_requests: 0,
            batch_queries: 0,
            inserts: 0,
            deletes: 0,
            flushes: 0,
            wal_records: 0,
            wal_bytes: 0,
            seals: 0,
            candidates_scanned: 0,
            total_micros: 0,
            max_micros: 0,
            latency_hist: vec![],
            p50_micros: 0,
            p99_micros: 0,
            heap_pushes: 0,
            sq8_pruned: 0,
            planned: 0,
            degraded: 0,
            cal: "none".into(),
            cal_age_secs: 0,
        };
        let renamed = shard_entry(entry, "shard12");
        assert!(renamed.name.len() <= MAX_NAME);
        assert!(renamed.name.ends_with("@shard12"));
    }

    #[test]
    fn stats_merge_sums_histograms_and_maxes_max() {
        let mut agg = StatsEntry {
            name: "x".into(),
            spec: String::new(),
            load_mode: "router".into(),
            sq8: true,
            queries: 5,
            batch_requests: 0,
            batch_queries: 0,
            inserts: 1,
            deletes: 0,
            flushes: 0,
            wal_records: 0,
            wal_bytes: 0,
            seals: 0,
            candidates_scanned: 10,
            total_micros: 100,
            max_micros: 40,
            latency_hist: vec![1, 2],
            p50_micros: 0,
            p99_micros: 0,
            heap_pushes: 4,
            sq8_pruned: 3,
            planned: 2,
            degraded: 1,
            cal: "fresh".into(),
            cal_age_secs: 10,
        };
        let other = StatsEntry {
            latency_hist: vec![0, 1, 7],
            max_micros: 90,
            queries: 2,
            planned: 3,
            degraded: 0,
            cal: "stale".into(),
            cal_age_secs: 45,
            ..agg.clone()
        };
        merge_stats(&mut agg, &other);
        assert_eq!(agg.queries, 7);
        assert_eq!(agg.max_micros, 90);
        assert_eq!(agg.latency_hist, vec![1, 3, 7], "histograms add element-wise");
        assert_eq!(agg.total_micros, 200);
        assert_eq!(agg.heap_pushes, 8, "funnel counters sum like the others");
        assert_eq!(agg.sq8_pruned, 6);
        assert_eq!(agg.planned, 5, "planner counters sum");
        assert_eq!(agg.degraded, 1);
        assert_eq!(agg.cal, "stale", "a stale shard makes the cluster stale");
        assert_eq!(agg.cal_age_secs, 45, "age is the oldest sweep");
    }
}
