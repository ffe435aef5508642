//! LSM-style segmented mutable ANN index.
//!
//! Every index in this reproduction of LCCS-LSH is build-once: the
//! CSA-backed structures freeze at construction. [`LiveIndex`] layers a
//! write path around that constraint the way LSM trees layer writes over
//! immutable sorted runs (and the way the HTAP designs in PAPERS.md split
//! an update-optimized write store from an analytics-optimized read
//! store):
//!
//! * a **memtable** — an append-only exact-scan buffer the writes land
//!   in, with per-row liveness tracked through the id map;
//! * N sealed **immutable segments**, each a normal spec-built index
//!   (any `eval::registry` scheme — LCCS, MP-LCCS, E2LSH, `linear`, …)
//!   over its own slice of vectors;
//! * a **seal policy**: once the memtable holds
//!   [`LiveConfig::seal_threshold`] rows it is frozen and rebuilt through
//!   the registry into one more segment;
//! * a **compaction policy**: once more than
//!   [`LiveConfig::max_segments`] segments exist, the physically smallest
//!   ones are merged (rebuilt from their concatenated live vectors,
//!   dropping tombstoned rows).
//!
//! Seal and compaction *decisions* are made synchronously at the insert
//! that crosses the threshold — the memtable is frozen and the full
//! compaction cascade is planned with its input rows materialized right
//! there — but the expensive registry *builds* can be deferred: the
//! plans queue as pending ops ([`LiveIndex::insert_deferred`]), a
//! background worker clones each build's inputs ([`LiveIndex::pending_build`]),
//! builds with no lock held, and swaps the result in under a short
//! critical section ([`LiveIndex::install_built`]). Queries keep
//! answering throughout: frozen-but-not-yet-built buffers are scanned
//! exactly like the memtable. Because every decision (segment
//! membership, merge selection by physical row count, merge inputs) is
//! fixed at the crossing, the resulting segment layout is a pure
//! function of the insert/delete sequence — replaying a write-ahead log
//! ([`wal`]) over a restored snapshot converges to the same layout the
//! live process had, which is what makes restart answers reproducible
//! (see `docs/durability.md`).
//!
//! Queries fan out across the memtable and every segment through
//! [`ann::executor`] and merge the per-unit top-k by `(distance, id)`.
//! Rows that are no longer live never reach a unit's top-k: the buffers
//! check a liveness flag per row, and a sealed segment's index is handed
//! its dead slots as a deny mask. With an exact segment scheme
//! (`linear`) the answer is byte-identical to an exact oracle over the
//! current live rows — the property the crate's proptests pin; with an
//! approximate scheme it is recall-equivalent to a from-scratch build of
//! the same spec over the same rows.
//!
//! External ids are stable `u32` handles: the id a row gets at insert is
//! the id every query reports for it, across seals and compactions,
//! until the row is deleted. Internally a per-index id → (segment, slot)
//! map tracks where the one live copy of each id currently lives; stale
//! copies left behind in sealed segments by DELETE are listed per segment,
//! masked at query time and physically dropped at the next compaction
//! touching their segment.
//!
//! Concurrency: [`LiveIndex`] itself is single-writer (`&mut self`
//! mutation, `&self` query) — the serving layer wraps live catalog
//! entries in an `RwLock` so readers share and writers exclude, while
//! static entries keep their lock-free path.
//!
//! Where this crate sits in the workspace is mapped in
//! `docs/architecture.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod wal;

use ann::executor;
use ann::{
    AnnIndex, IdFilter, IndexSpec, MutableAnn, MutateError, ResponseFields, Scratch, SearchParams,
    SearchRequest, SearchResponse, SearchStats,
};
use dataset::exact::Neighbor;
use dataset::sq8::{Sq8, Sq8Pruner};
use dataset::{Dataset, Metric};
use eval::registry::{self, BuildCtx};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Method name [`LiveIndex`] reports through [`AnnIndex::name`] (and the
/// serving layer stores in snapshot containers and LIST responses).
pub const LIVE_METHOD: &str = "Live";

/// Memtable rows below which SQ8 codes are not worth training: the
/// exact scan over a few hundred rows is already cheap, and training
/// on a tiny sample would produce poor per-dimension ranges for the
/// rows appended after it.
const MEM_SQ8_MIN_ROWS: usize = 256;

/// Seal/compaction policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveConfig {
    /// Memtable rows (live + tombstoned) that trigger an automatic seal.
    pub seal_threshold: usize,
    /// Segment count above which the smallest segments are merged.
    pub max_segments: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig { seal_threshold: 256, max_segments: 8 }
    }
}

impl LiveConfig {
    fn validated(self) -> Result<LiveConfig, MutateError> {
        if self.seal_threshold == 0 || self.max_segments == 0 {
            return Err(MutateError::State(format!(
                "seal_threshold ({}) and max_segments ({}) must be at least 1",
                self.seal_threshold, self.max_segments
            )));
        }
        Ok(self)
    }
}

/// Where the live copy of an external id currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// Memtable slot.
    Mem(u32),
    /// Slot inside a frozen memtable buffer whose segment build is still
    /// pending. `seg` is the segment id the build was assigned at freeze
    /// time; `slot` is the *raw* buffer slot (the built segment compacts
    /// away slots that were already dead at the freeze).
    Frozen {
        /// Reserved segment id of the pending build.
        seg: u32,
        /// Raw slot in the frozen buffer.
        slot: u32,
    },
    /// Slot inside the segment with this stable segment id.
    Seg {
        /// Stable segment id (not the position in the segment vector —
        /// compactions remove segments without renumbering survivors).
        seg: u32,
        /// Row slot inside that segment.
        slot: u32,
    },
}

/// One sealed, immutable segment: its vectors, the external id of every
/// slot, the spec-built index answering over it — and the one thing
/// about it that does change, the list of slots that have died since.
struct Segment {
    seg_id: u32,
    data: Arc<Dataset>,
    /// `ids[slot]` is the external id of the row at `slot`.
    ids: Vec<u32>,
    /// Slots whose external id no longer maps here (DELETE tombstones and
    /// copies superseded by re-insert), ascending. The index was built
    /// over these rows and keeps proposing them as candidates; a read
    /// hands it this list as a deny mask, so a dead candidate costs one
    /// membership test inside the candidate loop instead of a distance
    /// and a heap slot (see `LiveIndex::scan_segment_request`). Kept as
    /// a list, not a count, so no read has to derive it from the id map.
    dead: Vec<u32>,
    index: Box<dyn AnnIndex>,
}

impl Segment {
    fn live_rows(&self) -> usize {
        self.ids.len() - self.dead.len()
    }

    /// Records that the row at `slot` stopped being the live copy of its
    /// id. The id map hands a slot out once, so it is never present yet.
    fn bury(&mut self, slot: u32) {
        let at = self.dead.binary_search(&slot).expect_err("a slot dies once");
        self.dead.insert(at, slot);
    }
}

/// A memtable frozen at a threshold crossing, waiting for its segment
/// build. The whole buffer is kept (including slots already dead at the
/// freeze) so a failed synchronous build can restore the memtable
/// exactly; queries scan it like the memtable until the build installs.
struct FrozenMem {
    /// Monotone op token: [`LiveIndex::install_built`] matches it
    /// against the front of the queue to reject stale builds.
    token: u64,
    /// Segment id reserved at freeze time.
    seg_id: u32,
    /// The full memtable row buffer at the freeze.
    rows: Vec<f32>,
    /// External id per raw slot.
    ids: Vec<u32>,
    /// Liveness *at the freeze* — the fixed membership of the future
    /// segment (its slots are this vector's `true` entries, compacted).
    built_live: Vec<bool>,
    /// Current liveness: deletes arriving while the build is pending
    /// flip entries here (always a subset of `built_live`).
    live: Vec<bool>,
    /// Count of `!live` slots.
    dead: usize,
    /// SQ8 codes inherited from the memtable, if they were trained.
    sq8: Option<Sq8>,
}

/// A compaction merge planned at a threshold crossing: its input rows
/// were materialized (live rows only) right at the crossing, so the
/// merged segment's contents do not depend on when the build runs.
struct PlannedMerge {
    token: u64,
    /// Segment id reserved for the merged segment (unused when `ids` is
    /// empty — a merge of two fully-tombstoned segments just drops them).
    seg_id: u32,
    /// The two segment ids this merge replaces.
    drop_a: u32,
    drop_b: u32,
    /// Live-at-plan rows of both inputs, `drop_a`'s first.
    flat: Vec<f32>,
    /// External id per planned slot.
    ids: Vec<u32>,
    /// Transitive *root* segment ids (real segments or frozen buffers)
    /// the rows came from. A planned row is still live exactly while the
    /// id map points at one of these roots — the check a later crossing
    /// uses to materialize this not-yet-built segment into a further
    /// merge.
    sources: Vec<u32>,
}

enum PendingOp {
    Seal(FrozenMem),
    Merge(PlannedMerge),
}

impl PendingOp {
    fn token(&self) -> u64 {
        match self {
            PendingOp::Seal(f) => f.token,
            PendingOp::Merge(m) => m.token,
        }
    }
}

enum BuildKind {
    Seal { seg_id: u32 },
    Merge { seg_id: u32 },
}

/// The cloned inputs of the front pending op: everything a worker needs
/// to run the registry build with **no reference to the index** (and so
/// no lock held). Obtain with [`LiveIndex::pending_build`], build off to
/// the side, hand the result back to [`LiveIndex::install_built`].
pub struct PendingBuild {
    token: u64,
    kind: BuildKind,
    spec: IndexSpec,
    metric: Metric,
    dim: usize,
    flat: Vec<f32>,
    ids: Vec<u32>,
}

impl PendingBuild {
    /// Runs the registry build. Deterministic from the cloned inputs;
    /// the index is untouched until the result is installed.
    pub fn build(self) -> Result<BuiltUnit, MutateError> {
        let segment = if self.ids.is_empty() {
            // A merge of fully-tombstoned inputs: nothing to build, the
            // install just drops them.
            None
        } else {
            let kind = match self.kind {
                BuildKind::Seal { .. } => "seal",
                BuildKind::Merge { .. } => "merge",
            };
            let seg_id = match self.kind {
                BuildKind::Seal { seg_id } => seg_id,
                BuildKind::Merge { seg_id, .. } => seg_id,
            };
            let t0 = Instant::now();
            let seg =
                build_segment_parts(&self.spec, self.metric, self.dim, self.flat, self.ids, seg_id)?;
            obs::global()
                .histogram(
                    "ann_live_build_micros",
                    &[("kind", kind)],
                    "seal/compaction segment build duration, in microseconds",
                )
                .observe(t0.elapsed().as_micros() as u64);
            Some(seg)
        };
        Ok(BuiltUnit { token: self.token, kind: self.kind, segment })
    }
}

/// A finished off-thread build, ready for [`LiveIndex::install_built`].
pub struct BuiltUnit {
    token: u64,
    kind: BuildKind,
    segment: Option<Segment>,
}

/// Builds a registry index over `(flat, ids)` — the free-function core
/// of segment construction, shared by the in-place and deferred paths.
fn build_segment_parts(
    spec: &IndexSpec,
    metric: Metric,
    dim: usize,
    flat: Vec<f32>,
    ids: Vec<u32>,
    seg_id: u32,
) -> Result<Segment, MutateError> {
    let data = Arc::new(Dataset::from_flat("live-seg", dim, flat));
    let index = registry::build_index(spec, &BuildCtx { data: &data, metric })
        .map_err(|e| MutateError::Build(e.to_string()))?;
    Ok(Segment { seg_id, data, ids, dead: Vec::new(), index })
}

/// The serializable state of a [`LiveIndex`]: everything needed to
/// reassemble an identically-answering index after a restart.
///
/// Segment *indexes* are deliberately absent — every segment build is
/// bit-reproducible from `(spec, rows, metric)` (the spec carries the
/// RNG seed), so [`LiveIndex::from_state`] rebuilds them through the
/// registry instead of shipping payload bytes. Dead rows are kept: a
/// sealed segment's approximate answers depend on every row it was built
/// over, so dropping tombstoned rows at save time would change answers
/// across a restart.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveState {
    /// Spec every sealed segment is built with.
    pub spec: IndexSpec,
    /// Verification metric.
    pub metric: Metric,
    /// Row dimensionality.
    pub dim: usize,
    /// Seal/compaction policy.
    pub config: LiveConfig,
    /// Next auto-assigned external id.
    pub next_id: u32,
    /// Sealed segments, oldest first.
    pub segments: Vec<UnitState>,
    /// The memtable. When the index had pending (frozen but not yet
    /// built) buffers at save time they are folded in here — both are
    /// exact-scanned, so answers are unchanged, and the next threshold
    /// crossings after a restore re-seal them.
    pub memtable: UnitState,
    /// Write-ahead-log generation this state was saved under. A WAL
    /// whose header carries a different generation predates (or
    /// postdates) this snapshot and must not be replayed over it — the
    /// guard that makes a crash *between* the snapshot rename and the
    /// WAL truncation safe. See `docs/durability.md`.
    pub wal_gen: u64,
}

/// One unit (segment or memtable) of a [`LiveState`]: its rows, the
/// external id of every slot, and which slots are tombstoned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitState {
    /// Row-major `ids.len() × dim` vectors.
    pub rows: Vec<f32>,
    /// External id per slot.
    pub ids: Vec<u32>,
    /// Slots whose row is no longer live (deleted, or superseded by a
    /// re-insert of the same id elsewhere).
    pub dead: Vec<u32>,
}

impl LiveState {
    /// Total physical rows across segments and memtable (live + dead).
    pub fn total_rows(&self) -> usize {
        self.segments.iter().map(|u| u.ids.len()).sum::<usize>() + self.memtable.ids.len()
    }

    /// Live rows (inserted and not deleted).
    pub fn live_rows(&self) -> usize {
        let dead: usize =
            self.segments.iter().map(|u| u.dead.len()).sum::<usize>() + self.memtable.dead.len();
        self.total_rows() - dead
    }
}

/// The segmented mutable index. See the crate docs for the design.
pub struct LiveIndex {
    spec: IndexSpec,
    metric: Metric,
    dim: usize,
    config: LiveConfig,
    next_id: u32,
    next_seg_id: u32,
    segments: Vec<Segment>,
    /// Flat row-major memtable rows (append-only until seal).
    mem_rows: Vec<f32>,
    /// External id per memtable slot.
    mem_ids: Vec<u32>,
    /// Per-slot liveness, kept in lockstep with `mem_ids`: `true` iff
    /// the id map points exactly at this slot. A dense mirror of the
    /// map so the memtable scan's per-row liveness check is an indexed
    /// load instead of a hash lookup — at memtable scale the lookup
    /// costs as much as the distance computation it guards.
    mem_live: Vec<bool>,
    /// Tombstoned memtable slots (counted; liveness itself is the map).
    mem_dead: usize,
    /// SQ8 code rows mirroring `mem_rows`, trained once the memtable
    /// grows past [`MEM_SQ8_MIN_ROWS`] and appended to on every insert.
    /// The scan consults its certified skip bound to avoid full-width
    /// distances; the bound is sound, so answers never change. Reset at
    /// seal (the memtable empties; sealed segments get their own codes
    /// through the registry build).
    mem_sq8: Option<Sq8>,
    /// Operator toggle for the memtable skip bound (`true` by default;
    /// the bench harness flips it to measure the f32-only baseline).
    sq8_enabled: bool,
    /// External id → current live location. The single source of truth
    /// for liveness: a row copy is live iff the map points exactly at it.
    id_map: HashMap<u32, Loc>,
    /// FIFO queue of planned-but-not-built work: frozen memtables and
    /// compaction merges, in the exact order a synchronous replay of the
    /// op sequence would perform them.
    pending: VecDeque<PendingOp>,
    /// Projection of the segment set *after* every pending op installs:
    /// `(seg_id, physical_rows)` in the position order a synchronous
    /// execution would leave. Compaction planning selects against this
    /// view, so a crossing decides the same merges whether earlier
    /// builds already installed or not.
    sim: Vec<(u32, usize)>,
    /// Monotone counter stamping pending ops (stale-build rejection).
    op_seq: u64,
    /// Generation of the write-ahead log this index is paired with (see
    /// [`LiveState::wal_gen`]). Plumbed, not interpreted, by the index.
    wal_gen: u64,
}

impl LiveIndex {
    /// An empty live index for `dim`-dimensional rows whose sealed
    /// segments are built from `spec` under `metric`.
    ///
    /// The spec is *not* validated against the registry here — the first
    /// seal does that; [`LiveIndex::build_from`] is the constructor that
    /// proves a spec builds before anything is served.
    pub fn new(
        spec: IndexSpec,
        metric: Metric,
        dim: usize,
        config: LiveConfig,
    ) -> Result<LiveIndex, MutateError> {
        if dim == 0 {
            return Err(MutateError::State("dimension must be positive".into()));
        }
        Ok(LiveIndex {
            spec,
            metric,
            dim,
            config: config.validated()?,
            next_id: 0,
            next_seg_id: 0,
            segments: Vec::new(),
            mem_rows: Vec::new(),
            mem_ids: Vec::new(),
            mem_live: Vec::new(),
            mem_dead: 0,
            mem_sq8: None,
            sq8_enabled: true,
            id_map: HashMap::new(),
            pending: VecDeque::new(),
            sim: Vec::new(),
            op_seq: 0,
            wal_gen: 0,
        })
    }

    /// Builds a live index over an initial dataset: bulk-inserts every
    /// row (auto-assigning ids `0..n`) and seals them into the first
    /// segment, so a bad spec fails here instead of at the first
    /// threshold-triggered seal mid-serving.
    pub fn build_from(
        spec: IndexSpec,
        metric: Metric,
        data: &Dataset,
        config: LiveConfig,
    ) -> Result<LiveIndex, MutateError> {
        let mut live = LiveIndex::new(spec, metric, data.dim(), config)?;
        live.insert_rows(data, None)?;
        live.seal()?;
        Ok(live)
    }

    /// Like [`LiveIndex::build_from`], but row `i` gets the explicit
    /// external id `ids[i]` instead of the dense `0..n` assignment. A
    /// sharded cluster uses this to give shard *s* of *m* the strided
    /// ids `s, s+m, s+2m, …`, so shard-local results carry global ids
    /// and a router can merge per-shard top-k lists by `(distance, id)`
    /// exactly as a single node merges segments. The usual id rules
    /// apply (no duplicates, no `u32::MAX`); auto-assignment for later
    /// inserts continues above the largest id given here.
    pub fn build_from_ids(
        spec: IndexSpec,
        metric: Metric,
        data: &Dataset,
        config: LiveConfig,
        ids: &[u32],
    ) -> Result<LiveIndex, MutateError> {
        let mut live = LiveIndex::new(spec, metric, data.dim(), config)?;
        live.insert_rows(data, Some(ids))?;
        live.seal()?;
        Ok(live)
    }

    /// The spec sealed segments are built from.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The verification metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Row dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The seal/compaction policy.
    pub fn config(&self) -> LiveConfig {
        self.config
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Physical memtable rows (live + tombstoned).
    pub fn memtable_rows(&self) -> usize {
        self.mem_ids.len()
    }

    /// `(physical_rows, live_rows)` per sealed segment, oldest first —
    /// the layout `ann-cli describe` and FLUSH report.
    pub fn segment_layout(&self) -> Vec<(usize, usize)> {
        self.segments.iter().map(|s| (s.ids.len(), s.live_rows())).collect()
    }

    /// A copy of the live row stored under `id`, if any.
    pub fn vector(&self, id: u32) -> Option<Vec<f32>> {
        match *self.id_map.get(&id)? {
            Loc::Mem(slot) => Some(self.mem_row(slot as usize).to_vec()),
            Loc::Frozen { seg, slot } => {
                let f = self.frozen_buf(seg)?;
                let slot = slot as usize;
                Some(f.rows[slot * self.dim..(slot + 1) * self.dim].to_vec())
            }
            Loc::Seg { seg, slot } => {
                let s = self.segments.iter().find(|s| s.seg_id == seg)?;
                Some(s.data.get(slot as usize).to_vec())
            }
        }
    }

    fn frozen_buf(&self, seg_id: u32) -> Option<&FrozenMem> {
        self.pending.iter().find_map(|op| match op {
            PendingOp::Seal(f) if f.seg_id == seg_id => Some(f),
            _ => None,
        })
    }

    /// Planned-but-not-built ops (pending seals + merges) queued for the
    /// background worker (or the next synchronous [`MutableAnn::seal`]).
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Whether any build work is queued.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Rows sitting in frozen (pending-seal) buffers, live + tombstoned.
    pub fn frozen_rows(&self) -> usize {
        self.pending
            .iter()
            .map(|op| match op {
                PendingOp::Seal(f) => f.ids.len(),
                PendingOp::Merge(_) => 0,
            })
            .sum()
    }

    /// The write-ahead-log generation this index was restored under (or
    /// last flushed at). See [`LiveState::wal_gen`].
    pub fn wal_gen(&self) -> u64 {
        self.wal_gen
    }

    /// Records the WAL generation after a flush bumps it.
    pub fn set_wal_gen(&mut self, gen: u64) {
        self.wal_gen = gen;
    }

    fn mem_row(&self, slot: usize) -> &[f32] {
        &self.mem_rows[slot * self.dim..(slot + 1) * self.dim]
    }

    /// Trains the memtable SQ8 table once the buffer is large enough
    /// for the skip bound to pay for itself (idempotent; appends keep
    /// it in sync afterwards).
    fn train_mem_sq8_if_due(&mut self) {
        if self.mem_sq8.is_none() && self.mem_ids.len() >= MEM_SQ8_MIN_ROWS {
            self.mem_sq8 = Some(Sq8::train(&self.mem_rows, self.dim));
        }
    }

    /// Enables or disables the memtable SQ8 skip bound. Answers are
    /// bit-identical either way (the bound is sound); the toggle exists
    /// so benchmarks can measure the f32-only baseline.
    pub fn set_sq8_enabled(&mut self, on: bool) {
        self.sq8_enabled = on;
    }

    /// Whether the memtable scan is currently consulting a trained SQ8
    /// code table (surfaced per index through STATS/`ann-cli describe`).
    pub fn sq8_active(&self) -> bool {
        self.sq8_enabled && self.mem_sq8.as_ref().is_some_and(|sq| sq.rows() == self.mem_ids.len())
    }

    /// The skip-bound pruner for a memtable scan, when active for `q`.
    fn mem_pruner(&self, q: &[f32]) -> Option<Sq8Pruner<'_>> {
        if !self.sq8_active() {
            return None;
        }
        self.mem_sq8.as_ref().and_then(|sq| sq.pruner(q, self.metric))
    }

    fn insert_rows(&mut self, rows: &Dataset, ids: Option<&[u32]>) -> Result<Vec<u32>, MutateError> {
        self.insert_rows_inner(rows, ids, false)
    }

    /// Like [`MutableAnn::insert`], except a threshold crossing only
    /// *plans* the seal (and any compaction cascade it triggers) instead
    /// of building inline: the memtable freezes into a pending buffer
    /// that queries keep scanning exactly, and the registry builds are
    /// left for a worker driving [`LiveIndex::pending_build`] /
    /// [`LiveIndex::install_built`] (or for the next synchronous
    /// [`MutableAnn::seal`]). Because all layout decisions are made here
    /// at the crossing, the eventual segment layout is identical to the
    /// one plain [`MutableAnn::insert`] produces for the same op
    /// sequence — the property WAL replay relies on.
    ///
    /// Returns the assigned ids and whether build work is now pending.
    pub fn insert_deferred(
        &mut self,
        rows: &Dataset,
        ids: Option<&[u32]>,
    ) -> Result<(Vec<u32>, bool), MutateError> {
        let assigned = self.insert_rows_inner(rows, ids, true)?;
        Ok((assigned, self.has_pending()))
    }

    fn insert_rows_inner(
        &mut self,
        rows: &Dataset,
        ids: Option<&[u32]>,
        defer: bool,
    ) -> Result<Vec<u32>, MutateError> {
        if rows.dim() != self.dim {
            return Err(MutateError::DimMismatch { expected: self.dim, got: rows.dim() });
        }
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let assigned: Vec<u32> = match ids {
            Some(ids) => {
                if ids.len() != rows.len() {
                    return Err(MutateError::BadIds(format!(
                        "{} ids for {} rows",
                        ids.len(),
                        rows.len()
                    )));
                }
                let mut seen = std::collections::HashSet::with_capacity(ids.len());
                for &id in ids {
                    // u32::MAX is reserved so the auto counter can always
                    // sit one past every assigned id without wrapping into
                    // a live one.
                    if id == u32::MAX {
                        return Err(MutateError::BadIds(format!("id {id} is reserved")));
                    }
                    if !seen.insert(id) {
                        return Err(MutateError::BadIds(format!("id {id} appears twice")));
                    }
                    if self.id_map.contains_key(&id) {
                        return Err(MutateError::IdInUse(id));
                    }
                }
                ids.to_vec()
            }
            None => {
                // Auto ids stay strictly below the reserved u32::MAX.
                let n = rows.len() as u64;
                if u64::from(self.next_id) + n > u64::from(u32::MAX) {
                    return Err(MutateError::IdExhausted);
                }
                (self.next_id..).take(rows.len()).collect()
            }
        };
        // Angular-metric rows live on the unit sphere, like every angular
        // dataset in the workspace; normalize on the way in so wire
        // inserts and bulk builds agree.
        let normalized;
        let rows = if self.metric.is_angular() {
            normalized = rows.clone().normalized();
            &normalized
        } else {
            rows
        };
        // All checks passed: commit. Every assigned id is < u32::MAX, so
        // `id + 1` cannot wrap and the counter lands past all of them.
        let rollback_next_id = self.next_id;
        let rollback_rows = self.mem_ids.len();
        for (row, &id) in rows.iter().zip(&assigned) {
            let slot = self.mem_ids.len() as u32;
            self.mem_rows.extend_from_slice(row);
            self.mem_ids.push(id);
            self.mem_live.push(true);
            if let Some(sq) = &mut self.mem_sq8 {
                sq.append(row);
            }
            self.id_map.insert(id, Loc::Mem(slot));
            self.next_id = self.next_id.max(id + 1);
        }
        if self.mem_ids.len() >= self.config.seal_threshold {
            if defer {
                self.freeze_and_plan();
            } else {
                let checkpoint = (self.sim.clone(), self.next_seg_id);
                let seal_token = self.freeze_and_plan();
                if let Err(e) = self.drain_pending() {
                    // If the drain failed before our freshly frozen buffer
                    // was built (our seal op is still queued), nothing of
                    // this crossing installed: unwind the freeze and the
                    // insert so the call keeps its all-or-nothing
                    // contract. If our seal installed and a *merge* build
                    // after it failed, the rows are already live in a
                    // segment — the state is valid (just over the segment
                    // cap), so the error propagates without touching them.
                    if let Some(token) = seal_token {
                        if self.pending.iter().any(|op| op.token() == token) {
                            while self.pending.back().is_some_and(|op| op.token() >= token) {
                                let op = self.pending.pop_back().expect("just checked");
                                if let PendingOp::Seal(f) = op {
                                    self.unfreeze(f);
                                }
                            }
                            (self.sim, self.next_seg_id) = checkpoint;
                            debug_assert_eq!(self.mem_ids.len(), rollback_rows + assigned.len());
                            for &id in &assigned {
                                self.id_map.remove(&id);
                            }
                            self.mem_ids.truncate(rollback_rows);
                            self.mem_live.truncate(rollback_rows);
                            self.mem_rows.truncate(rollback_rows * self.dim);
                            if let Some(sq) = &mut self.mem_sq8 {
                                sq.truncate(rollback_rows);
                            }
                            self.next_id = rollback_next_id;
                        }
                    }
                    return Err(e);
                }
            }
        }
        self.train_mem_sq8_if_due();
        Ok(assigned)
    }

    /// Restores the memtable from a frozen buffer (the failed-build
    /// unwind; the memtable must be empty, i.e. nothing ran since the
    /// freeze being undone).
    fn unfreeze(&mut self, f: FrozenMem) {
        debug_assert!(self.mem_ids.is_empty(), "unfreeze only undoes the latest freeze");
        for (slot, &id) in f.ids.iter().enumerate() {
            if f.live[slot] {
                self.id_map.insert(id, Loc::Mem(slot as u32));
            }
        }
        self.mem_rows = f.rows;
        self.mem_ids = f.ids;
        self.mem_live = f.live;
        self.mem_dead = f.dead;
        self.mem_sq8 = f.sq8;
    }

    fn delete_ids(&mut self, ids: &[u32]) -> usize {
        let mut removed = 0;
        for id in ids {
            let Some(loc) = self.id_map.remove(id) else { continue };
            removed += 1;
            match loc {
                Loc::Mem(slot) => {
                    self.mem_live[slot as usize] = false;
                    self.mem_dead += 1;
                }
                Loc::Frozen { seg, slot } => {
                    let f = self
                        .pending
                        .iter_mut()
                        .find_map(|op| match op {
                            PendingOp::Seal(f) if f.seg_id == seg => Some(f),
                            _ => None,
                        })
                        .expect("id map points at a queued frozen buffer");
                    f.live[slot as usize] = false;
                    f.dead += 1;
                }
                Loc::Seg { seg, slot } => {
                    self.segments
                        .iter_mut()
                        .find(|s| s.seg_id == seg)
                        .expect("id map points at a present segment")
                        .bury(slot);
                }
            }
        }
        removed
    }

    /// Builds a registry index over `(flat, ids)` and returns the new
    /// segment. Pure with respect to `self` (commit happens at the call
    /// site) so a builder failure leaves the index untouched.
    fn build_segment(&self, flat: Vec<f32>, ids: Vec<u32>, seg_id: u32) -> Result<Segment, MutateError> {
        build_segment_parts(&self.spec, self.metric, self.dim, flat, ids, seg_id)
    }

    /// Freezes a non-empty memtable into a pending seal and plans the
    /// compaction cascade the eventual install will trigger, all at this
    /// instant — every layout decision (segment membership, merge
    /// selection, merge inputs) is fixed here, which is what keeps the
    /// layout a pure function of the op sequence however late the
    /// builds run. Infallible (no building happens); returns the seal
    /// op's token, or `None` when there was nothing live to seal (a
    /// memtable of pure tombstones is discarded, as a synchronous seal
    /// always did).
    fn freeze_and_plan(&mut self) -> Option<u64> {
        if self.mem_ids.is_empty() {
            return None;
        }
        let live_count = self.mem_ids.len() - self.mem_dead;
        if live_count == 0 {
            // Only tombstoned rows buffered: discard them, nothing to seal.
            self.mem_rows.clear();
            self.mem_ids.clear();
            self.mem_live.clear();
            self.mem_dead = 0;
            self.mem_sq8 = None;
            return None;
        }
        let seg_id = self.next_seg_id;
        self.next_seg_id += 1;
        let token = self.op_seq;
        self.op_seq += 1;
        let live = std::mem::take(&mut self.mem_live);
        let f = FrozenMem {
            token,
            seg_id,
            rows: std::mem::take(&mut self.mem_rows),
            ids: std::mem::take(&mut self.mem_ids),
            built_live: live.clone(),
            live,
            dead: self.mem_dead,
            sq8: self.mem_sq8.take(),
        };
        self.mem_dead = 0;
        for (slot, &id) in f.ids.iter().enumerate() {
            if f.live[slot] {
                self.id_map.insert(id, Loc::Frozen { seg: seg_id, slot: slot as u32 });
            }
        }
        self.pending.push_back(PendingOp::Seal(f));
        self.sim.push((seg_id, live_count));
        self.plan_compaction_cascade();
        Some(token)
    }

    /// Plans merges against the projected segment set until it fits
    /// under [`LiveConfig::max_segments`]: repeatedly the two physically
    /// smallest (ties: older position first) are replaced by one planned
    /// segment whose input rows are materialized *now* — live rows only,
    /// so tombstones present at this crossing are physically dropped,
    /// while rows deleted between now and the install stay in the built
    /// segment as tombstones (exactly as a synchronous merge followed by
    /// those deletes would leave them).
    fn plan_compaction_cascade(&mut self) {
        while self.sim.len() > self.config.max_segments && self.sim.len() >= 2 {
            let mut order: Vec<usize> = (0..self.sim.len()).collect();
            order.sort_by_key(|&i| (self.sim[i].1, i));
            let (a, b) = (order[0].min(order[1]), order[0].max(order[1]));
            let (sa, sb) = (self.sim[a].0, self.sim[b].0);
            let mut flat = Vec::new();
            let mut ids = Vec::new();
            let mut sources = Vec::new();
            self.materialize_live(sa, &mut flat, &mut ids, &mut sources);
            self.materialize_live(sb, &mut flat, &mut ids, &mut sources);
            self.sim.remove(b);
            self.sim.remove(a);
            let token = self.op_seq;
            self.op_seq += 1;
            let seg_id = if ids.is_empty() {
                // Both inputs fully tombstoned: the install just drops
                // them; no segment id is spent.
                u32::MAX
            } else {
                let s = self.next_seg_id;
                self.next_seg_id += 1;
                self.sim.push((s, ids.len()));
                s
            };
            self.pending.push_back(PendingOp::Merge(PlannedMerge {
                token,
                seg_id,
                drop_a: sa,
                drop_b: sb,
                flat,
                ids,
                sources,
            }));
        }
    }

    /// Appends the currently-live rows of projected segment `sid` —
    /// which may be a real segment, a frozen buffer, or an earlier
    /// planned merge — to `flat`/`ids`, and its root segment ids to
    /// `sources`.
    fn materialize_live(
        &self,
        sid: u32,
        flat: &mut Vec<f32>,
        ids: &mut Vec<u32>,
        sources: &mut Vec<u32>,
    ) {
        if let Some(seg) = self.segments.iter().find(|s| s.seg_id == sid) {
            sources.push(sid);
            for (slot, &id) in seg.ids.iter().enumerate() {
                let here = Loc::Seg { seg: sid, slot: slot as u32 };
                if self.id_map.get(&id) == Some(&here) {
                    flat.extend_from_slice(seg.data.get(slot));
                    ids.push(id);
                }
            }
            return;
        }
        for op in &self.pending {
            match op {
                PendingOp::Seal(f) if f.seg_id == sid => {
                    sources.push(sid);
                    for (slot, &id) in f.ids.iter().enumerate() {
                        if f.live[slot] {
                            flat.extend_from_slice(&f.rows[slot * self.dim..(slot + 1) * self.dim]);
                            ids.push(id);
                        }
                    }
                    return;
                }
                PendingOp::Merge(m) if m.seg_id == sid => {
                    sources.extend_from_slice(&m.sources);
                    for (i, &id) in m.ids.iter().enumerate() {
                        // A planned row is live while the id map still
                        // points at one of the plan's root copies (a
                        // re-insert after a delete lands elsewhere, so a
                        // root hit is always *this* copy).
                        let live = match self.id_map.get(&id) {
                            Some(&Loc::Seg { seg, .. }) => m.sources.contains(&seg),
                            Some(&Loc::Frozen { seg, .. }) => m.sources.contains(&seg),
                            _ => false,
                        };
                        if live {
                            flat.extend_from_slice(&m.flat[i * self.dim..(i + 1) * self.dim]);
                            ids.push(id);
                        }
                    }
                    return;
                }
                _ => {}
            }
        }
        debug_assert!(false, "projected segment {sid} not found");
    }

    /// Clones the build inputs of the front pending op, for building
    /// with no reference to (and in the serving layer, no lock on) the
    /// index. `None` when nothing is pending.
    pub fn pending_build(&self) -> Option<PendingBuild> {
        let op = self.pending.front()?;
        Some(match op {
            PendingOp::Seal(f) => {
                let live_count = f.built_live.iter().filter(|&&l| l).count();
                let mut flat = Vec::with_capacity(live_count * self.dim);
                let mut ids = Vec::with_capacity(live_count);
                for (slot, &id) in f.ids.iter().enumerate() {
                    // Membership was fixed at the freeze: rows deleted
                    // since then are built anyway and counted dead at
                    // install, exactly as a synchronous seal followed by
                    // those deletes would have left them.
                    if f.built_live[slot] {
                        flat.extend_from_slice(&f.rows[slot * self.dim..(slot + 1) * self.dim]);
                        ids.push(id);
                    }
                }
                PendingBuild {
                    token: f.token,
                    kind: BuildKind::Seal { seg_id: f.seg_id },
                    spec: self.spec,
                    metric: self.metric,
                    dim: self.dim,
                    flat,
                    ids,
                }
            }
            PendingOp::Merge(m) => PendingBuild {
                token: m.token,
                kind: BuildKind::Merge { seg_id: m.seg_id },
                spec: self.spec,
                metric: self.metric,
                dim: self.dim,
                flat: m.flat.clone(),
                ids: m.ids.clone(),
            },
        })
    }

    /// Installs a finished build under the caller's short critical
    /// section: the id map is repointed (rows deleted while the build
    /// ran become segment tombstones) and the op leaves the queue.
    /// Returns `false` — leaving the index untouched — when the build is
    /// stale, i.e. its op is no longer at the front of the queue because
    /// a synchronous [`MutableAnn::seal`] (FLUSH) already absorbed it.
    pub fn install_built(&mut self, built: BuiltUnit) -> bool {
        let Some(front) = self.pending.front() else { return false };
        if front.token() != built.token {
            return false;
        }
        let op = self.pending.pop_front().expect("front exists");
        match (op, built.kind) {
            (PendingOp::Seal(f), BuildKind::Seal { seg_id }) => {
                debug_assert_eq!(f.seg_id, seg_id);
                let mut seg = built.segment.expect("a seal always has live rows to build");
                let mut built_slot = 0u32;
                for (slot, &id) in f.ids.iter().enumerate() {
                    if !f.built_live[slot] {
                        continue;
                    }
                    let here = Loc::Frozen { seg: f.seg_id, slot: slot as u32 };
                    if self.id_map.get(&id) == Some(&here) {
                        self.id_map.insert(id, Loc::Seg { seg: f.seg_id, slot: built_slot });
                    } else {
                        // Slots are visited in ascending order.
                        seg.dead.push(built_slot);
                    }
                    built_slot += 1;
                }
                self.segments.push(seg);
            }
            (PendingOp::Merge(m), BuildKind::Merge { .. }) => {
                if let Some(mut seg) = built.segment {
                    for (slot, &id) in m.ids.iter().enumerate() {
                        // FIFO installs guarantee both inputs are real
                        // segments by now: a planned row is live iff the
                        // id map still points into one of them.
                        let in_inputs = matches!(
                            self.id_map.get(&id),
                            Some(&Loc::Seg { seg: s, .. }) if s == m.drop_a || s == m.drop_b
                        );
                        if in_inputs {
                            self.id_map.insert(id, Loc::Seg { seg: m.seg_id, slot: slot as u32 });
                        } else {
                            seg.dead.push(slot as u32);
                        }
                    }
                    self.remove_segment(m.drop_b);
                    self.remove_segment(m.drop_a);
                    self.segments.push(seg);
                } else {
                    self.remove_segment(m.drop_b);
                    self.remove_segment(m.drop_a);
                }
            }
            _ => unreachable!("op kind and build kind always agree on the same token"),
        }
        true
    }

    fn remove_segment(&mut self, seg_id: u32) {
        let pos = self
            .segments
            .iter()
            .position(|s| s.seg_id == seg_id)
            .expect("merge inputs are installed before the merge");
        self.segments.remove(pos);
    }

    /// Builds and installs every pending op, front to back — the
    /// synchronous path (plain inserts, [`MutableAnn::seal`], FLUSH).
    /// On a build failure the op stays at the front of the queue and the
    /// error propagates.
    fn drain_pending(&mut self) -> Result<(), MutateError> {
        while let Some(pb) = self.pending_build() {
            let built = pb.build()?;
            let installed = self.install_built(built);
            debug_assert!(installed, "the front op cannot change under &mut self");
        }
        Ok(())
    }

    /// Exact scan of the live memtable rows honoring the request's id
    /// filter and distance threshold inside the loop: top-`k` by true
    /// distance, ties by external id — the same surrogate-then-finalize
    /// flow the exact oracle ([`dataset::ExactKnn`]) and `verify_topk`
    /// use, so the exact path stays byte-identical to a from-scratch
    /// oracle (the threshold compares the *converted* distance, exactly
    /// like the oracle does, never a surrogate-space approximation).
    fn scan_memtable_request(
        &self,
        q: &[f32],
        req: &SearchRequest,
    ) -> (Vec<Neighbor>, SearchStats) {
        self.scan_buffer_request(
            &self.mem_rows,
            &self.mem_ids,
            &self.mem_live,
            self.mem_pruner(q),
            Loc::Mem,
            q,
            req,
        )
    }

    /// Exact scan of a frozen (pending-seal) buffer: identical to the
    /// memtable scan — rows the background build has not yet sealed keep
    /// answering, with deletes honored through the buffer's live flags.
    fn scan_frozen_request(
        &self,
        f: &FrozenMem,
        q: &[f32],
        req: &SearchRequest,
    ) -> (Vec<Neighbor>, SearchStats) {
        let pruner = if self.sq8_enabled {
            f.sq8.as_ref().and_then(|sq| sq.pruner(q, self.metric))
        } else {
            None
        };
        self.scan_buffer_request(
            &f.rows,
            &f.ids,
            &f.live,
            pruner,
            |slot| Loc::Frozen { seg: f.seg_id, slot },
            q,
            req,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn scan_buffer_request(
        &self,
        rows: &[f32],
        row_ids: &[u32],
        live: &[bool],
        mut pruner: Option<Sq8Pruner<'_>>,
        mk_loc: impl Fn(u32) -> Loc,
        q: &[f32],
        req: &SearchRequest,
    ) -> (Vec<Neighbor>, SearchStats) {
        let k = req.k;
        let mut stats = SearchStats::default();
        let mut heap: std::collections::BinaryHeap<Neighbor> =
            std::collections::BinaryHeap::with_capacity(k + 1);
        debug_assert_eq!(live.len(), row_ids.len());
        for (slot, &id) in row_ids.iter().enumerate() {
            debug_assert_eq!(
                live[slot],
                self.id_map.get(&id) == Some(&mk_loc(slot as u32)),
                "buffer liveness must mirror the id map"
            );
            if !live[slot] {
                continue;
            }
            stats.candidates_scanned += 1;
            if let Some(f) = &req.filter {
                if !f.accepts(id) {
                    continue;
                }
            }
            // SQ8 skip bound (after the liveness/filter checks, before
            // the full-width distance): sound, so hits and counters are
            // unchanged — a skipped row was counted as scanned and could
            // never have pushed into the heap.
            if heap.len() == k {
                if let Some(p) = pruner.as_mut() {
                    if p.skips(slot, heap.peek().expect("non-empty").dist) {
                        stats.sq8_pruned += 1;
                        continue;
                    }
                }
            }
            let s = self
                .metric
                .surrogate_unchecked(&rows[slot * self.dim..(slot + 1) * self.dim], q);
            if let Some(d) = req.max_dist {
                if self.metric.from_surrogate(s) > d {
                    continue;
                }
            }
            let cand = Neighbor { id, dist: s };
            if heap.len() < k {
                heap.push(cand);
                stats.heap_pushes += 1;
            } else if cand < *heap.peek().expect("non-empty") {
                heap.pop();
                heap.push(cand);
                stats.heap_pushes += 1;
            }
        }
        let mut out = heap.into_sorted_vec();
        for n in &mut out {
            n.dist = self.metric.from_surrogate(n.dist);
        }
        (out, stats)
    }

    /// Queries one segment under a request. Two things can hide a row of
    /// a sealed segment from an answer — the request's id filter and a
    /// tombstone — and both reach the spec-built index as one slot-space
    /// [`IdFilter`], which the LCCS schemes test inside their candidate
    /// loop (the default [`AnnIndex::search_with`] over-fetches by the
    /// list's length and filters after):
    ///
    /// * The request's filter is projected into segment-slot space
    ///   through the id map. Only the *live* copy of an id can match, so
    ///   an allowlist projects to the exact live slots — stale copies are
    ///   excluded up front, nothing else needs hiding, and the request
    ///   goes through with its own `k` and `budget` — and a denylist
    ///   projects to the live denied slots.
    /// * In every other case the segment's dead slots join the denylist
    ///   and the budget grows by their number. The index built over those
    ///   rows still proposes them, so the candidate list has to be as
    ///   long as if they were wanted: for an LCCS segment its length is
    ///   `max(λ, 1) + k − 1`, and `λ = max(budget, 1) + dead` with
    ///   `k = req.k` gives the same sum as asking for `k + dead`
    ///   neighbours at the request's budget and dropping the stale ones
    ///   afterwards. Same list, same order, and the `k` nearest live
    ///   candidates of that list either way — so the hits are equal bit
    ///   for bit, while a dead candidate costs a membership test instead
    ///   of a distance, the heap stays `k` wide and the SQ8 skip bound
    ///   has a k-th distance to prune against from the k-th live
    ///   candidate on. (`want` below keeps the sum exact when `k + dead`
    ///   exceeds the segment.)
    ///
    /// Hits come back as slot ids, every one of them live, and are mapped
    /// to external ids.
    fn scan_segment_request(
        &self,
        seg: &Segment,
        q: &[f32],
        req: &SearchRequest,
        scratch: &mut Scratch,
    ) -> (Vec<Neighbor>, SearchStats) {
        let live_slots_of = |f: &IdFilter| -> Vec<u32> {
            f.ids()
                .iter()
                .filter_map(|ext| match self.id_map.get(ext) {
                    Some(&Loc::Seg { seg: sid, slot }) if sid == seg.seg_id => Some(slot),
                    _ => None,
                })
                .collect()
        };
        let n = seg.data.len();
        let k = req.k.min(n);
        let (budget, filter) = match &req.filter {
            Some(f) if f.is_allow() => {
                let slots = live_slots_of(f);
                if slots.is_empty() {
                    // No allowed id lives in this segment: skip it.
                    return (Vec::new(), SearchStats::default());
                }
                (req.budget, Some(IdFilter::allow(slots)))
            }
            deny => {
                let mut hidden = seg.dead.clone();
                if let Some(f) = deny {
                    hidden.extend(live_slots_of(f));
                }
                let want = (req.k + seg.dead.len()).min(n);
                let filter = (!hidden.is_empty()).then(|| IdFilter::deny(hidden));
                (req.budget.max(1) + (want - k), filter)
            }
        };
        let inner = SearchRequest {
            k,
            budget,
            probes: req.probes,
            filter,
            max_dist: req.max_dist,
            fields: ResponseFields::default(),
            // Planning resolves to concrete knobs before the index is
            // consulted, so segment-level requests never carry a target.
            target_recall: None,
            knobs_set: req.knobs_set,
        };
        let resp = seg.index.search_with(q, &inner, scratch);
        let hits = resp
            .hits
            .into_iter()
            .map(|n| {
                let id = seg.ids[n.id as usize];
                debug_assert_eq!(
                    self.id_map.get(&id),
                    Some(&Loc::Seg { seg: seg.seg_id, slot: n.id }),
                    "the mask hides every stale slot"
                );
                Neighbor { id, dist: n.dist }
            })
            .collect();
        (hits, resp.stats)
    }

    /// The dead slots of `seg` as the id map implies them — what
    /// `Segment::dead` is maintained to equal.
    fn dead_slots_by_scan(&self, seg: &Segment) -> Vec<u32> {
        (0..seg.ids.len() as u32)
            .filter(|&slot| {
                self.id_map.get(&seg.ids[slot as usize]) != Some(&Loc::Seg { seg: seg.seg_id, slot })
            })
            .collect()
    }

    /// Rows of sealed segments that are no longer live (tombstoned, or
    /// superseded by a re-insert) and still sit in their segment's index
    /// until a compaction rewrites it. A read of a segment walks
    /// `budget + dead` candidates, so this is the number that says when a
    /// FLUSH or a rebuild is due.
    pub fn dead_rows(&self) -> usize {
        self.segments.iter().map(|s| s.dead.len()).sum()
    }

    /// Extracts the serializable state (see [`LiveState`]). Rows are
    /// copied; the index itself is untouched.
    ///
    /// Pending work folds away: frozen buffers are serialized as
    /// memtable rows (both are exact-scanned, so answers are identical)
    /// and planned merges are dropped (their input segments serialize
    /// as-is; a restored index re-plans compaction at its next
    /// crossing). FLUSH drains pending work first, so daemon snapshots
    /// never hit this fold.
    pub fn state(&self) -> LiveState {
        let segments = self
            .segments
            .iter()
            .map(|s| {
                debug_assert_eq!(s.dead, self.dead_slots_by_scan(s), "segment {}", s.seg_id);
                UnitState {
                    rows: s.data.as_flat().to_vec(),
                    ids: s.ids.clone(),
                    dead: s.dead.clone(),
                }
            })
            .collect();
        let mut mem = UnitState::default();
        for op in &self.pending {
            if let PendingOp::Seal(f) = op {
                let base = mem.ids.len() as u32;
                mem.rows.extend_from_slice(&f.rows);
                mem.ids.extend_from_slice(&f.ids);
                mem.dead.extend(
                    f.live.iter().enumerate().filter(|&(_, &l)| !l).map(|(s, _)| base + s as u32),
                );
            }
        }
        let base = mem.ids.len() as u32;
        mem.rows.extend_from_slice(&self.mem_rows);
        mem.ids.extend_from_slice(&self.mem_ids);
        mem.dead.extend(
            self.mem_live.iter().enumerate().filter(|&(_, &l)| !l).map(|(s, _)| base + s as u32),
        );
        LiveState {
            spec: self.spec,
            metric: self.metric,
            dim: self.dim,
            config: self.config,
            next_id: self.next_id,
            segments,
            memtable: mem,
            wal_gen: self.wal_gen,
        }
    }

    /// Reassembles a live index from persisted state, rebuilding every
    /// segment index through the registry. Builds are seeded and
    /// deterministic, so the reassembled index answers queries
    /// identically to the one [`LiveIndex::state`] was called on — the
    /// serve e2e test pins this across a daemon restart.
    pub fn from_state(state: LiveState) -> Result<LiveIndex, MutateError> {
        let mut live = LiveIndex::new(state.spec, state.metric, state.dim, state.config)?;
        let mut max_id: Option<u32> = None;
        let mut install =
            |map: &mut HashMap<u32, Loc>, unit: &UnitState, mk: &dyn Fn(u32) -> Loc| {
                if unit.rows.len() != unit.ids.len() * state.dim {
                    return Err(MutateError::State(format!(
                        "{} row floats for {} ids at dim {}",
                        unit.rows.len(),
                        unit.ids.len(),
                        state.dim
                    )));
                }
                let mut dead = vec![false; unit.ids.len()];
                for &slot in &unit.dead {
                    let d = dead.get_mut(slot as usize).ok_or_else(|| {
                        MutateError::State(format!(
                            "dead slot {slot} out of range ({} rows)",
                            unit.ids.len()
                        ))
                    })?;
                    *d = true;
                }
                for (slot, &id) in unit.ids.iter().enumerate() {
                    max_id = Some(max_id.map_or(id, |m| m.max(id)));
                    if dead[slot] {
                        continue;
                    }
                    if map.insert(id, mk(slot as u32)).is_some() {
                        return Err(MutateError::State(format!("id {id} is live twice")));
                    }
                }
                // Ascending and duplicate-free whatever order the state
                // listed them in.
                Ok((0..dead.len() as u32).filter(|&slot| dead[slot as usize]).collect::<Vec<u32>>())
            };
        for (pos, unit) in state.segments.iter().enumerate() {
            if unit.ids.is_empty() {
                return Err(MutateError::State(format!("segment {pos} is empty")));
            }
            let seg_id = pos as u32;
            let dead =
                install(&mut live.id_map, unit, &|slot| Loc::Seg { seg: seg_id, slot })?;
            let mut seg = live.build_segment(unit.rows.clone(), unit.ids.clone(), seg_id)?;
            seg.dead = dead;
            live.segments.push(seg);
        }
        let mem_dead = install(&mut live.id_map, &state.memtable, &Loc::Mem)?.len();
        live.mem_rows = state.memtable.rows;
        live.mem_ids = state.memtable.ids;
        live.mem_live = live
            .mem_ids
            .iter()
            .enumerate()
            .map(|(slot, id)| live.id_map.get(id) == Some(&Loc::Mem(slot as u32)))
            .collect();
        live.mem_dead = mem_dead;
        // Codes are derived, not persisted for the memtable: retrain.
        // The skip bound is sound, so answers match the saved index.
        live.train_mem_sq8_if_due();
        live.next_seg_id = live.segments.len() as u32;
        live.next_id = state.next_id.max(max_id.map_or(0, |m| m.saturating_add(1)));
        live.sim = live.segments.iter().map(|s| (s.seg_id, s.ids.len())).collect();
        live.wal_gen = state.wal_gen;
        Ok(live)
    }

    /// Replays write-ahead-log records through the ordinary mutation
    /// path (explicit ids, synchronous seals at the same threshold
    /// crossings), so a snapshot plus its WAL converges to the same
    /// layout the live process reached — the recovery half of the
    /// durability contract in `docs/durability.md`. Torn-tail handling
    /// is the log's job ([`wal::Wal::load`]); records handed here are
    /// intact and were all acknowledged, so a failure to apply one is a
    /// real error, not a crash artifact.
    pub fn apply_wal_records(&mut self, records: &[wal::WalRecord]) -> Result<(), MutateError> {
        for rec in records {
            match rec {
                wal::WalRecord::Insert { dim, rows, ids } => {
                    if *dim as usize != self.dim {
                        return Err(MutateError::DimMismatch {
                            expected: self.dim,
                            got: *dim as usize,
                        });
                    }
                    if rows.len() != ids.len() * self.dim {
                        return Err(MutateError::State(format!(
                            "WAL insert carries {} floats for {} ids at dim {}",
                            rows.len(),
                            ids.len(),
                            self.dim
                        )));
                    }
                    let data = Dataset::from_flat("wal", self.dim, rows.clone());
                    self.insert_rows(&data, Some(ids))?;
                }
                wal::WalRecord::Delete { ids } => {
                    self.delete_ids(ids);
                }
            }
        }
        Ok(())
    }
}

impl MutableAnn for LiveIndex {
    fn insert(&mut self, rows: &Dataset, ids: Option<&[u32]>) -> Result<Vec<u32>, MutateError> {
        self.insert_rows(rows, ids)
    }

    fn delete(&mut self, ids: &[u32]) -> usize {
        self.delete_ids(ids)
    }

    /// Synchronously absorbs all pending background work (building and
    /// installing queued seals and merges in order), then seals whatever
    /// the memtable holds — after this returns there are no frozen
    /// buffers and no queued builds, which is what lets FLUSH snapshot a
    /// fully-sealed layout and truncate the WAL against it.
    fn seal(&mut self) -> Result<bool, MutateError> {
        self.drain_pending()?;
        let had_rows = self.freeze_and_plan().is_some();
        self.drain_pending()?;
        Ok(had_rows)
    }

    fn live_len(&self) -> usize {
        self.id_map.len()
    }
}

impl AnnIndex for LiveIndex {
    fn name(&self) -> &'static str {
        LIVE_METHOD
    }

    fn len(&self) -> usize {
        self.live_len()
    }

    fn index_bytes(&self) -> usize {
        let seg_bytes: usize = self
            .segments
            .iter()
            .map(|s| s.index.index_bytes() + s.ids.len() * 4)
            .sum();
        // The id map is ~(key + value + bucket) per live id; 16 bytes is
        // the close-enough accounting the size axes use elsewhere.
        seg_bytes + (self.mem_ids.len() + self.frozen_rows()) * 4 + self.id_map.len() * 16
    }

    /// [`LiveIndex::search_with`] with the request derived from the bare
    /// triple — kept byte-identical to the pre-redesign query path (no
    /// filter, no threshold ⇒ same per-unit scans, same merge).
    fn query_with(&self, q: &[f32], params: &SearchParams, scratch: &mut Scratch) -> Vec<Neighbor> {
        self.search_with(q, &SearchRequest::from(*params), scratch).hits
    }

    /// Fans the request out across the memtable and every sealed segment
    /// through [`ann::executor`], then merges the per-unit top-k by
    /// `(distance, id)` — deterministic regardless of how the executor
    /// schedules the units (scratch never influences results; it is an
    /// allocation cache only). The request's id filter and each segment's
    /// tombstones reach the segment index as one slot mask (see
    /// `LiveIndex::scan_segment_request`) and the threshold is applied
    /// inside every scan loop, so with exact segments (`linear`) the
    /// answer is byte-identical to a filtered brute-force oracle over the
    /// live rows — the property the crate's proptests pin.
    ///
    /// A fan-out the executor runs inline ([`executor::runs_inline`]: up
    /// to 16 units, i.e. every layout the seal/compaction policy settles
    /// into) is a plain loop that reuses per-segment scratches cached in
    /// the caller's `scratch` — the hot serving path keeps the
    /// allocation-amortization the scratch system exists for. Beyond
    /// that each unit task builds throwaway scratch (a shared cache
    /// cannot be handed to concurrent tasks).
    fn search_with(&self, q: &[f32], req: &SearchRequest, scratch: &mut Scratch) -> SearchResponse {
        assert!(req.k > 0, "k must be positive");
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let t0 = Instant::now();
        // Frozen (pending-seal) buffers are query units exactly like the
        // memtable: rows keep answering while their segment build runs.
        let frozen: Vec<&FrozenMem> = self
            .pending
            .iter()
            .filter_map(|op| match op {
                PendingOp::Seal(f) => Some(f),
                PendingOp::Merge(_) => None,
            })
            .collect();
        let units = 1 + frozen.len() + self.segments.len();
        let mut stats = SearchStats::default();
        let mut merged: Vec<Neighbor> = if executor::runs_inline(units) {
            let cache: &mut Vec<(u32, Scratch)> = scratch.get_or_insert_with(Vec::new);
            // Drop cache entries for compacted-away segments.
            cache.retain(|(sid, _)| self.segments.iter().any(|s| s.seg_id == *sid));
            let (mut out, mem_stats) = self.scan_memtable_request(q, req);
            stats.absorb(&mem_stats);
            for f in &frozen {
                let (hits, f_stats) = self.scan_frozen_request(f, q, req);
                stats.absorb(&f_stats);
                out.extend(hits);
            }
            for seg in &self.segments {
                if !cache.iter().any(|(sid, _)| *sid == seg.seg_id) {
                    cache.push((seg.seg_id, seg.index.make_scratch()));
                }
                let (_, seg_scratch) = cache
                    .iter_mut()
                    .find(|(sid, _)| *sid == seg.seg_id)
                    .expect("just ensured");
                let (hits, seg_stats) = self.scan_segment_request(seg, q, req, seg_scratch);
                stats.absorb(&seg_stats);
                out.extend(hits);
            }
            out
        } else {
            let per_unit = executor::par_map_scratch(units, Scratch::empty, |u, scratch| {
                if u == 0 {
                    self.scan_memtable_request(q, req)
                } else if u <= frozen.len() {
                    self.scan_frozen_request(frozen[u - 1], q, req)
                } else {
                    self.scan_segment_request(&self.segments[u - 1 - frozen.len()], q, req, scratch)
                }
            });
            let mut out = Vec::new();
            for (hits, unit_stats) in per_unit {
                stats.absorb(&unit_stats);
                out.extend(hits);
            }
            out
        };
        merged.sort_unstable();
        merged.truncate(req.k);
        stats.wall_micros = t0.elapsed().as_micros() as u64;
        SearchResponse { hits: merged, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::SynthSpec;

    fn cfg(seal: usize, max_seg: usize) -> LiveConfig {
        LiveConfig { seal_threshold: seal, max_segments: max_seg }
    }

    fn rows(n: usize, dim: usize, seed: u64) -> Dataset {
        SynthSpec::new("live", n, dim).with_clusters(4).generate(seed)
    }

    fn exact_spec() -> IndexSpec {
        IndexSpec::linear()
    }

    #[test]
    fn insert_assigns_ascending_ids_and_queries_see_them() {
        let data = rows(10, 4, 1);
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, 4, cfg(100, 4)).unwrap();
        let ids = live.insert(&data, None).unwrap();
        assert_eq!(ids, (0..10).collect::<Vec<u32>>());
        assert_eq!(live.live_len(), 10);
        assert_eq!(live.segment_count(), 0, "below the seal threshold");
        let hits = live.query(data.get(3), &SearchParams::new(1, 16));
        assert_eq!(hits[0].id, 3);
        assert_eq!(hits[0].dist, 0.0);
    }

    #[test]
    fn build_from_ids_gives_rows_strided_global_ids() {
        let data = rows(9, 4, 7);
        // Shard 1 of a 3-shard cluster: ids 1, 4, 7, …
        let ids: Vec<u32> = (0..9u32).map(|i| 1 + 3 * i).collect();
        let live =
            LiveIndex::build_from_ids(exact_spec(), Metric::Euclidean, &data, cfg(100, 4), &ids)
                .unwrap();
        assert_eq!(live.live_len(), 9);
        for (row, &id) in ids.iter().enumerate() {
            let hits = live.query(data.get(row), &SearchParams::new(1, 16));
            assert_eq!(hits[0].id, id, "row {row} answers under its explicit id");
            assert_eq!(hits[0].dist, 0.0);
        }
        // Auto-assignment continues above the largest explicit id.
        let mut live = live;
        let extra = live.insert(&rows(1, 4, 8), None).unwrap();
        assert_eq!(extra, vec![26], "next_id = max explicit id + 1");
        // Duplicate explicit ids are rejected up front.
        let err = LiveIndex::build_from_ids(
            exact_spec(),
            Metric::Euclidean,
            &rows(2, 4, 9),
            cfg(100, 4),
            &[5, 5],
        );
        assert!(err.is_err(), "duplicate ids must not build");
    }

    #[test]
    fn seal_moves_rows_into_a_segment_with_stable_ids() {
        let data = rows(12, 6, 2);
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, 6, cfg(100, 4)).unwrap();
        live.insert(&data, None).unwrap();
        assert!(live.seal().unwrap());
        assert_eq!(live.segment_count(), 1);
        assert_eq!(live.memtable_rows(), 0);
        assert_eq!(live.live_len(), 12);
        for i in [0u32, 5, 11] {
            let hits = live.query(data.get(i as usize), &SearchParams::new(1, 16));
            assert_eq!(hits[0].id, i, "ids survive the seal");
            assert_eq!(live.vector(i).as_deref(), Some(data.get(i as usize)));
        }
        assert!(!live.seal().unwrap(), "empty memtable seals to nothing");
    }

    #[test]
    fn threshold_triggers_auto_seal_and_compaction_caps_segments() {
        let dim = 5;
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, dim, cfg(4, 2)).unwrap();
        let data = rows(40, dim, 3);
        for i in 0..10 {
            let chunk = Dataset::from_flat("chunk", dim, data.as_flat()[i * 4 * dim..(i + 1) * 4 * dim].to_vec());
            live.insert(&chunk, None).unwrap();
        }
        assert_eq!(live.live_len(), 40);
        assert_eq!(live.memtable_rows(), 0, "every insert batch hit the threshold");
        assert!(live.segment_count() <= 2, "compaction merges the smallest segments");
        // Everything still answers exactly.
        for i in [0u32, 17, 39] {
            let hits = live.query(data.get(i as usize), &SearchParams::new(1, 16));
            assert_eq!(hits[0].id, i);
        }
    }

    #[test]
    fn delete_tombstones_everywhere_and_compaction_drops_them() {
        let dim = 4;
        let data = rows(20, dim, 4);
        let mut live =
            LiveIndex::build_from(exact_spec(), Metric::Euclidean, &data, cfg(100, 1)).unwrap();
        assert_eq!(live.segment_count(), 1);
        // Delete a sealed row and a fresh memtable row.
        let extra = rows(2, dim, 99);
        let new_ids = live.insert(&extra, None).unwrap();
        assert_eq!(new_ids, vec![20, 21]);
        assert_eq!(live.delete(&[3, 21, 777]), 2, "absent ids do not count");
        assert_eq!(live.live_len(), 20);
        let p = SearchParams::new(1, 32);
        assert_ne!(live.query(data.get(3), &p)[0].id, 3, "deleted sealed row is filtered");
        assert_ne!(live.query(extra.get(1), &p)[0].id, 21, "deleted memtable row is filtered");
        assert!(live.vector(3).is_none());
        // Seal + compact to one segment: the tombstoned rows are dropped.
        live.seal().unwrap();
        let layout = live.segment_layout();
        assert_eq!(layout.len(), 1, "max_segments=1 compacts to a single segment");
        assert_eq!(layout[0], (20, 20), "compaction dropped the dead rows");
    }

    #[test]
    fn deleted_id_can_be_reinserted_with_new_data() {
        let dim = 3;
        let data = rows(8, dim, 5);
        let mut live =
            LiveIndex::build_from(exact_spec(), Metric::Euclidean, &data, cfg(100, 4)).unwrap();
        live.delete(&[2]);
        let replacement = Dataset::from_rows("r", &[vec![100.0, 100.0, 100.0]]);
        let ids = live.insert(&replacement, Some(&[2])).unwrap();
        assert_eq!(ids, vec![2]);
        assert_eq!(live.live_len(), 8);
        let hits = live.query(&[100.0, 100.0, 100.0], &SearchParams::new(1, 16));
        assert_eq!(hits[0].id, 2);
        assert_eq!(hits[0].dist, 0.0);
        // The stale copy in the segment never resurfaces.
        let hits = live.query(data.get(2), &SearchParams::new(8, 16));
        assert!(hits.iter().all(|n| n.id != 2 || n.dist > 0.0), "stale copy filtered");
    }

    #[test]
    fn insert_errors_are_typed_and_leave_the_index_unchanged() {
        let dim = 4;
        let data = rows(5, dim, 6);
        let mut live =
            LiveIndex::build_from(exact_spec(), Metric::Euclidean, &data, cfg(100, 4)).unwrap();
        let wrong_dim = rows(2, 7, 1);
        assert_eq!(
            live.insert(&wrong_dim, None),
            Err(MutateError::DimMismatch { expected: 4, got: 7 })
        );
        let two = rows(2, dim, 7);
        assert_eq!(
            live.insert(&two, Some(&[9])).unwrap_err(),
            MutateError::BadIds("1 ids for 2 rows".into())
        );
        assert!(matches!(live.insert(&two, Some(&[9, 9])).unwrap_err(), MutateError::BadIds(_)));
        assert_eq!(live.insert(&two, Some(&[9, 3])).unwrap_err(), MutateError::IdInUse(3));
        assert_eq!(live.live_len(), 5, "failed inserts commit nothing");
        // Explicit ids steer the auto counter past themselves.
        live.insert(&two, Some(&[100, 40])).unwrap();
        let auto = live.insert(&rows(1, dim, 8), None).unwrap();
        assert_eq!(auto, vec![101]);
    }

    #[test]
    fn id_space_boundary_cannot_collide() {
        let dim = 3;
        let one = rows(1, dim, 20);
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, dim, cfg(100, 4)).unwrap();
        // u32::MAX is reserved: an explicit insert of it is rejected, so
        // the auto counter can never wrap onto a live id.
        assert!(matches!(
            live.insert(&one, Some(&[u32::MAX])).unwrap_err(),
            MutateError::BadIds(_)
        ));
        // The largest assignable id works, and afterwards the auto path
        // reports exhaustion instead of silently re-assigning it.
        live.insert(&one, Some(&[u32::MAX - 1])).unwrap();
        assert_eq!(live.insert(&one, None).unwrap_err(), MutateError::IdExhausted);
        assert_eq!(live.live_len(), 1);
    }

    #[test]
    fn threshold_seal_failure_rolls_the_insert_back() {
        let dim = 4;
        // `new` does not validate the spec, so the first threshold-crossing
        // insert is where this bad spec (falconn under Euclidean) fails.
        let mut live = LiveIndex::new(
            IndexSpec::falconn(1, 2),
            Metric::Euclidean,
            dim,
            cfg(4, 4),
        )
        .unwrap();
        let three = rows(3, dim, 21);
        live.insert(&three, None).unwrap();
        let crossing = rows(2, dim, 22);
        let err = live.insert(&crossing, None).unwrap_err();
        assert!(matches!(err, MutateError::Build(_)), "{err}");
        // All-or-nothing: the failing insert committed nothing.
        assert_eq!(live.live_len(), 3);
        assert_eq!(live.memtable_rows(), 3);
        assert!(live.vector(3).is_none() && live.vector(4).is_none());
        // The freed ids are assigned again once the insert can succeed.
        let mut retry =
            LiveIndex::new(exact_spec(), Metric::Euclidean, dim, cfg(4, 4)).unwrap();
        retry.insert(&three, None).unwrap();
        assert_eq!(retry.insert(&crossing, None).unwrap(), vec![3, 4]);
    }

    #[test]
    fn state_round_trip_preserves_answers_and_layout() {
        let dim = 6;
        let data = rows(30, dim, 9);
        let mut live =
            LiveIndex::build_from(IndexSpec::lccs(8).with_w(8.0).with_seed(7), Metric::Euclidean, &data, cfg(100, 4))
                .unwrap();
        live.insert(&rows(10, dim, 10), None).unwrap();
        live.delete(&[1, 35]);
        let state = live.state();
        assert_eq!(state.total_rows(), 40);
        assert_eq!(state.live_rows(), 38);
        let back = LiveIndex::from_state(state.clone()).unwrap();
        assert_eq!(back.live_len(), 38);
        assert_eq!(back.segment_layout(), live.segment_layout());
        assert_eq!(back.memtable_rows(), live.memtable_rows());
        let p = SearchParams::new(5, 64);
        for i in [0usize, 7, 29] {
            let a = live.query(data.get(i), &p);
            let b = back.query(data.get(i), &p);
            assert_eq!(a, b, "rebuilt index answers identically (query {i})");
        }
        // Fresh inserts in the rebuilt index do not collide with old ids.
        let mut back = back;
        let ids = back.insert(&rows(1, dim, 11), None).unwrap();
        assert_eq!(ids, vec![40]);
        // Corrupt states are rejected, not mis-assembled.
        let mut bad = state.clone();
        bad.memtable.ids.push(999);
        assert!(matches!(LiveIndex::from_state(bad), Err(MutateError::State(_))));
        let mut bad = state.clone();
        bad.segments[0].dead.push(u32::MAX);
        assert!(matches!(LiveIndex::from_state(bad), Err(MutateError::State(_))));
        let mut bad = state;
        let dup = bad.segments[0].ids[0];
        bad.memtable.ids.push(dup);
        bad.memtable.rows.extend_from_slice(&vec![0.0; dim]);
        assert!(matches!(LiveIndex::from_state(bad), Err(MutateError::State(_))));
    }

    #[test]
    fn bad_segment_spec_fails_at_build_from_not_mid_serving() {
        let data = rows(10, 4, 12);
        // falconn is Angular-only: the first seal inside build_from must
        // surface the registry's typed rejection.
        // `unwrap_err` needs `T: Debug`, which `Box<dyn AnnIndex>` lacks —
        // unwrap by hand.
        let err = match LiveIndex::build_from(
            IndexSpec::falconn(1, 2),
            Metric::Euclidean,
            &data,
            cfg(100, 4),
        ) {
            Ok(_) => panic!("falconn must not build under Euclidean"),
            Err(e) => e,
        };
        assert!(matches!(err, MutateError::Build(m) if m.contains("Angular-only")));
    }

    /// Brute-force oracle over the live rows: filter + threshold + exact
    /// top-k by (distance, id) — what `search_with` must equal with
    /// `linear` segments.
    fn oracle(
        live: &LiveIndex,
        q: &[f32],
        req: &SearchRequest,
        universe: impl Iterator<Item = u32>,
    ) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = universe
            .filter_map(|id| {
                let v = live.vector(id)?;
                if let Some(f) = &req.filter {
                    if !f.accepts(id) {
                        return None;
                    }
                }
                let dist = live.metric().from_surrogate(live.metric().surrogate(&v, q));
                if let Some(d) = req.max_dist {
                    if dist > d {
                        return None;
                    }
                }
                Some(Neighbor { id, dist })
            })
            .collect();
        all.sort_unstable();
        all.truncate(req.k);
        all
    }

    #[test]
    fn filtered_search_composes_with_deletes_across_units() {
        let dim = 4;
        let data = rows(30, dim, 31);
        // Small seal threshold: rows spread over segments + memtable.
        let mut live =
            LiveIndex::build_from(exact_spec(), Metric::Euclidean, &data, cfg(8, 3)).unwrap();
        live.insert(&rows(5, dim, 32), None).unwrap();
        live.delete(&[2, 9, 17, 31]);
        let q = data.get(9); // its exact row is deleted
        for req in [
            SearchRequest::top_k(6).budget(64),
            SearchRequest::top_k(6).budget(64).filter(IdFilter::allow(
                (0..35).filter(|i| i % 2 == 1).collect::<Vec<u32>>(),
            )),
            SearchRequest::top_k(6).budget(64).filter(IdFilter::deny(vec![0, 1, 3, 5, 9])),
            SearchRequest::top_k(35).budget(64).max_dist(2.5),
            SearchRequest::top_k(35)
                .budget(64)
                .max_dist(3.5)
                .filter(IdFilter::allow((0..20).collect::<Vec<u32>>())),
        ] {
            let got = live.search(q, &req);
            let want = oracle(&live, q, &req, 0..40);
            assert_eq!(got.hits, want, "req {req:?}");
            if req.filter.is_none() && req.max_dist.is_none() {
                assert_eq!(got.hits, live.query(q, &req.params()), "query path unchanged");
            }
            if let Some(f) = &req.filter {
                assert!(got.hits.iter().all(|h| f.accepts(h.id)));
            }
            assert!(got.stats.candidates_scanned > 0);
        }
        // A deleted id in an allowlist never resurfaces.
        let req = SearchRequest::top_k(1).budget(64).filter(IdFilter::allow(vec![9]));
        assert!(live.search(q, &req).hits.is_empty(), "deleted id filtered even when allowed");
    }

    #[test]
    fn memtable_sq8_pruning_is_bit_identical() {
        let dim = 8;
        for metric in [Metric::Euclidean, Metric::Angular] {
            let data = rows(400, dim, 77);
            // Seal threshold above the row count: everything stays in the
            // memtable, which is the unit the SQ8 skip bound covers.
            let mut live = LiveIndex::new(exact_spec(), metric, dim, cfg(10_000, 4)).unwrap();
            live.insert(&data, None).unwrap();
            live.delete(&[3, 250, 399]);
            assert!(
                live.sq8_active(),
                "{metric:?}: ≥{MEM_SQ8_MIN_ROWS} rows must train the memtable codes"
            );
            let queries = rows(16, dim, 78);
            for qi in 0..queries.len() {
                let mut q: Vec<f32> = queries.get(qi).to_vec();
                if metric == Metric::Angular {
                    // Unit queries are what turns the angular bound on.
                    let n = dataset::metric::norm(&q) as f32;
                    q.iter_mut().for_each(|x| *x /= n);
                }
                for req in [
                    SearchRequest::top_k(10).budget(64),
                    SearchRequest::top_k(10)
                        .budget(64)
                        .filter(IdFilter::deny(vec![0, 7, 42, 311])),
                ] {
                    let fast = live.search(&q, &req).hits;
                    live.set_sq8_enabled(false);
                    assert!(!live.sq8_active());
                    let slow = live.search(&q, &req).hits;
                    live.set_sq8_enabled(true);
                    assert_eq!(fast.len(), slow.len(), "{metric:?} query {qi}");
                    for (a, b) in fast.iter().zip(&slow) {
                        assert_eq!(a.id, b.id, "{metric:?} query {qi}");
                        assert_eq!(
                            a.dist.to_bits(),
                            b.dist.to_bits(),
                            "{metric:?} query {qi}: pruned path must be bit-identical"
                        );
                    }
                }
            }
        }
    }

    /// Drives the same op sequence through the inline path and through
    /// the deferred path (with the build/install loop run at `cadence` —
    /// simulating a background worker that lags behind) and requires the
    /// final layouts and answers to be bit-identical.
    fn deferred_matches_inline(spec: IndexSpec, metric: Metric, cadence: usize) {
        let dim = 6;
        let data = rows(64, dim, 50);
        let queries = rows(8, dim, 51);
        let mut inline = LiveIndex::new(spec, metric, dim, cfg(6, 2)).unwrap();
        let mut deferred = LiveIndex::new(spec, metric, dim, cfg(6, 2)).unwrap();
        let mut ops = 0usize;
        for step in 0..16 {
            let chunk =
                Dataset::from_flat("c", dim, data.as_flat()[step * 4 * dim..(step + 1) * 4 * dim].to_vec());
            let a = inline.insert(&chunk, None).unwrap();
            let (b, _) = deferred.insert_deferred(&chunk, None).unwrap();
            assert_eq!(a, b, "id assignment is path-independent");
            if step % 3 == 1 {
                let victims = [step as u32, (step * 3) as u32];
                assert_eq!(inline.delete(&victims), deferred.delete(&victims));
            }
            // Queries keep answering while builds are pending, scanning
            // frozen buffers exactly.
            let q = queries.get(step % queries.len());
            let req = SearchRequest::top_k(5).budget(64);
            assert_eq!(inline.search(q, &req).hits, deferred.search(q, &req).hits, "step {step}");
            ops += 1;
            if ops.is_multiple_of(cadence) {
                while let Some(pb) = deferred.pending_build() {
                    let built = pb.build().unwrap();
                    assert!(deferred.install_built(built));
                }
            }
        }
        // Let the "worker" finish everything, then compare layouts.
        while let Some(pb) = deferred.pending_build() {
            assert!(deferred.install_built(pb.build().unwrap()));
        }
        assert_eq!(inline.segment_layout(), deferred.segment_layout());
        assert_eq!(inline.memtable_rows(), deferred.memtable_rows());
        assert_eq!(inline.live_len(), deferred.live_len());
        for qi in 0..queries.len() {
            let req = SearchRequest::top_k(7).budget(64);
            let a = inline.search(queries.get(qi), &req).hits;
            let b = deferred.search(queries.get(qi), &req).hits;
            assert_eq!(a.len(), b.len(), "query {qi}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!((x.id, x.dist.to_bits()), (y.id, y.dist.to_bits()), "query {qi}");
            }
        }
    }

    #[test]
    fn deferred_inserts_converge_to_the_inline_layout() {
        // Exact segments: answers must match at every step.
        deferred_matches_inline(IndexSpec::linear(), Metric::Euclidean, 5);
        // An aggressive lag: many crossings queue up before any build runs,
        // exercising frozen-buffer merges inside planned cascades.
        deferred_matches_inline(IndexSpec::linear(), Metric::Euclidean, 1000);
    }

    #[test]
    fn deferred_layout_is_identical_for_approximate_specs() {
        // With an approximate scheme the *layout* equality is the whole
        // guarantee (answers follow from it because builds are seeded).
        let spec = IndexSpec::lccs(4).with_w(8.0).with_seed(11);
        let dim = 6;
        let data = rows(64, dim, 52);
        let mut inline = LiveIndex::new(spec, Metric::Euclidean, dim, cfg(8, 2)).unwrap();
        let mut deferred = LiveIndex::new(spec, Metric::Euclidean, dim, cfg(8, 2)).unwrap();
        inline.insert(&data, None).unwrap();
        deferred.insert_deferred(&data, None).unwrap();
        deferred.delete(&[2]);
        inline.delete(&[2]);
        while let Some(pb) = deferred.pending_build() {
            assert!(deferred.install_built(pb.build().unwrap()));
        }
        assert_eq!(inline.segment_layout(), deferred.segment_layout());
        let q = data.get(9);
        let req = SearchRequest::top_k(5).budget(64);
        let (a, b) = (inline.search(q, &req).hits, deferred.search(q, &req).hits);
        assert_eq!(a, b, "seeded builds over identical layouts answer identically");
    }

    #[test]
    fn stale_background_build_is_discarded_after_a_synchronous_seal() {
        let dim = 4;
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, dim, cfg(4, 4)).unwrap();
        let (_, pending) = live.insert_deferred(&rows(4, dim, 60), None).unwrap();
        assert!(pending, "threshold crossing queues a build");
        assert_eq!(live.pending_ops(), 1);
        let pb = live.pending_build().unwrap();
        let built = pb.build().unwrap();
        // FLUSH-style synchronous seal absorbs the queue first…
        live.seal().unwrap();
        assert!(!live.has_pending());
        // …so the out-of-band build is now stale and must be rejected.
        assert!(!live.install_built(built), "stale build installs nothing");
        assert_eq!(live.segment_count(), 1);
        assert_eq!(live.live_len(), 4);
    }

    #[test]
    fn state_with_pending_work_folds_into_the_memtable_and_round_trips() {
        let dim = 5;
        let data = rows(12, dim, 61);
        let mut live = LiveIndex::new(exact_spec(), Metric::Euclidean, dim, cfg(4, 8)).unwrap();
        live.insert_deferred(&data, None).unwrap();
        live.delete(&[1, 7]);
        live.set_wal_gen(3);
        assert!(live.has_pending(), "crossings queued builds");
        assert!(live.frozen_rows() > 0);
        let state = live.state();
        assert_eq!(state.wal_gen, 3);
        assert_eq!(state.total_rows(), 12, "frozen rows fold into the memtable unit");
        assert_eq!(state.live_rows(), 10);
        let back = LiveIndex::from_state(state).unwrap();
        assert_eq!(back.wal_gen(), 3);
        assert_eq!(back.live_len(), 10);
        let req = SearchRequest::top_k(6).budget(64);
        for qi in [0usize, 5, 11] {
            let q = data.get(qi);
            assert_eq!(live.search(q, &req).hits, back.search(q, &req).hits, "query {qi}");
        }
    }

    #[test]
    fn dead_lists_track_the_id_map_through_every_op() {
        fn check(live: &LiveIndex, after: &str) {
            for seg in &live.segments {
                assert_eq!(seg.dead, live.dead_slots_by_scan(seg), "segment {} after {after}", seg.seg_id);
            }
            let by_layout: usize = live.segment_layout().iter().map(|&(rows, alive)| rows - alive).sum();
            assert_eq!(live.dead_rows(), by_layout, "after {after}");
        }
        let dim = 4;
        let data = rows(80, dim, 70);
        let chunk = |from: usize, to: usize| {
            Dataset::from_flat("c", dim, data.as_flat()[from * dim..to * dim].to_vec())
        };
        let mut live =
            LiveIndex::build_from(exact_spec(), Metric::Euclidean, &chunk(0, 20), cfg(8, 3)).unwrap();
        check(&live, "bulk load");
        // Out of order, so the sorted insert is exercised; 99 is absent.
        assert_eq!(live.delete(&[17, 3, 99, 11]), 3);
        check(&live, "deleting sealed rows");
        assert_eq!(live.segments[0].dead, vec![3, 11, 17]);
        // Re-insert a deleted id: the stale copy stays dead where it was.
        live.insert(&chunk(20, 21), Some(&[3])).unwrap();
        check(&live, "re-inserting a deleted id");
        live.delete(&[3]);
        check(&live, "deleting the memtable copy");
        assert_eq!(live.dead_rows(), 3, "memtable tombstones are not segment rows");
        // Threshold seals and the compactions they cascade into.
        for step in 0..5 {
            live.insert(&chunk(21 + step * 8, 29 + step * 8), None).unwrap();
            check(&live, "a threshold crossing");
            live.delete(&[20 + step as u32 * 8, 5 + step as u32]);
            check(&live, "deletes between crossings");
        }
        assert!(live.segment_count() <= 3);
        // Deletes that land while builds are pending become dead slots at
        // install — the seal arm and the merge arm.
        let (ids, pending) = live.insert_deferred(&chunk(61, 77), None).unwrap();
        assert!(pending);
        live.delete(&[ids[1], ids[9], 40]);
        while let Some(pb) = live.pending_build() {
            assert!(live.install_built(pb.build().unwrap()));
            check(&live, "installing a deferred build");
        }
        assert!(live.dead_rows() > 0);
        // A restart restores the lists, whatever order the state lists
        // the dead slots in.
        let mut state = live.state();
        state.segments[0].dead.reverse();
        let back = LiveIndex::from_state(state).unwrap();
        check(&back, "from_state");
        assert_eq!(back.dead_rows(), live.dead_rows());
        assert_eq!(back.state().segments, live.state().segments);
    }

    #[test]
    fn angular_inserts_are_normalized() {
        let mut live =
            LiveIndex::new(exact_spec(), Metric::Angular, 2, cfg(100, 4)).unwrap();
        let raw = Dataset::from_rows("a", &[vec![3.0, 4.0]]);
        live.insert(&raw, None).unwrap();
        let stored = live.vector(0).unwrap();
        assert!((stored[0] - 0.6).abs() < 1e-6 && (stored[1] - 0.8).abs() < 1e-6);
    }
}
