//! The catalog: every index a server instance holds, by name.
//!
//! Since PR 3 the catalog is no longer frozen at startup: the BUILD
//! command constructs an index server-side and [`Catalog::install`]s it.
//! The server wraps the catalog in an `RwLock` — query paths take cheap,
//! uncontended read locks (only the per-index [`IndexStats`] atomics are
//! ever written while serving), and the rare BUILD install takes the
//! write lock for just the map insertion, never for the build itself.
//!
//! Since PR 4 an entry is either [`Backend::Static`] — today's frozen
//! snapshot-restored index, still served lock-free — or
//! [`Backend::Live`]: an [`ann_live::LiveIndex`] behind its own inner
//! `RwLock`, giving single-writer INSERT/DELETE/FLUSH mutation with
//! shared-read queries. All access to a live entry goes through
//! `live_read` / `with_live_write`, which map a poisoned inner lock
//! (a writer panicked mid-mutation) onto a clean error string instead of
//! unwinding the worker thread.

use crate::protocol::IndexInfo;
use crate::snapshot::{SnapError, Snapshot, SNAPSHOT_EXT};
use crate::stats::IndexStats;
use ann::{AnnIndex, MutableAnn};
use ann_live::wal::{wal_path, Wal};
use ann_live::LiveIndex;
use dataset::Dataset;
use plan::CalibrationTable;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

/// What actually answers queries for one catalog entry.
pub enum Backend {
    /// A frozen index over its dataset: the lock-free read path.
    Static {
        /// The restored index.
        index: Box<dyn AnnIndex>,
        /// The dataset the index answers over (kept for dimension checks
        /// and because the index only borrows it via `Arc`).
        data: Arc<Dataset>,
    },
    /// A mutable LSM-style index: single-writer mutation, shared reads.
    /// Boxed: a `LiveIndex` is an order of magnitude bigger than the
    /// static variant, and entries move through `BTreeMap` rebalances.
    Live(Box<RwLock<LiveIndex>>),
}

/// One restored, queryable index plus its serving state.
pub struct ServedIndex {
    /// Catalog name. Authoritative source is the snapshot *container*
    /// (not the file name): renaming a `.snap` file does not rename the
    /// served index. `write_index_snapshot` keeps the two in sync.
    pub name: String,
    /// Method name (paper legend, or `"Live"` for mutable entries).
    pub method: String,
    /// Canonical `ann::spec` string the index was built from; empty when
    /// unknown (pre-meta snapshot, or inserted without provenance). For
    /// live entries: the spec sealed segments are built with.
    pub spec: String,
    /// The index itself.
    pub backend: Backend,
    /// Serving counters.
    pub stats: IndexStats,
    /// The entry's write-ahead log (live entries under a snapshot
    /// directory only; `None` for static entries and diskless servers).
    /// Lock order: always the inner live `RwLock` first, then this —
    /// every writer appends while still holding the index write lock, so
    /// the log's record order is exactly the order mutations applied.
    pub wal: Mutex<Option<Wal>>,
    /// The entry's calibration table (the `plan` crate's measured
    /// recall/latency grid), restored from the snapshot's `CALB` section
    /// or installed by a CALIBRATE sweep; `None` until calibrated. The
    /// mutex is held only to clone or swap the table — planning clones
    /// it out, never computes under the lock.
    pub calibration: Mutex<Option<CalibrationTable>>,
}

/// The message served for any access to a live entry whose inner lock a
/// panicking writer poisoned.
fn poisoned_msg(name: &str) -> String {
    format!(
        "live index {name:?} is poisoned: an earlier mutation panicked mid-write; \
         rebuild the entry (BUILD) to recover"
    )
}

/// Renders a caught panic payload for an error response.
pub(crate) fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_string)
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Shared-read access to a live entry, with lock poison mapped to a
/// clean error string (the worker must answer, not unwind).
pub(crate) fn live_read<'a>(
    lock: &'a RwLock<LiveIndex>,
    name: &str,
) -> Result<RwLockReadGuard<'a, LiveIndex>, String> {
    lock.read().map_err(|_| poisoned_msg(name))
}

/// Runs one mutation under the inner write lock. Poison maps to a clean
/// error, and a *panic inside the mutation* (a segment builder's own
/// invariant assert on hostile input) is caught here: the guard drops
/// during the unwind, poisoning the lock — correctly marking the entry
/// suspect — and the caller gets an error response instead of a dead
/// worker thread.
pub(crate) fn with_live_write<R>(
    lock: &RwLock<LiveIndex>,
    name: &str,
    f: impl FnOnce(&mut LiveIndex) -> Result<R, String>,
) -> Result<R, String> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut guard = lock.write().map_err(|_| poisoned_msg(name))?;
        f(&mut guard)
    }));
    match result {
        Ok(r) => r,
        Err(panic) => Err(format!(
            "live index {name:?}: mutation panicked ({}); the entry is now poisoned — \
             rebuild it to recover",
            panic_message(panic)
        )),
    }
}

impl ServedIndex {
    /// How the entry's vector block is physically served (`mapped` /
    /// `shared` / `owned`). Live entries mutate their rows, so they are
    /// always owned regardless of how their snapshot was opened.
    pub fn load_mode(&self) -> &'static str {
        match &self.backend {
            Backend::Static { data, .. } => data.storage().label(),
            Backend::Live(_) => dataset::StorageKind::Owned.label(),
        }
    }

    /// Whether the SQ8 skip-bound pre-filter covers this entry's scans
    /// (a trained code table spanning every row). A poisoned live entry
    /// reports `false`.
    pub fn sq8_active(&self) -> bool {
        match &self.backend {
            Backend::Static { data, .. } => {
                data.sq8_if_built().is_some_and(|sq| sq.rows() == data.len())
            }
            Backend::Live(lock) => lock.read().map(|live| live.sq8_active()).unwrap_or(false),
        }
    }

    /// Calibration presence (`"none"` / `"fresh"` / `"stale"`) plus the
    /// table's age in seconds — what LIST, STATS and `ann-cli describe`
    /// surface so operators can judge whether planned answers still
    /// describe the index being served.
    pub fn cal_summary(&self) -> (&'static str, u64) {
        let guard = self.calibration.lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            None => ("none", 0),
            Some(t) => {
                let now = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0);
                (if t.stale { "stale" } else { "fresh" }, t.age_secs(now))
            }
        }
    }

    /// Marks the calibration table stale (the index mutated after its
    /// sweep: the table still plans, but honesty demands the label).
    /// No-op when uncalibrated.
    pub fn mark_cal_stale(&self) {
        let mut guard = self.calibration.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(t) = guard.as_mut() {
            t.stale = true;
        }
    }

    /// The wire-format description of this entry. A poisoned live entry
    /// still lists (name, method, spec are lock-free) but reports zero
    /// rows/bytes; its query paths return the full poison error.
    pub fn info(&self) -> IndexInfo {
        let (len, dim, index_bytes) = match &self.backend {
            Backend::Static { index, data } => {
                (data.len() as u64, data.dim() as u32, index.index_bytes() as u64)
            }
            Backend::Live(lock) => match lock.read() {
                Ok(live) => {
                    (live.live_len() as u64, live.dim() as u32, live.index_bytes() as u64)
                }
                Err(_) => (0, 0, 0),
            },
        };
        let (cal, cal_age_secs) = self.cal_summary();
        IndexInfo {
            name: self.name.clone(),
            method: self.method.clone(),
            len,
            dim,
            index_bytes,
            spec: self.spec.clone(),
            load_mode: self.load_mode().to_string(),
            sq8: self.sq8_active(),
            cal: cal.to_string(),
            cal_age_secs,
        }
    }
}

/// A named collection of served indexes.
#[derive(Default)]
pub struct Catalog {
    items: BTreeMap<String, ServedIndex>,
}

impl Catalog {
    /// A catalog serving nothing (still useful: PING/LIST/STATS work, and
    /// the CI smoke test starts `annd` against an empty directory).
    pub fn empty() -> Catalog {
        Catalog::default()
    }

    /// Restores every `*.snap` file in `dir`, in file-name order.
    ///
    /// Each file is opened through [`Snapshot::open_mapped`], so v3
    /// containers serve their vector blocks zero-copy from the page
    /// cache (legacy files and non-unix hosts fall back to an owned
    /// read — byte-identical answers either way; check
    /// [`ServedIndex::load_mode`] to see which path an entry took).
    ///
    /// The directory must exist; a directory with no snapshot files
    /// yields an empty catalog. Non-snapshot files are ignored.
    ///
    /// After the snapshots restore, every live entry's write-ahead log
    /// (`<name>.wal`, if present) is replayed over its snapshot state —
    /// see `Catalog::attach_wals` and `docs/durability.md` — so rows
    /// acknowledged after the last FLUSH survive a crash.
    pub fn load_dir(dir: &Path) -> Result<Catalog, SnapError> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)?
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == SNAPSHOT_EXT))
            .collect();
        paths.sort();
        let mut catalog = Catalog::empty();
        for path in paths {
            catalog.insert_snapshot(Snapshot::open_mapped(&path)?)?;
        }
        catalog.attach_wals(dir)?;
        Ok(catalog)
    }

    /// Attaches a WAL to every live entry (creating an empty log when
    /// none exists) and replays whatever the log holds beyond the
    /// entry's snapshot:
    ///
    /// - A log whose header generation matches the snapshot's `wal_gen`
    ///   is replayed record by record — the restored index then answers
    ///   exactly like the pre-crash one (the crash-consistency contract
    ///   in `docs/durability.md`).
    /// - A torn final record (crash mid-append) is logged and discarded;
    ///   everything before it replays normally. By definition the torn
    ///   record was never fsynced completely, so it was never
    ///   acknowledged.
    /// - A generation mismatch means the log belongs to a different
    ///   snapshot epoch — e.g. the process died between a FLUSH's
    ///   snapshot rename and its WAL truncate, so every logged record is
    ///   already inside the snapshot. Replaying would double-apply;
    ///   instead the log is reported and reset to the snapshot's
    ///   generation.
    ///
    /// Static entries get any stale `<name>.wal` removed: a log left by
    /// a live entry that a static BUILD later replaced must not
    /// resurrect rows on a future restore.
    fn attach_wals(&mut self, dir: &Path) -> Result<(), SnapError> {
        for served in self.items.values_mut() {
            let path = wal_path(dir, &served.name);
            let Backend::Live(lock) = &mut served.backend else {
                std::fs::remove_file(&path).ok();
                continue;
            };
            // The catalog is under construction: no lock can be
            // contended or poisoned yet.
            let live = lock.get_mut().expect("freshly built lock");
            let snap_gen = live.wal_gen();
            let wal = if path.exists() {
                let (mut wal, replay) = Wal::load(&path)?;
                if replay.torn {
                    obs::warn!(
                        "discarded a torn WAL tail (crash mid-append; the torn record was \
                         never acknowledged)",
                        index = served.name
                    );
                }
                if replay.generation == snap_gen {
                    live.apply_wal_records(&replay.records).map_err(|e| {
                        SnapError::Malformed(format!(
                            "replaying WAL for {:?}: {e}",
                            served.name
                        ))
                    })?;
                } else {
                    obs::warn!(
                        "WAL generation does not match the snapshot; its records are \
                         already covered by the snapshot — resetting the log",
                        index = served.name,
                        wal_gen = replay.generation,
                        snap_gen = snap_gen
                    );
                    wal.reset(snap_gen)?;
                }
                wal
            } else {
                Wal::create(&path, snap_gen)?
            };
            *served.wal.get_mut().expect("freshly built mutex") = Some(wal);
        }
        Ok(())
    }

    /// Restores one decoded snapshot into the catalog. A container with a
    /// LIVE section reassembles into a mutable [`LiveIndex`] (rebuilding
    /// its segments through the registry); anything else restores through
    /// the method registry as a static entry.
    pub fn insert_snapshot(&mut self, snap: Snapshot) -> Result<(), SnapError> {
        let calibration = snap.calibration;
        if let Some(state) = snap.live {
            if snap.method != ann_live::LIVE_METHOD {
                return Err(SnapError::Malformed(format!(
                    "LIVE section in a {:?} container",
                    snap.method
                )));
            }
            // Reject a duplicate name before the expensive segment
            // rebuilds, not after.
            if self.items.contains_key(&snap.name) {
                return Err(SnapError::Malformed(format!(
                    "duplicate catalog name {:?}",
                    snap.name
                )));
            }
            let spec = state.spec.to_string();
            let live = LiveIndex::from_state(state)
                .map_err(|e| SnapError::Malformed(format!("reassembling live index: {e}")))?;
            let name = snap.name.clone();
            self.install_live(snap.name, spec, live)?;
            self.set_calibration(&name, calibration);
            return Ok(());
        }
        let data = Arc::new(snap.data);
        let index = eval::registry::restore_index(&snap.method, &snap.payload, data.clone())
            .map_err(SnapError::Restore)?;
        let spec = snap.meta.map(|m| m.spec).unwrap_or_default();
        let name = snap.name.clone();
        self.insert(snap.name, snap.method, spec, index, data)?;
        self.set_calibration(&name, calibration);
        Ok(())
    }

    /// Installs (or clears) an entry's calibration table. Used by the
    /// snapshot restore path and by the CALIBRATE handler.
    pub fn set_calibration(&mut self, name: &str, table: Option<CalibrationTable>) {
        if let Some(served) = self.items.get_mut(name) {
            *served.calibration.get_mut().unwrap_or_else(|e| e.into_inner()) = table;
        }
    }

    /// Inserts an already-built static index (used by in-process
    /// embedding — the example and tests serve without touching disk).
    /// `spec` is the canonical `ann::spec` string, empty when unknown.
    pub fn insert(
        &mut self,
        name: String,
        method: String,
        spec: String,
        index: Box<dyn AnnIndex>,
        data: Arc<Dataset>,
    ) -> Result<(), SnapError> {
        if self.items.contains_key(&name) {
            return Err(SnapError::Malformed(format!("duplicate catalog name {name:?}")));
        }
        self.install(name, method, spec, index, data).map(|_| ())
    }

    /// Inserts or replaces a static entry (the BUILD command's semantics:
    /// rebuilding under an existing name swaps the index in and resets
    /// its counters). Returns whether an entry was replaced.
    pub fn install(
        &mut self,
        name: String,
        method: String,
        spec: String,
        index: Box<dyn AnnIndex>,
        data: Arc<Dataset>,
    ) -> Result<bool, SnapError> {
        self.install_backend(name, method, spec, Backend::Static { index, data })
    }

    /// Inserts or replaces a *live* (mutable) entry. Returns whether an
    /// entry was replaced.
    pub fn install_live(
        &mut self,
        name: String,
        spec: String,
        live: LiveIndex,
    ) -> Result<bool, SnapError> {
        self.install_backend(
            name,
            ann_live::LIVE_METHOD.to_string(),
            spec,
            Backend::Live(Box::new(RwLock::new(live))),
        )
    }

    /// Inserts or replaces an entry of either kind (the tail every BUILD
    /// shares). Returns whether an entry was replaced.
    pub(crate) fn install_backend(
        &mut self,
        name: String,
        method: String,
        spec: String,
        backend: Backend,
    ) -> Result<bool, SnapError> {
        // name and method travel through `put_str` (which asserts the wire
        // cap) in LIST responses, so reject oversized ones here instead
        // of panicking a worker later.
        if name.is_empty() || name.len() > crate::protocol::MAX_NAME {
            return Err(SnapError::Malformed(format!("bad catalog name {name:?}")));
        }
        if method.is_empty() || method.len() > crate::protocol::MAX_NAME {
            return Err(SnapError::Malformed(format!("bad method name {method:?}")));
        }
        let stats = IndexStats::default();
        let replaced = self.items.insert(
            name.clone(),
            ServedIndex {
                name,
                method,
                spec,
                backend,
                stats,
                wal: Mutex::new(None),
                calibration: Mutex::new(None),
            },
        );
        Ok(replaced.is_some())
    }

    /// Looks up an index by catalog name.
    pub fn get(&self, name: &str) -> Option<&ServedIndex> {
        self.items.get(name)
    }

    /// All entries in name order (BTreeMap keeps LIST deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &ServedIndex> {
        self.items.values()
    }

    /// Number of served indexes.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the catalog serves nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_index_snapshot;
    use ann::SearchParams;
    use ann_live::LiveConfig;
    use dataset::{Metric, SynthSpec};
    use lccs_lsh::{LccsLsh, LccsParams, MpLccsLsh, MpParams};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("annd-cat-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Unwraps a static backend (most tests exercise that path).
    fn static_index(served: &ServedIndex) -> &dyn AnnIndex {
        match &served.backend {
            Backend::Static { index, .. } => index.as_ref(),
            Backend::Live(_) => panic!("expected a static entry"),
        }
    }

    #[test]
    fn load_dir_restores_in_name_order() {
        let data = Arc::new(SynthSpec::new("cat", 250, 12).with_clusters(5).generate(8));
        let params = LccsParams::euclidean(8.0).with_m(8);
        let single = LccsLsh::build(data.clone(), Metric::Euclidean, &params);
        let mp = MpLccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &params,
            MpParams { probes: 9, max_alts: 4 },
        );
        let dir = tmp_dir("order");
        let meta = crate::snapshot::SnapMeta::of_build(
            &"mp-lccs:m=8,w=8".parse().unwrap(),
            0.25,
            data.len() as u64,
        );
        write_index_snapshot(&dir, "b-mp", &mp, &data, Some(meta)).unwrap();
        write_index_snapshot(&dir, "a-single", &single, &data, None).unwrap();
        std::fs::write(dir.join("README.txt"), "not a snapshot").unwrap();

        let catalog = Catalog::load_dir(&dir).unwrap();
        assert_eq!(catalog.len(), 2);
        let names: Vec<&str> = catalog.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a-single", "b-mp"], "LIST order is name order");
        let served = catalog.get("a-single").unwrap();
        assert_eq!(served.method, "LCCS-LSH");
        assert_eq!(served.spec, "", "meta-less snapshot serves with an unknown spec");
        assert_eq!(
            catalog.get("b-mp").unwrap().spec,
            "mp-lccs:m=8,w=8",
            "snapshot meta supplies the served spec string"
        );
        let p = SearchParams::new(3, 32);
        assert_eq!(
            static_index(served).query(data.get(4), &p),
            AnnIndex::query(&single, data.get(4), &p),
            "restored index answers identically"
        );
        // v3 snapshots on unix serve their vector block zero-copy, and
        // the build-primed SQ8 table rides along in the container.
        if cfg!(unix) {
            assert_eq!(served.load_mode(), "mapped");
        }
        assert!(served.sq8_active(), "SQ8C section restores the pre-filter");
        let info = served.info();
        assert_eq!(info.load_mode, served.load_mode());
        assert!(info.sq8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_serves_nothing_and_missing_dir_errors() {
        let dir = tmp_dir("empty");
        assert!(Catalog::load_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(Catalog::load_dir(&dir.join("missing")), Err(SnapError::Io(_))));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let data = Arc::new(SynthSpec::new("dup", 100, 8).generate(1));
        let idx = || {
            Box::new(LccsLsh::build(
                data.clone(),
                Metric::Euclidean,
                &LccsParams::euclidean(8.0).with_m(8),
            )) as Box<dyn AnnIndex>
        };
        let mut c = Catalog::empty();
        c.insert("x".into(), "LCCS-LSH".into(), "lccs:m=8,w=8".into(), idx(), data.clone())
            .unwrap();
        assert!(c
            .insert("x".into(), "LCCS-LSH".into(), "lccs:m=8,w=8".into(), idx(), data.clone())
            .is_err());
    }

    #[test]
    fn install_replaces_and_resets_counters() {
        let data = Arc::new(SynthSpec::new("repl", 100, 8).generate(1));
        let idx = || {
            Box::new(LccsLsh::build(
                data.clone(),
                Metric::Euclidean,
                &LccsParams::euclidean(8.0).with_m(8),
            )) as Box<dyn AnnIndex>
        };
        let mut c = Catalog::empty();
        let replaced = c
            .install("x".into(), "LCCS-LSH".into(), "lccs:m=8,w=8".into(), idx(), data.clone())
            .unwrap();
        assert!(!replaced);
        c.get("x").unwrap().stats.record_query(10);
        let replaced = c
            .install("x".into(), "LCCS-LSH".into(), "lccs:m=8,w=8,seed=2".into(), idx(), data.clone())
            .unwrap();
        assert!(replaced, "same name swaps the entry");
        assert_eq!(c.len(), 1);
        assert_eq!(c.get("x").unwrap().spec, "lccs:m=8,w=8,seed=2");
        assert_eq!(
            c.get("x").unwrap().stats.snapshot("x", "", "owned", false).queries,
            0,
            "fresh counters"
        );
    }

    fn live_entry() -> Catalog {
        let data = SynthSpec::new("lv", 50, 6).generate(2);
        let live = LiveIndex::build_from(
            "linear".parse().unwrap(),
            Metric::Euclidean,
            &data,
            LiveConfig::default(),
        )
        .unwrap();
        let mut c = Catalog::empty();
        assert!(!c.install_live("lv".into(), "linear".into(), live).unwrap());
        c
    }

    #[test]
    fn live_entries_list_and_replace_like_static_ones() {
        let mut c = live_entry();
        let info = c.get("lv").unwrap().info();
        assert_eq!(info.method, ann_live::LIVE_METHOD);
        assert_eq!((info.len, info.dim), (50, 6));
        assert_eq!(info.spec, "linear");
        // A live entry can be replaced by a static one and vice versa.
        let data = Arc::new(SynthSpec::new("st", 30, 6).generate(3));
        let idx = Box::new(LccsLsh::build(
            data.clone(),
            Metric::Euclidean,
            &LccsParams::euclidean(8.0).with_m(8),
        )) as Box<dyn AnnIndex>;
        assert!(c.install("lv".into(), "LCCS-LSH".into(), "lccs:m=8".into(), idx, data).unwrap());
        assert!(matches!(c.get("lv").unwrap().backend, Backend::Static { .. }));
    }

    /// The poison satellite: after a writer panic inside the inner lock,
    /// both read and write helpers must answer with a clean error string,
    /// never propagate the panic into the (worker) thread.
    #[test]
    fn poisoned_live_lock_maps_to_clean_errors() {
        let c = live_entry();
        let served = c.get("lv").unwrap();
        let Backend::Live(lock) = &served.backend else { panic!("live entry") };

        // A mutation that panics: caught, reported, and the lock poisons.
        let err = with_live_write(lock, "lv", |_live| -> Result<(), String> {
            panic!("builder invariant violated")
        })
        .unwrap_err();
        assert!(err.contains("mutation panicked"), "{err}");
        assert!(err.contains("builder invariant violated"), "{err}");
        assert!(lock.is_poisoned(), "the panicking writer must poison the lock");

        // Every subsequent access maps poison to a clean error.
        let err = live_read(lock, "lv").err().expect("read maps poison");
        assert!(err.contains("poisoned"), "{err}");
        let err = with_live_write(lock, "lv", |live| Ok(live.live_len())).unwrap_err();
        assert!(err.contains("poisoned"), "{err}");

        // LIST still works: lock-free fields intact, sizes zeroed.
        let info = served.info();
        assert_eq!(info.method, ann_live::LIVE_METHOD);
        assert_eq!((info.len, info.dim, info.index_bytes), (0, 0, 0));
    }

    #[test]
    fn live_snapshot_round_trips_through_the_catalog() {
        use ann::MutableAnn;
        let data = SynthSpec::new("rt", 40, 5).generate(4);
        let mut live = LiveIndex::build_from(
            "lccs:m=8,w=8,seed=9".parse().unwrap(),
            Metric::Euclidean,
            &data,
            LiveConfig { seal_threshold: 8, max_segments: 2 },
        )
        .unwrap();
        live.insert(&SynthSpec::new("more", 3, 5).generate(5), None).unwrap();
        live.delete(&[1]);
        let state = live.state();
        let dir = tmp_dir("livert");
        let meta = crate::snapshot::SnapMeta::of_build(
            &state.spec,
            0.1,
            state.live_rows() as u64,
        );
        crate::snapshot::stage_live_snapshot(&dir, "lv", &state, &meta, None)
            .unwrap()
            .commit()
            .unwrap();
        let catalog = Catalog::load_dir(&dir).unwrap();
        let served = catalog.get("lv").unwrap();
        assert_eq!(served.method, ann_live::LIVE_METHOD);
        assert_eq!(served.spec, "lccs:m=8,w=8,seed=9");
        let Backend::Live(lock) = &served.backend else { panic!("live entry") };
        let reloaded = live_read(lock, "lv").unwrap();
        assert_eq!(reloaded.live_len(), 42);
        let p = SearchParams::new(4, 32);
        for i in [0usize, 20, 39] {
            assert_eq!(
                AnnIndex::query(&*reloaded, data.get(i), &p),
                AnnIndex::query(&live, data.get(i), &p),
                "reloaded live index answers identically (query {i})"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
