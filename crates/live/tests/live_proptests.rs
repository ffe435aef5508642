//! Property tests: random interleavings of insert / delete / query /
//! seal (and the compactions they trigger) against a naive `Vec`-backed
//! oracle.
//!
//! The configuration under test is the **exact** one — Euclidean metric
//! with `linear` (exact-scan) segments — where the live index's merged
//! top-k must be *byte-identical* to brute force over the current live
//! rows: same ids, same distance bits, same (distance, id) order. On top
//! of the oracle equivalence, every case checks id stability: whatever
//! external id a row got at insert still retrieves exactly that row after
//! any number of seals and compactions.
//!
//! One property covers approximate segments too: with tombstones in a
//! sealed LCCS, MP-LCCS or exact segment, the masked read equals the
//! `k + dead` over-fetch it replaced (`overfetch_reference`), bit for bit.

use ann::{AnnIndex, IdFilter, IndexSpec, MutableAnn, SearchParams, SearchRequest};
use ann_live::{LiveConfig, LiveIndex};
use dataset::exact::Neighbor;
use dataset::{Dataset, Metric, SynthSpec};
use proptest::collection::vec;
use proptest::prelude::*;

/// Shared row pool the interleavings draw inserts and queries from.
/// Gaussian synthetic data: distance ties across distinct rows are
/// (measure-)zero, so (distance, id) ordering is unambiguous.
fn pool() -> Dataset {
    SynthSpec::new("pool", 600, 8).with_clusters(6).generate(42)
}

/// The oracle: live rows as plain (id, row) pairs, queried by brute
/// force with the same surrogate-then-finalize arithmetic the exact
/// scans use, so equality can be asserted on raw f64 bits.
struct Oracle {
    rows: Vec<(u32, Vec<f32>)>,
}

impl Oracle {
    fn top_k(&self, q: &[f32], k: usize) -> Vec<(u32, u64)> {
        let mut all: Vec<Neighbor> = self
            .rows
            .iter()
            .map(|(id, row)| Neighbor {
                id: *id,
                dist: Metric::Euclidean.surrogate_unchecked(row, q),
            })
            .collect();
        all.sort_unstable();
        all.truncate(k);
        all.iter()
            .map(|n| (n.id, Metric::Euclidean.from_surrogate(n.dist).to_bits()))
            .collect()
    }

    fn delete(&mut self, id: u32) -> bool {
        let before = self.rows.len();
        self.rows.retain(|(i, _)| *i != id);
        self.rows.len() != before
    }

    /// Filtered range top-k: the same brute force restricted to ids the
    /// filter accepts and rows within `max_dist` — what
    /// `LiveIndex::search` must match bit for bit with exact segments.
    fn filtered_top_k(&self, q: &[f32], req: &SearchRequest) -> Vec<(u32, u64)> {
        let mut all: Vec<Neighbor> = self
            .rows
            .iter()
            .filter(|(id, _)| req.filter.as_ref().is_none_or(|f| f.accepts(*id)))
            .map(|(id, row)| Neighbor {
                id: *id,
                dist: Metric::Euclidean.surrogate_unchecked(row, q),
            })
            .filter(|n| {
                req.max_dist
                    .is_none_or(|d| Metric::Euclidean.from_surrogate(n.dist) <= d)
            })
            .collect();
        all.sort_unstable();
        all.truncate(req.k);
        all.iter()
            .map(|n| (n.id, Metric::Euclidean.from_surrogate(n.dist).to_bits()))
            .collect()
    }
}

fn bits(ns: &[Neighbor]) -> Vec<(u32, u64)> {
    ns.iter().map(|n| (n.id, n.dist.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One random interleaving per case: ops drive the live index and the
    /// oracle in lockstep; every query op (and a final sweep) must agree
    /// bit for bit.
    #[test]
    fn interleavings_match_the_exact_oracle(
        ops in vec((0u32..=3, any::<u32>()), 1..=40),
        seal_threshold in 2usize..=12,
        max_segments in 1usize..=3,
    ) {
        let pool = pool();
        let cfg = LiveConfig { seal_threshold, max_segments };
        let mut live =
            LiveIndex::new(IndexSpec::linear(), Metric::Euclidean, pool.dim(), cfg).unwrap();
        let mut oracle = Oracle { rows: Vec::new() };
        let mut next_pool = 0usize;

        for (op, arg) in ops {
            match op {
                // Insert a batch of 1–4 fresh pool rows.
                0 => {
                    let n = 1 + (arg as usize) % 4;
                    let flat: Vec<f32> = pool.as_flat()
                        [next_pool * pool.dim()..(next_pool + n) * pool.dim()]
                        .to_vec();
                    let batch = Dataset::from_flat("batch", pool.dim(), flat);
                    let ids = live.insert(&batch, None).expect("insert");
                    prop_assert_eq!(ids.len(), n);
                    for (i, id) in ids.iter().enumerate() {
                        oracle.rows.push((*id, pool.get(next_pool + i).to_vec()));
                    }
                    next_pool += n;
                }
                // Delete one id — usually a live one, sometimes absent.
                1 => {
                    let id = if oracle.rows.is_empty() || arg % 5 == 0 {
                        1_000_000 + arg % 7 // never assigned
                    } else {
                        oracle.rows[arg as usize % oracle.rows.len()].0
                    };
                    let removed = live.delete(&[id]);
                    prop_assert_eq!(removed == 1, oracle.delete(id), "delete {}", id);
                }
                // Explicit seal (threshold-triggered ones happen inside
                // insert; both paths may cascade into compaction).
                2 => {
                    live.seal().expect("seal");
                }
                // Query: top-k over a pool row must equal the oracle.
                _ => {
                    if live.live_len() == 0 {
                        continue;
                    }
                    let k = 1 + (arg as usize) % 12;
                    let q = pool.get(arg as usize % pool.len());
                    let got = bits(&live.query(q, &SearchParams::new(k, 1)));
                    let want = oracle.top_k(q, k.min(oracle.rows.len()));
                    prop_assert_eq!(got, want, "query k={}", k);
                }
            }
            prop_assert_eq!(live.live_len(), oracle.rows.len());
        }

        // Final sweep: a handful of fixed queries, deeper k.
        for qi in [0usize, 99, 251, 402] {
            if oracle.rows.is_empty() {
                break;
            }
            let k = 10.min(oracle.rows.len());
            let got = bits(&live.query(pool.get(qi), &SearchParams::new(k, 1)));
            prop_assert_eq!(got, oracle.top_k(pool.get(qi), k), "final sweep query {}", qi);
        }

        // Id stability: every live id still retrieves exactly the row it
        // was assigned at insert, wherever seals/compactions moved it.
        for (id, row) in &oracle.rows {
            prop_assert_eq!(
                live.vector(*id).as_deref(),
                Some(row.as_slice()),
                "id {} must keep its row",
                id
            );
        }
        prop_assert!(
            live.segment_count() <= max_segments.max(1),
            "compaction must cap segments at {} (got {})",
            max_segments,
            live.segment_count()
        );
    }

    /// Filtered + range search under random insert/delete interleavings:
    /// after every mutation burst, allowlist / denylist / threshold
    /// requests over the live index must equal the brute-force oracle
    /// restricted the same way — bit for bit, including the interaction
    /// with tombstones (a deleted id never resurfaces even when a filter
    /// explicitly allows it).
    #[test]
    fn filtered_search_matches_the_oracle_under_mutation(
        ops in vec((0u32..=1, any::<u32>()), 1..=24),
        seal_threshold in 2usize..=10,
        max_segments in 1usize..=3,
        probe in any::<u32>(),
    ) {
        let pool = pool();
        let cfg = LiveConfig { seal_threshold, max_segments };
        let mut live =
            LiveIndex::new(IndexSpec::linear(), Metric::Euclidean, pool.dim(), cfg).unwrap();
        let mut oracle = Oracle { rows: Vec::new() };
        let mut next_pool = 0usize;

        for (op, arg) in ops {
            match op {
                0 => {
                    let n = 1 + (arg as usize) % 4;
                    let flat: Vec<f32> = pool.as_flat()
                        [next_pool * pool.dim()..(next_pool + n) * pool.dim()]
                        .to_vec();
                    let batch = Dataset::from_flat("batch", pool.dim(), flat);
                    let ids = live.insert(&batch, None).expect("insert");
                    for (i, id) in ids.iter().enumerate() {
                        oracle.rows.push((*id, pool.get(next_pool + i).to_vec()));
                    }
                    next_pool += n;
                }
                _ => {
                    if oracle.rows.is_empty() {
                        continue;
                    }
                    let id = oracle.rows[arg as usize % oracle.rows.len()].0;
                    live.delete(&[id]);
                    oracle.delete(id);
                }
            }
            if oracle.rows.is_empty() {
                continue;
            }
            let q = pool.get(probe as usize % pool.len());
            let k = 1 + (probe as usize) % 8;
            // The id universe seen so far, split into thirds for filters;
            // the threshold is a mid-range distance so both sides occur.
            let universe: Vec<u32> = (0..next_pool as u32).collect();
            let allow: Vec<u32> = universe.iter().copied().filter(|i| i % 3 == 0).collect();
            let deny: Vec<u32> = universe.iter().copied().filter(|i| i % 3 == 1).collect();
            let mid = {
                let exact = oracle.top_k(q, oracle.rows.len());
                f64::from_bits(exact[exact.len() / 2].1)
            };
            for req in [
                SearchRequest::top_k(k).budget(1).filter(IdFilter::allow(allow.clone())),
                SearchRequest::top_k(k).budget(1).filter(IdFilter::deny(deny.clone())),
                SearchRequest::top_k(k).budget(1).max_dist(mid),
                SearchRequest::top_k(k)
                    .budget(1)
                    .filter(IdFilter::deny(deny.clone()))
                    .max_dist(mid),
            ] {
                let got = bits(&live.search(q, &req).hits);
                let want = oracle.filtered_top_k(q, &req);
                prop_assert_eq!(got, want, "k={} req={:?}", k, &req);
            }
        }
    }

    /// Memtable-scale SQ8 pruning: once the memtable is big enough to
    /// train a code table, the pruned scan must stay bit-identical to
    /// the same index with the skip bound disabled — across random
    /// tombstones, filters, range thresholds, and k. (The tests above
    /// use small memtables, which never train codes; this one pins the
    /// fast path itself.)
    #[test]
    fn memtable_sq8_pruning_matches_the_unpruned_scan(
        deletes in vec(any::<u32>(), 0..=24),
        probe in any::<u32>(),
        k in 1usize..=12,
        modulus in 2u32..=4,
    ) {
        let pool = pool();
        // Seal threshold above the pool size: every row stays in the
        // memtable, the unit the SQ8 skip bound covers.
        let cfg = LiveConfig { seal_threshold: 1 << 20, max_segments: 2 };
        let mut live =
            LiveIndex::new(IndexSpec::linear(), Metric::Euclidean, pool.dim(), cfg).unwrap();
        live.insert(&pool, None).expect("insert");
        let doomed: Vec<u32> = deletes.iter().map(|d| d % pool.len() as u32).collect();
        live.delete(&doomed);
        prop_assert!(live.sq8_active(), "pool is large enough to train memtable codes");

        let q = pool.get(probe as usize % pool.len());
        let deny: Vec<u32> =
            (0..pool.len() as u32).filter(|i| i % modulus == 0).collect();
        for req in [
            SearchRequest::top_k(k).budget(1),
            SearchRequest::top_k(k).budget(1).filter(IdFilter::deny(deny.clone())),
            SearchRequest::top_k(k).budget(1).max_dist(2.5),
        ] {
            let fast = bits(&live.search(q, &req).hits);
            live.set_sq8_enabled(false);
            prop_assert!(!live.sq8_active());
            let slow = bits(&live.search(q, &req).hits);
            live.set_sq8_enabled(true);
            prop_assert_eq!(fast, slow, "req={:?}", &req);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The durability contract end to end, in-process: random
    /// insert/delete/flush interleavings run through the deferred write
    /// path with a lagging background worker, every acknowledged op
    /// appended to a real WAL file, every FLUSH snapshotting under a
    /// bumped generation and truncating the log. Then the index is
    /// dropped mid-flight (the in-process `kill -9`) and recovery —
    /// the last flushed snapshot plus a WAL replay — must answer
    /// bit-identically to the uncrashed index, and converge to the
    /// byte-identical segment layout once the uncrashed side quiesces.
    #[test]
    fn crash_replay_of_snapshot_plus_wal_matches_the_uncrashed_index(
        ops in vec((0u32..=2, any::<u32>()), 1..=30),
        seal_threshold in 2usize..=10,
        max_segments in 1usize..=3,
        lag in 1usize..=6,
    ) {
        use ann_live::wal::{Wal, WalRecord, WalSync};
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("ann-crash-{}-{case}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_file = ann_live::wal::wal_path(&dir, "t");

        let pool = pool();
        let cfg = LiveConfig { seal_threshold, max_segments };
        let mut live =
            LiveIndex::new(IndexSpec::linear(), Metric::Euclidean, pool.dim(), cfg).unwrap();
        let mut wal = Wal::create(&wal_file, 0).unwrap();
        let mut flushed = live.state(); // the "snapshot on disk", generation 0
        let mut next_pool = 0usize;
        let mut ticks = 0usize;

        for (op, arg) in ops {
            match op {
                // Acknowledged insert: mutate first, then log the rows as
                // received with the ids actually assigned — the exact
                // discipline the daemon follows before acking.
                0 => {
                    let n = 1 + (arg as usize) % 4;
                    let flat: Vec<f32> = pool.as_flat()
                        [next_pool * pool.dim()..(next_pool + n) * pool.dim()]
                        .to_vec();
                    let batch = Dataset::from_flat("batch", pool.dim(), flat.clone());
                    let (ids, _) = live.insert_deferred(&batch, None).expect("insert");
                    wal.append(
                        &WalRecord::Insert { dim: pool.dim() as u32, rows: flat, ids },
                        WalSync::Batch,
                    )
                    .unwrap();
                    next_pool += n;
                }
                // Acknowledged delete (possibly of an absent id — logged
                // either way; replay no-ops identically).
                1 => {
                    let id = arg % (next_pool.max(1) as u32);
                    live.delete(&[id]);
                    wal.append(&WalRecord::Delete { ids: vec![id] }, WalSync::Batch).unwrap();
                }
                // FLUSH: drain every pending build, snapshot under a
                // bumped generation, truncate the WAL to that generation.
                _ => {
                    live.seal().expect("seal");
                    let gen = live.wal_gen() + 1;
                    live.set_wal_gen(gen);
                    flushed = live.state();
                    wal.reset(gen).unwrap();
                }
            }
            // A lagging background worker: builds land every `lag` ops.
            ticks += 1;
            if ticks.is_multiple_of(lag) {
                if let Some(pb) = live.pending_build() {
                    let built = pb.build().expect("build");
                    prop_assert!(live.install_built(built));
                }
            }
        }

        // Crash. Recovery reads the snapshot and replays the log over it.
        drop(wal);
        let (_wal2, replay) = Wal::load(&wal_file).unwrap();
        prop_assert!(!replay.torn);
        prop_assert_eq!(replay.generation, flushed.wal_gen, "log and snapshot pair up");
        let mut recovered = LiveIndex::from_state(flushed).unwrap();
        recovered.apply_wal_records(&replay.records).expect("replay");

        prop_assert_eq!(recovered.live_len(), live.live_len());
        for qi in [0usize, 123, 321, 517] {
            if live.live_len() == 0 {
                break;
            }
            let q = pool.get(qi);
            let k = 1 + qi % 9;
            let got = bits(&recovered.query(q, &SearchParams::new(k, 1)));
            let want = bits(&live.query(q, &SearchParams::new(k, 1)));
            prop_assert_eq!(got, want, "recovered answers must match pre-crash (query {})", qi);
        }
        // Once the uncrashed side finishes its queued builds, the layouts
        // are byte-identical — replay reached the same seal/merge plan.
        while let Some(pb) = live.pending_build() {
            prop_assert!(live.install_built(pb.build().expect("build")));
        }
        prop_assert_eq!(live.segment_layout(), recovered.segment_layout());
        prop_assert_eq!(live.memtable_rows(), recovered.memtable_rows());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The tombstone over-fetch the live read path used before tombstones
/// became a mask, rebuilt from the public state alone: every sealed
/// segment's index is rebuilt from `(spec, rows)` (builds are seeded), a
/// segment with `dead` stale rows is asked for `k + dead` neighbours at
/// the request's own budget — its id filter projected onto the live
/// slots, an allowlist needing no over-fetch — and stale hits are
/// dropped afterwards; the memtable is scanned exactly. The masked read
/// must return these hits bit for bit.
fn overfetch_reference(live: &LiveIndex, q: &[f32], req: &SearchRequest) -> Vec<(u32, u64)> {
    let state = live.state();
    let metric = state.metric;
    let mut all: Vec<Neighbor> = Vec::new();
    for unit in &state.segments {
        let n = unit.ids.len();
        let is_dead = |slot: u32| unit.dead.contains(&slot);
        let data = std::sync::Arc::new(Dataset::from_flat("ref", state.dim, unit.rows.clone()));
        let index = eval::registry::build_index(
            &state.spec,
            &eval::registry::BuildCtx { data: &data, metric },
        )
        .expect("segment rebuild");
        let mut inner = req.clone();
        inner.k = (req.k + unit.dead.len()).min(n);
        if let Some(f) = &req.filter {
            let slots: Vec<u32> =
                (0..n as u32).filter(|&s| !is_dead(s) && f.ids().contains(&unit.ids[s as usize])).collect();
            if f.is_allow() {
                if slots.is_empty() {
                    continue;
                }
                inner.k = req.k.min(n);
                inner.filter = Some(IdFilter::allow(slots));
            } else {
                inner.filter = (!slots.is_empty()).then(|| IdFilter::deny(slots));
            }
        }
        let hits = index.search(q, &inner).hits;
        all.extend(
            hits.iter()
                .filter(|h| !is_dead(h.id))
                .map(|h| Neighbor { id: unit.ids[h.id as usize], dist: h.dist }),
        );
    }
    let mem = &state.memtable;
    for (slot, &id) in mem.ids.iter().enumerate() {
        if mem.dead.contains(&(slot as u32)) || req.filter.as_ref().is_some_and(|f| !f.accepts(id)) {
            continue;
        }
        let row = &mem.rows[slot * state.dim..(slot + 1) * state.dim];
        let dist = metric.from_surrogate(metric.surrogate_unchecked(row, q));
        if req.max_dist.is_none_or(|d| dist <= d) {
            all.push(Neighbor { id, dist });
        }
    }
    all.sort_unstable();
    all.truncate(req.k);
    bits(&all)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tombstones as an in-loop mask answer exactly like the `k + dead`
    /// over-fetch they replaced — ids and distance bits — for LCCS,
    /// MP-LCCS and exact segments, under random inserts, deletes of old
    /// and new rows, delete-then-reinsert, seals, threshold crossings
    /// with their compactions and a restart from state; for plain,
    /// deny-filtered, allow-filtered, range, `budget = 0` and multi-probe
    /// requests, and for `k` beyond what a segment has left alive.
    #[test]
    fn masked_tombstones_match_the_overfetch_reference(
        ops in vec((0u32..=5, any::<u32>()), 4..=28),
        scheme in 0usize..3,
        seal_threshold in 6usize..=24,
        max_segments in 1usize..=3,
        probe in any::<u32>(),
    ) {
        let pool = pool();
        let spec = [
            IndexSpec::lccs(8).with_w(6.0).with_seed(5),
            IndexSpec::mp_lccs(8).with_w(6.0).with_seed(5),
            IndexSpec::linear(),
        ][scheme];
        let cfg = LiveConfig { seal_threshold, max_segments };
        // Start from a sealed segment so tombstones have somewhere to go.
        let bulk = pool.truncated(40);
        let mut live = LiveIndex::build_from(spec, Metric::Euclidean, &bulk, cfg).unwrap();
        let mut alive: Vec<u32> = (0..40).collect();
        let mut gone: Vec<u32> = Vec::new();
        let mut next_pool = 40usize;
        let row_of = |p: usize| Dataset::from_flat("row", pool.dim(), pool.get(p).to_vec());

        for (step, (op, arg)) in ops.into_iter().enumerate() {
            match op {
                // Insert 1–6 fresh rows (may cross the seal threshold and
                // cascade into compactions).
                0 | 1 => {
                    let n = 1 + (arg as usize) % 6;
                    let flat = pool.as_flat()[next_pool * pool.dim()..(next_pool + n) * pool.dim()].to_vec();
                    let ids = live.insert(&Dataset::from_flat("batch", pool.dim(), flat), None).expect("insert");
                    alive.extend(ids);
                    next_pool += n;
                }
                // Delete a burst of the oldest ids (the benchmark's
                // pattern: they sit in the oldest, largest segment) or
                // one id anywhere.
                2 | 3 => {
                    let victims: Vec<u32> = if op == 2 {
                        alive.drain(..(1 + arg as usize % 5).min(alive.len())).collect()
                    } else if alive.is_empty() {
                        Vec::new()
                    } else {
                        vec![alive.swap_remove(arg as usize % alive.len())]
                    };
                    prop_assert_eq!(live.delete(&victims), victims.len());
                    gone.extend(victims);
                }
                // Re-insert a deleted id with a new row: its stale copy
                // stays behind in whatever segment held it.
                4 => {
                    if let Some(id) = gone.pop() {
                        live.insert(&row_of(next_pool), Some(&[id])).expect("re-insert");
                        alive.push(id);
                        next_pool += 1;
                    }
                }
                _ => {
                    if arg % 2 == 0 {
                        live.seal().expect("seal");
                    } else {
                        live = LiveIndex::from_state(live.state()).expect("restart");
                    }
                }
            }
            if alive.is_empty() {
                continue;
            }
            let q = pool.get((probe as usize + step * 37) % pool.len());
            let universe: Vec<u32> = (0..next_pool as u32).collect();
            let third = |r: u32| universe.iter().copied().filter(|i| i % 3 == r).collect::<Vec<u32>>();
            let base = SearchRequest::top_k(1 + (probe as usize + step) % 9);
            let mid = {
                let exact = live.search(q, &SearchRequest::top_k(alive.len()).budget(1 << 16)).hits;
                exact[exact.len() / 2].dist
            };
            for req in [
                base.clone().budget(6),
                base.clone().budget(0),
                base.clone().budget(6).probes(5),
                base.clone().budget(6).filter(IdFilter::deny(third(1))),
                base.clone().budget(6).filter(IdFilter::allow(third(0))),
                base.clone().budget(6).max_dist(mid),
                base.clone().budget(4).probes(3).filter(IdFilter::deny(third(2))).max_dist(mid),
                // More neighbours than any one segment has left alive.
                SearchRequest::top_k(alive.len()).budget(2),
            ] {
                let got = bits(&live.search(q, &req).hits);
                let want = overfetch_reference(&live, q, &req);
                prop_assert_eq!(got, want, "step {} {:?} req={:?}", step, spec, &req);
            }
        }
    }
}

/// After one seal and no deletes, a live index with an approximate spec
/// answers exactly like a from-scratch registry build of the same spec
/// over the same rows — the "recall-equivalent to a full rebuild"
/// guarantee, pinned bit-for-bit in the no-tombstone case.
#[test]
fn sealed_live_index_matches_from_scratch_build_of_same_spec() {
    let data = SynthSpec::new("fresh", 400, 16).with_clusters(8).generate(9);
    let spec = IndexSpec::lccs(8).with_w(8.0).with_seed(21);
    let live = LiveIndex::build_from(
        spec,
        Metric::Euclidean,
        &data,
        LiveConfig { seal_threshold: 1 << 20, max_segments: 4 },
    )
    .unwrap();
    assert_eq!(live.segment_count(), 1);
    let scratch_built = eval::registry::build_index(
        &spec,
        &eval::registry::BuildCtx {
            data: &std::sync::Arc::new(data.clone()),
            metric: Metric::Euclidean,
        },
    )
    .unwrap();
    let params = SearchParams::new(10, 64);
    for i in [0usize, 57, 200, 399] {
        // External ids are 0..n in insertion order, so they coincide with
        // the from-scratch build's slot ids.
        assert_eq!(
            bits(&live.query(data.get(i), &params)),
            bits(&scratch_built.query(data.get(i), &params)),
            "query {i}"
        );
    }
}
