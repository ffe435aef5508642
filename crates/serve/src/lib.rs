//! Snapshot-backed ANN serving (`annd`).
//!
//! This crate separates index *construction* from index *serving*, the
//! split production ANN deployments (and the HTAP designs in PAPERS.md)
//! converge on: an index is built once, written to an immutable snapshot
//! container, and any number of serving processes restore it instantly —
//! `core::persist` skips the `O(m n log n)` CSA rebuild — and answer
//! queries over a length-prefixed binary TCP protocol.
//!
//! Since PR 3 construction is also remotely drivable: the BUILD command
//! carries an [`ann::spec`] grammar string plus a server-local dataset
//! path, and `annd` builds through `eval::registry`, embeds the spec in
//! the written snapshot's meta section, and atomically installs the index
//! in its catalog — the full build → snapshot → serve lifecycle over one
//! socket.
//!
//! Since PR 4 `annd` is also *writable*: a BUILD with the live flag
//! installs an [`ann_live::LiveIndex`] — an LSM-style segmented mutable
//! index — and the INSERT / DELETE / FLUSH commands mutate it over the
//! same socket. Live entries sit behind an inner `RwLock` (single-writer
//! mutation, shared-read queries); static entries keep the lock-free
//! read path. FLUSH persists the live structure as a back-compatible
//! LIVE section in the `.snap` container, so a restarted daemon reloads
//! the index and answers identically.
//!
//! * [`snapshot`] — the on-disk container (name + method + vectors +
//!   [`ann::PersistAnn`] payload + optional spec/provenance meta section
//!   + optional live-structure section) and its atomic writer.
//! * [`catalog`] — the multi-index catalog a server holds; restored
//!   through `eval::registry` by method name, extended by BUILD installs;
//!   entries are static (frozen) or live (mutable).
//! * [`protocol`] — the wire format: framing, requests, responses.
//! * `service` (private) — the one connection loop both `annd` modes
//!   run: accept poll, worker pool, framing, trace minting, request
//!   logs, cooperative shutdown; [`server`] and [`router`] are the two
//!   `Service` implementations it calls.
//! * [`server`] — the single-node service behind the `annd` binary: one
//!   read handler for QUERY/BATCH/SEARCH, one scratch per (worker,
//!   index), batches through the parallel executor, per-index latency
//!   counters, the durable write path.
//! * [`client`] — the blocking client behind `ann-cli`, the tests, and
//!   the router's shard pool (pooled connections, reconnect-on-EOF with
//!   one retry for idempotent requests).
//! * [`router`] — the sharded-cluster front: one `annd --router`
//!   process that hash-partitions writes over unmodified shard daemons
//!   (`id % n_shards`), scatter-gathers top-k byte-identically to a
//!   single-node index over the union of rows, round-robins reads over
//!   replicas, and degrades to typed partial results when a shard dies.
//! * [`placement`] — the routed-catalog file freezing each index's
//!   placement modulus and auto-id high-water mark across restarts.
//!
//! Everything runs on `std::net` — no new dependencies, in keeping with
//! the workspace's fully-vendored offline build.
//!
//! ```no_run
//! use serve::{catalog::Catalog, client::Client, server::Server};
//!
//! let catalog = Catalog::load_dir(std::path::Path::new("snapshots"))?;
//! let server = Server::bind(catalog, "127.0.0.1:0", 4)?;
//! let addr = server.local_addr()?;
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr)?;
//! let hits = client.query("demo", 10, 128, 0, &vec![0.0; 32]).unwrap();
//! # let _ = hits;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Where this crate sits in the workspace — and the full durable write
//! path it implements — is mapped in `docs/architecture.md` and
//! `docs/durability.md` at the repository root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod client;
pub mod placement;
pub mod protocol;
pub mod router;
pub mod server;
mod service;
pub mod snapshot;
pub mod stats;
mod wire;
