//! The `annd` wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is a little-endian `u32` body length followed by the
//! body; bodies are a one-byte tag plus tag-specific fields. The protocol
//! is deliberately dependency-free (no serde on the wire) and versioned
//! implicitly by the tag space — unknown tags are rejected, never
//! misread. Distances travel as raw `f64` bits, so a served result is
//! byte-identical to the in-process answer, which the end-to-end test
//! asserts.
//!
//! Frames are capped at [`MAX_FRAME`] and names at [`MAX_NAME`] so a
//! garbage or hostile peer cannot make the server allocate unboundedly.

use crate::wire::Reader;
use ann::{IdFilter, PlanChoice, SearchRequest, SearchStats};
use dataset::exact::Neighbor;
use obs::TraceContext;
use std::io::{self, Read, Write};

/// Hard cap on one frame body (64 MiB — a 1024-query batch of 960-d
/// vectors is under 4 MiB, so this leaves ample headroom).
pub const MAX_FRAME: usize = 64 << 20;

/// Hard cap on index/method name length on the wire.
pub const MAX_NAME: usize = 255;

/// Leading byte of the optional trailing trace section on request
/// frames. Chosen outside the tag space so a truncated frame can never
/// be misread as a traced one.
pub const TRACE_MAGIC: u8 = 0xF5;

/// Version byte of the trace section. Bump when its layout changes;
/// unknown versions are rejected at decode, never misread.
pub const TRACE_VERSION: u8 = 1;

/// Exact byte length of the trace section: magic, version, trace id,
/// span id. Any other trailing length is a shape error, which keeps
/// untraced frames byte-identical to pre-trace builds.
pub const TRACE_SECTION_LEN: usize = 1 + 1 + 8 + 8;

/// Errors raised while decoding a frame body.
#[derive(Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before all declared fields were read.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A declared size is out of range or internally inconsistent.
    BadShape(String),
    /// A name field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadTag(t) => write!(f, "unknown message tag {t}"),
            ProtoError::BadShape(m) => write!(f, "bad frame shape: {m}"),
            ProtoError::BadUtf8 => write!(f, "name is not valid UTF-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

// ---------------------------------------------------------------- framing

/// Writes one frame (length prefix + body). Oversized bodies are a hard
/// error, not a `debug_assert`: truncating the length prefix to `u32`
/// would silently desynchronize the stream.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame body of {} bytes exceeds the {MAX_FRAME}-byte cap", body.len()),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body. Returns `Ok(None)` on clean EOF at a frame
/// boundary; mid-frame EOF and oversized frames are errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut hdr = [0u8; 4];
    let mut filled = 0;
    while filled < hdr.len() {
        let n = r.read(&mut hdr[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame header"));
        }
        filled += n;
    }
    let len = u32::from_le_bytes(hdr) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

// ------------------------------------------------------- encode / decode

impl From<crate::wire::Short> for ProtoError {
    fn from(_: crate::wire::Short) -> Self {
        ProtoError::Truncated
    }
}

fn get_str(r: &mut Reader) -> Result<String, ProtoError> {
    let len = r.u8()? as usize;
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| ProtoError::BadUtf8)
}

fn finish(r: &Reader) -> Result<(), ProtoError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(ProtoError::BadShape(format!("{} trailing bytes", r.remaining())))
    }
}

/// Parses the optional trailing trace section of a request body. The
/// section is all-or-nothing: exactly [`TRACE_SECTION_LEN`] bytes remain
/// (magic, version, trace id, span id) or none do; any other remainder
/// is rejected, so legacy frames and garbage both fail the same way they
/// always did.
fn get_trace(r: &mut Reader) -> Result<Option<TraceContext>, ProtoError> {
    match r.remaining() {
        0 => Ok(None),
        TRACE_SECTION_LEN => {
            let magic = r.u8()?;
            let version = r.u8()?;
            if magic != TRACE_MAGIC {
                return Err(ProtoError::BadShape(format!("trace section magic {magic:#04x}")));
            }
            if version != TRACE_VERSION {
                return Err(ProtoError::BadShape(format!(
                    "trace section version {version} (this build speaks {TRACE_VERSION})"
                )));
            }
            Ok(Some(TraceContext { trace_id: r.u64()?, span_id: r.u64()? }))
        }
        n => Err(ProtoError::BadShape(format!("{n} trailing bytes"))),
    }
}

fn put_trace(out: &mut Vec<u8>, t: TraceContext) {
    out.push(TRACE_MAGIC);
    out.push(TRACE_VERSION);
    out.extend_from_slice(&t.trace_id.to_le_bytes());
    out.extend_from_slice(&t.span_id.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    assert!(s.len() <= MAX_NAME, "name {s:?} exceeds {MAX_NAME} bytes");
    out.push(s.len() as u8);
    out.extend_from_slice(s.as_bytes());
}

/// u16-length strings for fields that can outgrow [`MAX_NAME`] (dataset
/// paths, spec strings in BUILD requests); framing shared with the
/// snapshot container via [`crate::wire`].
use crate::wire::put_str16;

fn get_str16(r: &mut Reader) -> Result<String, ProtoError> {
    String::from_utf8(r.take16()?.to_vec()).map_err(|_| ProtoError::BadUtf8)
}

fn put_f32s(out: &mut Vec<u8>, vs: &[f32]) {
    out.reserve(vs.len() * 4);
    for v in vs {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

fn put_neighbors(out: &mut Vec<u8>, ns: &[Neighbor]) {
    out.extend_from_slice(&(ns.len() as u32).to_le_bytes());
    for n in ns {
        out.extend_from_slice(&n.id.to_le_bytes());
        out.extend_from_slice(&n.dist.to_bits().to_le_bytes());
    }
}

fn put_index_info(out: &mut Vec<u8>, i: &IndexInfo) {
    put_str(out, &i.name);
    put_str(out, &i.method);
    out.extend_from_slice(&i.len.to_le_bytes());
    out.extend_from_slice(&i.dim.to_le_bytes());
    out.extend_from_slice(&i.index_bytes.to_le_bytes());
    put_str16(out, &i.spec);
    put_str(out, &i.load_mode);
    out.push(u8::from(i.sq8));
    put_str(out, &i.cal);
    out.extend_from_slice(&i.cal_age_secs.to_le_bytes());
}

fn get_index_info(r: &mut Reader) -> Result<IndexInfo, ProtoError> {
    Ok(IndexInfo {
        name: get_str(r)?,
        method: get_str(r)?,
        len: r.u64()?,
        dim: r.u32()?,
        index_bytes: r.u64()?,
        spec: get_str16(r)?,
        load_mode: get_str(r)?,
        sq8: r.u8()? != 0,
        cal: get_str(r)?,
        cal_age_secs: r.u64()?,
    })
}

fn put_u32s(out: &mut Vec<u8>, vs: &[u32]) {
    out.extend_from_slice(&(vs.len() as u32).to_le_bytes());
    for v in vs {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn get_u32s(r: &mut Reader) -> Result<Vec<u32>, ProtoError> {
    let count = r.u32()? as usize;
    if count > MAX_FRAME / 4 {
        return Err(ProtoError::BadShape(format!("{count} ids")));
    }
    let mut vs = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        vs.push(r.u32()?);
    }
    Ok(vs)
}

fn get_neighbors(r: &mut Reader) -> Result<Vec<Neighbor>, ProtoError> {
    let count = r.u32()? as usize;
    if count > MAX_FRAME / 12 {
        return Err(ProtoError::BadShape(format!("{count} neighbors")));
    }
    let mut ns = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32()?;
        let dist = r.f64()?;
        ns.push(Neighbor { id, dist });
    }
    Ok(ns)
}

// ---------------------------------------------------------------- request

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Enumerate the served indexes.
    List,
    /// One c-k-ANNS query against a named index.
    Query {
        /// Catalog name of the target index.
        index: String,
        /// Neighbors to return.
        k: u32,
        /// Candidate budget (λ for the LCCS schemes).
        budget: u32,
        /// Probe override for multi-probe schemes (`0` = index default).
        probes: u32,
        /// The query vector.
        vector: Vec<f32>,
    },
    /// A whole query batch, answered through the parallel executor.
    Batch {
        /// Catalog name of the target index.
        index: String,
        /// Neighbors to return per query.
        k: u32,
        /// Candidate budget per query.
        budget: u32,
        /// Probe override (`0` = index default).
        probes: u32,
        /// Dimensionality of each query row.
        dim: u32,
        /// Row-major `nq × dim` query payload.
        vectors: Vec<f32>,
    },
    /// Fetch per-index serving counters.
    Stats,
    /// Ask the server to stop accepting and exit once drained.
    Shutdown,
    /// Build an index server-side from a spec string and a server-local
    /// dataset path, then install it in the catalog (and snapshot it when
    /// the scheme persists and the server has a snapshot directory).
    Build {
        /// Catalog name to install the index under (replaces an existing
        /// entry of the same name).
        name: String,
        /// `ann::spec` grammar string, e.g. `mp-lccs:m=64,seed=7`.
        spec: String,
        /// Verification metric name (`euclidean`, `angular`, …).
        metric: String,
        /// Server-side path of an `.fvecs` dataset file.
        data_path: String,
        /// Cap on rows read from the dataset (`0` = all).
        limit: u32,
        /// Build a *live* (mutable, LSM-style segmented) index instead of
        /// a frozen one: the dataset becomes the first sealed segment and
        /// the entry accepts INSERT/DELETE/FLUSH afterwards.
        live: bool,
        /// Live only: memtable rows that trigger an automatic seal
        /// (`0` = server default).
        seal_threshold: u32,
        /// Live only: segment count above which the smallest segments
        /// are merged (`0` = server default).
        max_segments: u32,
        /// External id assigned to the first dataset row (live only).
        /// `(0, 1)` is the classic dense assignment `0..n`; a router
        /// building shard *s* of an *m*-shard cluster sends `(s, m)` so
        /// shard-local ids are exactly the global ids of its rows.
        id_base: u32,
        /// Stride between consecutive row ids (live only; `0` is
        /// normalized to `1` on decode so legacy-shaped frames behave).
        id_step: u32,
    },
    /// Insert rows into a live index. Row `i` gets `ids[i]` when ids are
    /// supplied (one per row), or a fresh auto-assigned id otherwise.
    Insert {
        /// Catalog name of the target live index.
        index: String,
        /// Dimensionality of each row.
        dim: u32,
        /// Row-major `n × dim` payload.
        vectors: Vec<f32>,
        /// Explicit external ids, one per row; empty = auto-assign.
        ids: Vec<u32>,
    },
    /// Delete ids from a live index (absent ids are ignored, not errors).
    Delete {
        /// Catalog name of the target live index.
        index: String,
        /// External ids to delete.
        ids: Vec<u32>,
    },
    /// Seal the memtable of a live index and persist the whole index as
    /// a `.snap` container so it survives a daemon restart.
    Flush {
        /// Catalog name of the target live index.
        index: String,
    },
    /// One self-describing search (the [`ann::SearchRequest`] contract on
    /// the wire): plain top-k plus the two optional capabilities —
    /// id-filtered search and range/threshold search — and an opt-in
    /// stats section in the reply.
    ///
    /// The frame is versioned (leading version byte, currently
    /// [`SEARCH_VERSION`]) with the optional sections gated by a bitflag
    /// byte ([`flag` constants](SEARCH_FLAG_ALLOW)); unknown versions and
    /// unknown flag bits are rejected at decode, never misread, so the
    /// frame can grow fields without a new tag.
    ///
    /// `QUERY` remains valid and is answered identically to a `SEARCH`
    /// with no optional sections.
    Search {
        /// Catalog name of the target index.
        index: String,
        /// Neighbors to return (at most).
        k: u32,
        /// Candidate budget (λ for the LCCS schemes).
        budget: u32,
        /// Probe override for multi-probe schemes (`0` = index default).
        probes: u32,
        /// Restrict the answer to ids this filter accepts.
        filter: Option<IdFilter>,
        /// Only return hits within this true distance.
        max_dist: Option<f64>,
        /// Ask the server to include [`SearchStats`] in the reply.
        want_stats: bool,
        /// Ask the server to *plan* the knobs from the index's
        /// calibration table instead of taking `budget`/`probes`
        /// literally. Carried in a version-2 SEARCH frame (flag
        /// [`SEARCH_FLAG_TARGET_RECALL`]); when present the `budget` and
        /// `probes` fields travel as `0` sentinels, and any other value
        /// is rejected by request validation as an explicit-knobs
        /// conflict — with the same error text as the in-process
        /// builder path.
        target_recall: Option<f64>,
        /// The query vector.
        vector: Vec<f32>,
    },
    /// Run the fig9/fig10-style calibration sweep server-side against a
    /// sample of the named index's own rows, install the resulting
    /// [`plan`]-crate table in the catalog, and persist it as the
    /// snapshot's `CALB` section so it survives restarts.
    Calibrate {
        /// Catalog name of the target index.
        index: String,
        /// Rows to sample as calibration queries (`0` = server default).
        sample: u32,
        /// The `k` to measure recall at (`0` = server default).
        k: u32,
    },
    /// Fetch the node's telemetry in Prometheus text exposition format:
    /// process-wide counters/gauges/histograms plus per-index serving
    /// metrics. Routers answer with router-process metrics (per-shard
    /// health counters, hop-latency histogram), not a shard aggregate.
    Metrics,
}

/// Wire version of the baseline SEARCH frame layout. Bump when a field
/// changes meaning; add a flag bit when a new optional section appears.
pub const SEARCH_VERSION: u8 = 1;

/// SEARCH frame version that may carry the target-recall section.
/// Encoders only emit it when the section is present, so manual
/// requests stay byte-identical to version-1 frames and old peers
/// interoperate unchanged; version-1 frames carrying the flag are
/// rejected as unknown-bit errors, exactly as an old build would.
pub const SEARCH_VERSION_PLANNED: u8 = 2;

/// SEARCH flag bit: an allowlist id section follows.
pub const SEARCH_FLAG_ALLOW: u8 = 1 << 0;
/// SEARCH flag bit: a denylist id section follows.
pub const SEARCH_FLAG_DENY: u8 = 1 << 1;
/// SEARCH flag bit: a `max_dist` threshold section follows.
pub const SEARCH_FLAG_MAX_DIST: u8 = 1 << 2;
/// SEARCH flag bit: the client wants the stats section in the reply.
pub const SEARCH_FLAG_STATS: u8 = 1 << 3;
/// SEARCH flag bit (version ≥ 2 only): a target-recall section (one
/// f64, between the `max_dist` section and the vector) follows.
pub const SEARCH_FLAG_TARGET_RECALL: u8 = 1 << 4;
const SEARCH_FLAGS_KNOWN: u8 =
    SEARCH_FLAG_ALLOW | SEARCH_FLAG_DENY | SEARCH_FLAG_MAX_DIST | SEARCH_FLAG_STATS;
const SEARCH_FLAGS_KNOWN_V2: u8 = SEARCH_FLAGS_KNOWN | SEARCH_FLAG_TARGET_RECALL;

const REQ_SEARCH: u8 = 11;
const REQ_PING: u8 = 1;
const REQ_LIST: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_BATCH: u8 = 4;
const REQ_STATS: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_BUILD: u8 = 7;
const REQ_INSERT: u8 = 8;
const REQ_DELETE: u8 = 9;
const REQ_FLUSH: u8 = 10;
const REQ_METRICS: u8 = 12;
const REQ_CALIBRATE: u8 = 13;

impl Request {
    /// Serializes into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::List => out.push(REQ_LIST),
            Request::Query { index, k, budget, probes, vector } => {
                out.push(REQ_QUERY);
                put_str(&mut out, index);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&budget.to_le_bytes());
                out.extend_from_slice(&probes.to_le_bytes());
                out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
                put_f32s(&mut out, vector);
            }
            Request::Batch { index, k, budget, probes, dim, vectors } => {
                assert_eq!(
                    vectors.len() % (*dim).max(1) as usize,
                    0,
                    "batch payload must be a whole number of rows"
                );
                out.push(REQ_BATCH);
                put_str(&mut out, index);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&budget.to_le_bytes());
                out.extend_from_slice(&probes.to_le_bytes());
                out.extend_from_slice(&dim.to_le_bytes());
                out.extend_from_slice(&((vectors.len() / (*dim).max(1) as usize) as u32).to_le_bytes());
                put_f32s(&mut out, vectors);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
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
                out.push(REQ_BUILD);
                put_str(&mut out, name);
                put_str16(&mut out, spec);
                put_str(&mut out, metric);
                put_str16(&mut out, data_path);
                out.extend_from_slice(&limit.to_le_bytes());
                out.push(u8::from(*live));
                out.extend_from_slice(&seal_threshold.to_le_bytes());
                out.extend_from_slice(&max_segments.to_le_bytes());
                out.extend_from_slice(&id_base.to_le_bytes());
                out.extend_from_slice(&id_step.to_le_bytes());
            }
            Request::Insert { index, dim, vectors, ids } => {
                assert_eq!(
                    vectors.len() % (*dim).max(1) as usize,
                    0,
                    "insert payload must be a whole number of rows"
                );
                out.push(REQ_INSERT);
                put_str(&mut out, index);
                out.extend_from_slice(&dim.to_le_bytes());
                out.extend_from_slice(&((vectors.len() / (*dim).max(1) as usize) as u32).to_le_bytes());
                put_f32s(&mut out, vectors);
                put_u32s(&mut out, ids);
            }
            Request::Delete { index, ids } => {
                out.push(REQ_DELETE);
                put_str(&mut out, index);
                put_u32s(&mut out, ids);
            }
            Request::Flush { index } => {
                out.push(REQ_FLUSH);
                put_str(&mut out, index);
            }
            Request::Search {
                index,
                k,
                budget,
                probes,
                filter,
                max_dist,
                want_stats,
                target_recall,
                vector,
            } => {
                out.push(REQ_SEARCH);
                out.push(if target_recall.is_some() {
                    SEARCH_VERSION_PLANNED
                } else {
                    SEARCH_VERSION
                });
                put_str(&mut out, index);
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&budget.to_le_bytes());
                out.extend_from_slice(&probes.to_le_bytes());
                let mut flags = 0u8;
                if let Some(f) = filter {
                    flags |= if f.is_allow() { SEARCH_FLAG_ALLOW } else { SEARCH_FLAG_DENY };
                }
                if max_dist.is_some() {
                    flags |= SEARCH_FLAG_MAX_DIST;
                }
                if *want_stats {
                    flags |= SEARCH_FLAG_STATS;
                }
                if target_recall.is_some() {
                    flags |= SEARCH_FLAG_TARGET_RECALL;
                }
                out.push(flags);
                if let Some(f) = filter {
                    put_u32s(&mut out, f.ids());
                }
                if let Some(d) = max_dist {
                    out.extend_from_slice(&d.to_bits().to_le_bytes());
                }
                if let Some(t) = target_recall {
                    out.extend_from_slice(&t.to_bits().to_le_bytes());
                }
                out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
                put_f32s(&mut out, vector);
            }
            Request::Calibrate { index, sample, k } => {
                out.push(REQ_CALIBRATE);
                put_str(&mut out, index);
                out.extend_from_slice(&sample.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
            }
            Request::Metrics => out.push(REQ_METRICS),
        }
        out
    }

    /// Serializes into a frame body, appending the trace section when a
    /// context is supplied. With `None` the bytes are identical to
    /// [`encode`](Request::encode), so untraced clients and old peers
    /// interoperate unchanged.
    pub fn encode_traced(&self, trace: Option<TraceContext>) -> Vec<u8> {
        let mut out = self.encode();
        if let Some(t) = trace {
            put_trace(&mut out, t);
        }
        out
    }

    /// The request's wire opcode as an uppercase name, for log fields
    /// and metric labels.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Ping => "PING",
            Request::List => "LIST",
            Request::Query { .. } => "QUERY",
            Request::Batch { .. } => "BATCH",
            Request::Stats => "STATS",
            Request::Shutdown => "SHUTDOWN",
            Request::Build { .. } => "BUILD",
            Request::Insert { .. } => "INSERT",
            Request::Delete { .. } => "DELETE",
            Request::Flush { .. } => "FLUSH",
            Request::Search { .. } => "SEARCH",
            Request::Calibrate { .. } => "CALIBRATE",
            Request::Metrics => "METRICS",
        }
    }

    /// The catalog entry the request targets, for log fields (`None` for
    /// catalog-wide requests like LIST/STATS/METRICS).
    pub fn index(&self) -> Option<&str> {
        match self {
            Request::Query { index, .. }
            | Request::Batch { index, .. }
            | Request::Search { index, .. }
            | Request::Insert { index, .. }
            | Request::Delete { index, .. }
            | Request::Calibrate { index, .. }
            | Request::Flush { index } => Some(index),
            Request::Build { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Decodes a frame body, discarding any trace section.
    pub fn decode(body: &[u8]) -> Result<Request, ProtoError> {
        Self::decode_traced(body).map(|(req, _)| req)
    }

    /// Decodes a frame body plus its optional trailing trace section.
    pub fn decode_traced(body: &[u8]) -> Result<(Request, Option<TraceContext>), ProtoError> {
        let mut r = Reader::new(body);
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_LIST => Request::List,
            REQ_QUERY => {
                let index = get_str(&mut r)?;
                let k = r.u32()?;
                let budget = r.u32()?;
                let probes = r.u32()?;
                let dim = r.u32()? as usize;
                let vector = r.f32s(dim)?;
                Request::Query { index, k, budget, probes, vector }
            }
            REQ_BATCH => {
                let index = get_str(&mut r)?;
                let k = r.u32()?;
                let budget = r.u32()?;
                let probes = r.u32()?;
                let dim = r.u32()?;
                let nq = r.u32()? as usize;
                if dim == 0 {
                    return Err(ProtoError::BadShape("zero-dimensional batch".into()));
                }
                let vectors = r.f32s(nq * dim as usize)?;
                Request::Batch { index, k, budget, probes, dim, vectors }
            }
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_BUILD => Request::Build {
                name: get_str(&mut r)?,
                spec: get_str16(&mut r)?,
                metric: get_str(&mut r)?,
                data_path: get_str16(&mut r)?,
                limit: r.u32()?,
                live: r.u8()? != 0,
                seal_threshold: r.u32()?,
                max_segments: r.u32()?,
                id_base: r.u32()?,
                id_step: r.u32()?.max(1),
            },
            REQ_INSERT => {
                let index = get_str(&mut r)?;
                let dim = r.u32()?;
                let nq = r.u32()? as usize;
                if dim == 0 || nq == 0 {
                    return Err(ProtoError::BadShape("empty insert".into()));
                }
                let vectors = r.f32s(nq * dim as usize)?;
                let ids = get_u32s(&mut r)?;
                if !ids.is_empty() && ids.len() != nq {
                    return Err(ProtoError::BadShape(format!(
                        "{} ids for {nq} rows",
                        ids.len()
                    )));
                }
                Request::Insert { index, dim, vectors, ids }
            }
            REQ_DELETE => Request::Delete { index: get_str(&mut r)?, ids: get_u32s(&mut r)? },
            REQ_FLUSH => Request::Flush { index: get_str(&mut r)? },
            REQ_SEARCH => {
                let ver = r.u8()?;
                if ver != SEARCH_VERSION && ver != SEARCH_VERSION_PLANNED {
                    return Err(ProtoError::BadShape(format!(
                        "SEARCH version {ver} (this build speaks up to {SEARCH_VERSION_PLANNED})"
                    )));
                }
                let known =
                    if ver >= SEARCH_VERSION_PLANNED { SEARCH_FLAGS_KNOWN_V2 } else { SEARCH_FLAGS_KNOWN };
                let index = get_str(&mut r)?;
                let k = r.u32()?;
                let budget = r.u32()?;
                let probes = r.u32()?;
                let flags = r.u8()?;
                if flags & !known != 0 {
                    return Err(ProtoError::BadShape(format!(
                        "unknown SEARCH flag bits {:#04x}",
                        flags & !known
                    )));
                }
                if flags & SEARCH_FLAG_ALLOW != 0 && flags & SEARCH_FLAG_DENY != 0 {
                    return Err(ProtoError::BadShape(
                        "SEARCH carries both an allowlist and a denylist".into(),
                    ));
                }
                let filter = if flags & SEARCH_FLAG_ALLOW != 0 {
                    Some(IdFilter::allow(get_u32s(&mut r)?))
                } else if flags & SEARCH_FLAG_DENY != 0 {
                    Some(IdFilter::deny(get_u32s(&mut r)?))
                } else {
                    None
                };
                let max_dist = if flags & SEARCH_FLAG_MAX_DIST != 0 {
                    Some(r.f64()?)
                } else {
                    None
                };
                // The target travels as raw f64 bits: NaN and
                // out-of-range values decode fine and are rejected by
                // request *validation*, so the wire error text matches
                // the in-process builder path exactly.
                let target_recall = if flags & SEARCH_FLAG_TARGET_RECALL != 0 {
                    Some(r.f64()?)
                } else {
                    None
                };
                let dim = r.u32()? as usize;
                let vector = r.f32s(dim)?;
                Request::Search {
                    index,
                    k,
                    budget,
                    probes,
                    filter,
                    max_dist,
                    want_stats: flags & SEARCH_FLAG_STATS != 0,
                    target_recall,
                    vector,
                }
            }
            REQ_CALIBRATE => {
                Request::Calibrate { index: get_str(&mut r)?, sample: r.u32()?, k: r.u32()? }
            }
            REQ_METRICS => Request::Metrics,
            t => return Err(ProtoError::BadTag(t)),
        };
        let trace = get_trace(&mut r)?;
        finish(&r)?;
        Ok((req, trace))
    }
}

/// Which response variant carries a read's complete answer back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyShape {
    /// [`Response::Neighbors`], for [`Request::Query`].
    Neighbors,
    /// [`Response::Batch`], for [`Request::Batch`].
    Batch,
    /// [`Response::Search`], for [`Request::Search`].
    Search,
}

/// A decoded read, whichever of the three read opcodes carried it: the
/// one place wire fields become a [`SearchRequest`]. QUERY and BATCH are
/// SEARCHes with no optional sections, so the server and the router
/// each need a single read handler.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadRequest {
    /// Catalog name of the target index.
    pub index: String,
    /// The question every query row asks.
    pub request: SearchRequest,
    /// Dimensionality of each query row.
    pub dim: usize,
    /// Row-major query payload: one row for QUERY/SEARCH, `nq` for BATCH.
    pub vectors: Vec<f32>,
    /// How the answer travels back.
    pub reply: ReplyShape,
}

impl ReadRequest {
    /// `Some` for the three read opcodes, `None` for everything else.
    pub fn from_wire(req: Request) -> Option<ReadRequest> {
        let knobs = |k: u32, budget: u32, probes: u32| {
            SearchRequest::top_k(k as usize).budget(budget as usize).probes(probes as usize)
        };
        Some(match req {
            Request::Query { index, k, budget, probes, vector } => ReadRequest {
                index,
                request: knobs(k, budget, probes),
                dim: vector.len(),
                vectors: vector,
                reply: ReplyShape::Neighbors,
            },
            Request::Batch { index, k, budget, probes, dim, vectors } => ReadRequest {
                index,
                request: knobs(k, budget, probes),
                dim: dim as usize,
                vectors,
                reply: ReplyShape::Batch,
            },
            Request::Search {
                index,
                k,
                budget,
                probes,
                filter,
                max_dist,
                want_stats,
                target_recall,
                vector,
            } => {
                let mut request = knobs(k, budget, probes);
                request.filter = filter;
                request.max_dist = max_dist;
                request.fields.stats = want_stats;
                if target_recall.is_some() {
                    // A well-formed planned frame carries 0-sentinels for
                    // both knobs; anything else counts as "explicit knobs"
                    // so validation rejects the combination with exactly
                    // the in-process error text.
                    request.knobs_set = budget != 0 || probes != 0;
                    request.target_recall = target_recall;
                }
                ReadRequest {
                    index,
                    request,
                    dim: vector.len(),
                    vectors: vector,
                    reply: ReplyShape::Search,
                }
            }
            _ => return None,
        })
    }

    /// Query rows in the payload: one for QUERY/SEARCH, `nq` for BATCH.
    pub fn rows(&self) -> usize {
        match self.reply {
            ReplyShape::Batch => self.vectors.len() / self.dim.max(1),
            _ => 1,
        }
    }

    /// A BATCH answer must fit one frame: `nq` lists of up to `k`
    /// 12-byte neighbors each (`k ≤ rows` is validated separately).
    pub fn check_reply_fits(&self) -> Result<(), String> {
        if self.reply != ReplyShape::Batch {
            return Ok(());
        }
        let (nq, k) = (self.rows(), self.request.k);
        let resp_bytes = 5 + nq as u64 * (4 + 12 * k as u64);
        if resp_bytes > MAX_FRAME as u64 {
            return Err(format!(
                "batch of {nq} queries at k={k} would need a {resp_bytes}-byte response, over \
                 the {MAX_FRAME}-byte frame cap; split the batch"
            ));
        }
        Ok(())
    }
}

impl ReplyShape {
    /// The complete (no shard missing) answer: one hit list per query
    /// row in request order, plus the merged counters, which travel
    /// only in a SEARCH reply whose request asked for them.
    pub fn respond(self, mut lists: Vec<Vec<Neighbor>>, stats: Option<SearchStats>) -> Response {
        match self {
            ReplyShape::Batch => Response::Batch(lists),
            ReplyShape::Neighbors => Response::Neighbors(lists.pop().unwrap_or_default()),
            ReplyShape::Search => Response::Search { hits: lists.pop().unwrap_or_default(), stats },
        }
    }
}

// --------------------------------------------------------------- response

/// One served index as reported by [`Request::List`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexInfo {
    /// Catalog name (stored inside the snapshot container).
    pub name: String,
    /// Method name (paper legend, e.g. `"LCCS-LSH"`).
    pub method: String,
    /// Number of indexed vectors.
    pub len: u64,
    /// Vector dimensionality.
    pub dim: u32,
    /// Index footprint in bytes (excluding raw vectors).
    pub index_bytes: u64,
    /// Canonical `ann::spec` string the index was built from; empty when
    /// unknown (e.g. restored from a pre-meta snapshot).
    pub spec: String,
    /// How the entry's vector block is served: `mapped` (zero-copy
    /// mmap), `shared` (adopted read buffer), or `owned` (copied).
    pub load_mode: String,
    /// Whether the SQ8 skip-bound pre-filter is active for this entry.
    pub sq8: bool,
    /// Calibration presence: `"none"`, `"fresh"`, or `"stale"` (the
    /// index mutated after its sweep).
    pub cal: String,
    /// Seconds since the calibration sweep ran (0 when absent or
    /// untimestamped).
    pub cal_age_secs: u64,
}

/// Per-index serving counters as reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsEntry {
    /// Catalog name.
    pub name: String,
    /// Canonical `ann::spec` string (empty when unknown), so operators
    /// can see what is actually serving next to its counters.
    pub spec: String,
    /// How the entry's vector block is served (`mapped` / `shared` /
    /// `owned`) — see [`IndexInfo::load_mode`].
    pub load_mode: String,
    /// Whether the SQ8 skip-bound pre-filter is active for this entry.
    pub sq8: bool,
    /// Single queries answered.
    pub queries: u64,
    /// Batch requests answered.
    pub batch_requests: u64,
    /// Queries answered inside batch requests.
    pub batch_queries: u64,
    /// Rows inserted (live indexes only; static entries stay 0).
    pub inserts: u64,
    /// Rows deleted (live indexes only).
    pub deletes: u64,
    /// FLUSH requests served (live indexes only).
    pub flushes: u64,
    /// Write-ahead-log records appended (one per acknowledged
    /// INSERT/DELETE request; live indexes under a snapshot dir only).
    pub wal_records: u64,
    /// Write-ahead-log bytes appended (frame headers included).
    pub wal_bytes: u64,
    /// Seal/compaction builds installed by the background worker.
    pub seals: u64,
    /// Cumulative candidates the verification loops scanned across every
    /// query/batch/search answered — the serving-side view of the budget
    /// knob (exact for the LCCS schemes and live entries, lower-bound for
    /// baseline schemes; see [`ann::SearchStats`]).
    pub candidates_scanned: u64,
    /// Total serving time across requests, microseconds.
    pub total_micros: u64,
    /// Slowest single request, microseconds.
    pub max_micros: u64,
    /// Log2-bucketed query-latency histogram: `latency_hist[i]` counts
    /// QUERY/BATCH/SEARCH requests whose wall time fell in
    /// `[2^i, 2^(i+1))` microseconds (bucket 0 also holds sub-µs
    /// requests; the last bucket is open-ended). Length is
    /// [`crate::stats::HIST_BUCKETS`] for entries produced by this
    /// build, but decoders accept any length so the histogram can grow
    /// buckets without a protocol bump. Routers aggregate shards by
    /// summing these element-wise.
    pub latency_hist: Vec<u64>,
    /// Median query latency in microseconds, estimated from
    /// `latency_hist` (upper bound of the bucket holding the median;
    /// 0 when no queries were answered).
    pub p50_micros: u64,
    /// 99th-percentile query latency in microseconds, same estimator.
    pub p99_micros: u64,
    /// Cumulative result-heap insertions across every query answered —
    /// the "kept" side of the scan/keep funnel (see
    /// [`ann::SearchStats::heap_pushes`]).
    pub heap_pushes: u64,
    /// Candidates the SQ8 certified skip bound pruned before a
    /// full-width distance was computed (0 for entries serving without
    /// trained codes).
    pub sq8_pruned: u64,
    /// Searches whose knobs were chosen by the recall planner (the
    /// `target_recall` request mode).
    pub planned: u64,
    /// Planned searches whose target was stepped down by the overload
    /// degradation dial before planning.
    pub degraded: u64,
    /// Calibration presence: `"none"`, `"fresh"`, or `"stale"` — see
    /// [`IndexInfo::cal`].
    pub cal: String,
    /// Seconds since the calibration sweep ran (0 when absent).
    pub cal_age_secs: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::List`].
    List(Vec<IndexInfo>),
    /// Reply to [`Request::Query`].
    Neighbors(Vec<Neighbor>),
    /// Reply to [`Request::Batch`], one list per query in request order.
    Batch(Vec<Vec<Neighbor>>),
    /// Reply to [`Request::Stats`].
    Stats(Vec<StatsEntry>),
    /// Reply to [`Request::Shutdown`]: acknowledged, server is draining.
    ShuttingDown,
    /// Reply to [`Request::Build`]: the installed index plus build
    /// measurements.
    Built {
        /// The installed catalog entry.
        info: IndexInfo,
        /// Indexing wall-clock microseconds.
        build_micros: u64,
        /// Path of the written `.snap`, empty if none was written (scheme
        /// does not persist, or the server has no snapshot directory).
        snapshot_path: String,
    },
    /// Reply to [`Request::Insert`]: the external id assigned to each
    /// inserted row, in request order.
    Inserted {
        /// One id per inserted row.
        ids: Vec<u32>,
    },
    /// Reply to [`Request::Delete`].
    Deleted {
        /// How many of the requested ids were live (and are now gone).
        removed: u64,
    },
    /// Reply to [`Request::Flush`]: the memtable was sealed and the live
    /// index persisted.
    Flushed {
        /// Path of the written `.snap` container.
        snapshot_path: String,
        /// Sealed segments after the flush.
        segments: u32,
        /// Live rows covered by the flushed snapshot.
        live_rows: u64,
    },
    /// Reply to [`Request::Search`]: the verified hits plus the stats
    /// section when the request asked for it (bitflag-gated on the wire,
    /// so plain answers never pay for it).
    Search {
        /// The verified hits (every id passes the request's filter; all
        /// distances respect its threshold).
        hits: Vec<Neighbor>,
        /// Execution counters, present iff the request set
        /// [`SEARCH_FLAG_STATS`].
        stats: Option<SearchStats>,
    },
    /// A degraded scatter-gather answer from a router: the merged result
    /// lists cover every shard that responded, and `missing_shards`
    /// names the ones that did not (after a retry with backoff). Sent
    /// in place of [`Response::Neighbors`] / [`Response::Search`] /
    /// [`Response::Batch`] when the router runs without `--require-all`
    /// and at least one shard is down; single-node servers never emit
    /// it. `lists` holds one entry for QUERY/SEARCH and one per query
    /// for BATCH, in request order.
    Partial {
        /// Merged per-query results from the surviving shards.
        lists: Vec<Vec<Neighbor>>,
        /// `shard<i>@<addr>` labels of the shards that did not answer.
        missing_shards: Vec<String>,
    },
    /// Reply to [`Request::Metrics`]: the node's telemetry rendered in
    /// Prometheus text exposition format (UTF-8, one sample per line).
    Metrics(String),
    /// Reply to [`Request::Calibrate`]: the sweep ran and the table is
    /// installed (and persisted when the index has a snapshot).
    Calibrated {
        /// Grid points the table holds.
        points: u32,
        /// Highest measured recall any grid point reached.
        max_recall: f64,
        /// Queries the sweep sampled.
        sample: u32,
    },
    /// The request could not be served (unknown index, shape mismatch…).
    Error(String),
}

const RESP_PONG: u8 = 1;
const RESP_LIST: u8 = 2;
const RESP_NEIGHBORS: u8 = 3;
const RESP_BATCH: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_SHUTDOWN: u8 = 6;
const RESP_BUILT: u8 = 7;
const RESP_INSERTED: u8 = 8;
const RESP_DELETED: u8 = 9;
const RESP_FLUSHED: u8 = 10;
const RESP_SEARCH: u8 = 11;
const RESP_PARTIAL: u8 = 12;
const RESP_METRICS: u8 = 13;
const RESP_CALIBRATED: u8 = 14;
const RESP_ERROR: u8 = 255;

/// SEARCH response flag bit: a stats section follows the hits.
const SEARCH_RESP_FLAG_STATS: u8 = 1 << 0;
/// SEARCH response flag bit: a plan section (chosen budget + probes,
/// predicted recall, post-degradation effective target) follows the
/// stats section. Only legal alongside the stats flag — the plan is
/// part of [`SearchStats`].
const SEARCH_RESP_FLAG_PLAN: u8 = 1 << 1;
const SEARCH_RESP_FLAGS_KNOWN: u8 = SEARCH_RESP_FLAG_STATS | SEARCH_RESP_FLAG_PLAN;

impl Response {
    /// Serializes into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::List(infos) => {
                out.push(RESP_LIST);
                out.extend_from_slice(&(infos.len() as u32).to_le_bytes());
                for i in infos {
                    put_index_info(&mut out, i);
                }
            }
            Response::Neighbors(ns) => {
                out.push(RESP_NEIGHBORS);
                put_neighbors(&mut out, ns);
            }
            Response::Batch(lists) => {
                out.push(RESP_BATCH);
                out.extend_from_slice(&(lists.len() as u32).to_le_bytes());
                for ns in lists {
                    put_neighbors(&mut out, ns);
                }
            }
            Response::Stats(entries) => {
                out.push(RESP_STATS);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    put_str(&mut out, &e.name);
                    put_str16(&mut out, &e.spec);
                    put_str(&mut out, &e.load_mode);
                    out.push(u8::from(e.sq8));
                    for v in [
                        e.queries,
                        e.batch_requests,
                        e.batch_queries,
                        e.inserts,
                        e.deletes,
                        e.flushes,
                        e.wal_records,
                        e.wal_bytes,
                        e.seals,
                        e.candidates_scanned,
                        e.total_micros,
                        e.max_micros,
                    ] {
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    out.push(e.latency_hist.len() as u8);
                    for b in &e.latency_hist {
                        out.extend_from_slice(&b.to_le_bytes());
                    }
                    out.extend_from_slice(&e.p50_micros.to_le_bytes());
                    out.extend_from_slice(&e.p99_micros.to_le_bytes());
                    out.extend_from_slice(&e.heap_pushes.to_le_bytes());
                    out.extend_from_slice(&e.sq8_pruned.to_le_bytes());
                    out.extend_from_slice(&e.planned.to_le_bytes());
                    out.extend_from_slice(&e.degraded.to_le_bytes());
                    put_str(&mut out, &e.cal);
                    out.extend_from_slice(&e.cal_age_secs.to_le_bytes());
                }
            }
            Response::ShuttingDown => out.push(RESP_SHUTDOWN),
            Response::Built { info, build_micros, snapshot_path } => {
                out.push(RESP_BUILT);
                put_index_info(&mut out, info);
                out.extend_from_slice(&build_micros.to_le_bytes());
                put_str16(&mut out, snapshot_path);
            }
            Response::Inserted { ids } => {
                out.push(RESP_INSERTED);
                put_u32s(&mut out, ids);
            }
            Response::Deleted { removed } => {
                out.push(RESP_DELETED);
                out.extend_from_slice(&removed.to_le_bytes());
            }
            Response::Flushed { snapshot_path, segments, live_rows } => {
                out.push(RESP_FLUSHED);
                put_str16(&mut out, snapshot_path);
                out.extend_from_slice(&segments.to_le_bytes());
                out.extend_from_slice(&live_rows.to_le_bytes());
            }
            Response::Search { hits, stats } => {
                out.push(RESP_SEARCH);
                let mut flags = 0u8;
                if let Some(s) = stats {
                    flags |= SEARCH_RESP_FLAG_STATS;
                    if s.plan.is_some() {
                        flags |= SEARCH_RESP_FLAG_PLAN;
                    }
                }
                out.push(flags);
                put_neighbors(&mut out, hits);
                if let Some(s) = stats {
                    out.extend_from_slice(&s.candidates_scanned.to_le_bytes());
                    out.extend_from_slice(&s.heap_pushes.to_le_bytes());
                    out.extend_from_slice(&s.wall_micros.to_le_bytes());
                    if let Some(p) = &s.plan {
                        out.extend_from_slice(&p.budget.to_le_bytes());
                        out.extend_from_slice(&p.probes.to_le_bytes());
                        out.extend_from_slice(&p.predicted_recall.to_bits().to_le_bytes());
                        out.extend_from_slice(&p.effective_target.to_bits().to_le_bytes());
                    }
                }
            }
            Response::Partial { lists, missing_shards } => {
                out.push(RESP_PARTIAL);
                out.extend_from_slice(&(lists.len() as u32).to_le_bytes());
                for ns in lists {
                    put_neighbors(&mut out, ns);
                }
                out.extend_from_slice(&(missing_shards.len() as u32).to_le_bytes());
                for s in missing_shards {
                    put_str(&mut out, s);
                }
            }
            Response::Metrics(text) => {
                out.push(RESP_METRICS);
                out.extend_from_slice(&(text.len() as u32).to_le_bytes());
                out.extend_from_slice(text.as_bytes());
            }
            Response::Calibrated { points, max_recall, sample } => {
                out.push(RESP_CALIBRATED);
                out.extend_from_slice(&points.to_le_bytes());
                out.extend_from_slice(&max_recall.to_bits().to_le_bytes());
                out.extend_from_slice(&sample.to_le_bytes());
            }
            Response::Error(msg) => {
                out.push(RESP_ERROR);
                // Truncate long messages (BUILD errors interpolate
                // client-supplied spec strings and paths) on a char
                // boundary: splitting a multi-byte sequence would make
                // the whole frame undecodable for the client.
                let mut end = msg.len().min(1024);
                while !msg.is_char_boundary(end) {
                    end -= 1;
                }
                let msg = &msg.as_bytes()[..end];
                out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
                out.extend_from_slice(msg);
            }
        }
        out
    }

    /// Decodes a frame body.
    pub fn decode(body: &[u8]) -> Result<Response, ProtoError> {
        let mut r = Reader::new(body);
        let resp = match r.u8()? {
            RESP_PONG => Response::Pong,
            RESP_LIST => {
                let count = r.u32()? as usize;
                let mut infos = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    infos.push(get_index_info(&mut r)?);
                }
                Response::List(infos)
            }
            RESP_NEIGHBORS => Response::Neighbors(get_neighbors(&mut r)?),
            RESP_BATCH => {
                let nq = r.u32()? as usize;
                if nq > MAX_FRAME / 4 {
                    return Err(ProtoError::BadShape(format!("{nq} result lists")));
                }
                let mut lists = Vec::with_capacity(nq.min(65_536));
                for _ in 0..nq {
                    lists.push(get_neighbors(&mut r)?);
                }
                Response::Batch(lists)
            }
            RESP_STATS => {
                let count = r.u32()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let name = get_str(&mut r)?;
                    let spec = get_str16(&mut r)?;
                    let load_mode = get_str(&mut r)?;
                    let sq8 = r.u8()? != 0;
                    let queries = r.u64()?;
                    let batch_requests = r.u64()?;
                    let batch_queries = r.u64()?;
                    let inserts = r.u64()?;
                    let deletes = r.u64()?;
                    let flushes = r.u64()?;
                    let wal_records = r.u64()?;
                    let wal_bytes = r.u64()?;
                    let seals = r.u64()?;
                    let candidates_scanned = r.u64()?;
                    let total_micros = r.u64()?;
                    let max_micros = r.u64()?;
                    let nbuckets = r.u8()? as usize;
                    let mut latency_hist = Vec::with_capacity(nbuckets);
                    for _ in 0..nbuckets {
                        latency_hist.push(r.u64()?);
                    }
                    let p50_micros = r.u64()?;
                    let p99_micros = r.u64()?;
                    let heap_pushes = r.u64()?;
                    let sq8_pruned = r.u64()?;
                    let planned = r.u64()?;
                    let degraded = r.u64()?;
                    let cal = get_str(&mut r)?;
                    let cal_age_secs = r.u64()?;
                    entries.push(StatsEntry {
                        name,
                        spec,
                        load_mode,
                        sq8,
                        queries,
                        batch_requests,
                        batch_queries,
                        inserts,
                        deletes,
                        flushes,
                        wal_records,
                        wal_bytes,
                        seals,
                        candidates_scanned,
                        total_micros,
                        max_micros,
                        latency_hist,
                        p50_micros,
                        p99_micros,
                        heap_pushes,
                        sq8_pruned,
                        planned,
                        degraded,
                        cal,
                        cal_age_secs,
                    });
                }
                Response::Stats(entries)
            }
            RESP_SHUTDOWN => Response::ShuttingDown,
            RESP_BUILT => Response::Built {
                info: get_index_info(&mut r)?,
                build_micros: r.u64()?,
                snapshot_path: get_str16(&mut r)?,
            },
            RESP_INSERTED => Response::Inserted { ids: get_u32s(&mut r)? },
            RESP_DELETED => Response::Deleted { removed: r.u64()? },
            RESP_FLUSHED => Response::Flushed {
                snapshot_path: get_str16(&mut r)?,
                segments: r.u32()?,
                live_rows: r.u64()?,
            },
            RESP_SEARCH => {
                let flags = r.u8()?;
                if flags & !SEARCH_RESP_FLAGS_KNOWN != 0 {
                    return Err(ProtoError::BadShape(format!(
                        "unknown SEARCH response flag bits {:#04x}",
                        flags & !SEARCH_RESP_FLAGS_KNOWN
                    )));
                }
                if flags & SEARCH_RESP_FLAG_PLAN != 0 && flags & SEARCH_RESP_FLAG_STATS == 0 {
                    return Err(ProtoError::BadShape(
                        "SEARCH response carries a plan section without stats".into(),
                    ));
                }
                let hits = get_neighbors(&mut r)?;
                let stats = if flags & SEARCH_RESP_FLAG_STATS != 0 {
                    // `sq8_pruned` is node-local telemetry and does not
                    // travel in this section, whose layout is pinned.
                    let mut s = SearchStats {
                        candidates_scanned: r.u64()?,
                        heap_pushes: r.u64()?,
                        wall_micros: r.u64()?,
                        sq8_pruned: 0,
                        plan: None,
                    };
                    if flags & SEARCH_RESP_FLAG_PLAN != 0 {
                        s.plan = Some(PlanChoice {
                            budget: r.u32()?,
                            probes: r.u32()?,
                            predicted_recall: r.f64()?,
                            effective_target: r.f64()?,
                        });
                    }
                    Some(s)
                } else {
                    None
                };
                Response::Search { hits, stats }
            }
            RESP_PARTIAL => {
                let nq = r.u32()? as usize;
                if nq > MAX_FRAME / 4 {
                    return Err(ProtoError::BadShape(format!("{nq} partial result lists")));
                }
                let mut lists = Vec::with_capacity(nq.min(65_536));
                for _ in 0..nq {
                    lists.push(get_neighbors(&mut r)?);
                }
                let nmiss = r.u32()? as usize;
                if nmiss > MAX_FRAME / 2 {
                    return Err(ProtoError::BadShape(format!("{nmiss} missing shards")));
                }
                let mut missing_shards = Vec::with_capacity(nmiss.min(1024));
                for _ in 0..nmiss {
                    missing_shards.push(get_str(&mut r)?);
                }
                Response::Partial { lists, missing_shards }
            }
            RESP_METRICS => {
                let len = r.u32()? as usize;
                let raw = r.take(len)?;
                Response::Metrics(
                    String::from_utf8(raw.to_vec()).map_err(|_| ProtoError::BadUtf8)?,
                )
            }
            RESP_CALIBRATED => {
                Response::Calibrated { points: r.u32()?, max_recall: r.f64()?, sample: r.u32()? }
            }
            RESP_ERROR => {
                let len = r.u32()? as usize;
                let raw = r.take(len)?;
                Response::Error(String::from_utf8_lossy(raw).into_owned())
            }
            t => return Err(ProtoError::BadTag(t)),
        };
        finish(&r)?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        assert_eq!(Request::decode(&req.encode()).expect("decode"), req);
    }

    fn round_trip_response(resp: Response) {
        assert_eq!(Response::decode(&resp.encode()).expect("decode"), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Ping);
        round_trip_request(Request::List);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Query {
            index: "glove".into(),
            k: 10,
            budget: 128,
            probes: 0,
            vector: vec![1.5, -2.25, f32::MIN_POSITIVE, 0.0],
        });
        round_trip_request(Request::Batch {
            index: "sift".into(),
            k: 5,
            budget: 64,
            probes: 17,
            dim: 3,
            vectors: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        });
        round_trip_request(Request::Build {
            name: "glove-live".into(),
            spec: "mp-lccs:m=64,seed=7".into(),
            metric: "euclidean".into(),
            data_path: "/very/long/".repeat(40) + "data.fvecs",
            limit: 10_000,
            live: true,
            seal_threshold: 512,
            max_segments: 6,
            id_base: 0,
            id_step: 1,
        });
        // Strided id assignment (shard 2 of a 3-shard routed build).
        round_trip_request(Request::Build {
            name: "shard2".into(),
            spec: "linear".into(),
            metric: "euclidean".into(),
            data_path: "/tmp/slice2.fvecs".into(),
            limit: 0,
            live: true,
            seal_threshold: 0,
            max_segments: 0,
            id_base: 2,
            id_step: 3,
        });
        round_trip_request(Request::Insert {
            index: "live".into(),
            dim: 2,
            vectors: vec![1.0, 2.0, 3.0, 4.0],
            ids: vec![],
        });
        round_trip_request(Request::Insert {
            index: "live".into(),
            dim: 2,
            vectors: vec![1.0, 2.0, 3.0, 4.0],
            ids: vec![77, 99],
        });
        round_trip_request(Request::Delete { index: "live".into(), ids: vec![1, 2, 3] });
        round_trip_request(Request::Flush { index: "live".into() });
        // SEARCH: every combination of the optional sections.
        for filter in [None, Some(IdFilter::allow(vec![4, 7, 9])), Some(IdFilter::deny(vec![2]))] {
            for max_dist in [None, Some(1.5)] {
                for want_stats in [false, true] {
                    for target_recall in [None, Some(0.9)] {
                        // Planned requests carry 0-sentinel knobs, the
                        // shape real clients emit.
                        let (budget, probes) =
                            if target_recall.is_some() { (0, 0) } else { (128, 3) };
                        round_trip_request(Request::Search {
                            index: "glove".into(),
                            k: 10,
                            budget,
                            probes,
                            filter: filter.clone(),
                            max_dist,
                            want_stats,
                            target_recall,
                            vector: vec![0.5, -1.25],
                        });
                    }
                }
            }
        }
        round_trip_request(Request::Calibrate { index: "glove".into(), sample: 256, k: 10 });
        round_trip_request(Request::Calibrate { index: "d".into(), sample: 0, k: 0 });
    }

    #[test]
    fn planned_search_frames_are_versioned() {
        let manual = Request::Search {
            index: "x".into(),
            k: 5,
            budget: 64,
            probes: 0,
            filter: None,
            max_dist: None,
            want_stats: false,
            target_recall: None,
            vector: vec![1.0],
        };
        assert_eq!(manual.encode()[1], SEARCH_VERSION, "manual requests stay version 1");
        let planned = Request::Search {
            index: "x".into(),
            k: 5,
            budget: 0,
            probes: 0,
            filter: None,
            max_dist: None,
            want_stats: false,
            target_recall: Some(0.9),
            vector: vec![1.0],
        };
        let body = planned.encode();
        assert_eq!(body[1], SEARCH_VERSION_PLANNED);
        // The same flag bit on a version-1 frame is rejected as an
        // unknown bit — exactly how a pre-plan build would react.
        let mut v1 = body;
        v1[1] = SEARCH_VERSION;
        assert!(
            matches!(Request::decode(&v1), Err(ProtoError::BadShape(m)) if m.contains("flag")),
            "v1 + target flag must be an unknown-bit error"
        );
        // NaN targets cross the wire bit-intact for validation to reject
        // with the shared error text.
        let nan = Request::Search {
            index: "x".into(),
            k: 5,
            budget: 0,
            probes: 0,
            filter: None,
            max_dist: None,
            want_stats: false,
            target_recall: Some(f64::NAN),
            vector: vec![1.0],
        };
        let Request::Search { target_recall: Some(back), .. } =
            Request::decode(&nan.encode()).expect("NaN target decodes")
        else {
            panic!("wrong variant")
        };
        assert!(back.is_nan());
    }

    #[test]
    fn malformed_search_frames_are_rejected() {
        let good = Request::Search {
            index: "x".into(),
            k: 5,
            budget: 64,
            probes: 0,
            filter: Some(IdFilter::allow(vec![1, 2])),
            max_dist: Some(0.5),
            want_stats: true,
            target_recall: None,
            vector: vec![1.0],
        }
        .encode();
        // Every truncation fails cleanly.
        for cut in 0..good.len() {
            assert!(Request::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // A future version byte is rejected, not misread.
        let mut future = good.clone();
        future[1] = SEARCH_VERSION_PLANNED + 1;
        assert!(matches!(Request::decode(&future), Err(ProtoError::BadShape(m)) if m.contains("version")));
        // Unknown flag bits are rejected (flags sit after the 1-byte tag,
        // 1-byte version, 1-length-prefixed 1-byte name, and three u32s).
        let flags_at = 1 + 1 + 2 + 12;
        assert_eq!(good[flags_at] & SEARCH_FLAGS_KNOWN, good[flags_at]);
        let mut unknown = good.clone();
        unknown[flags_at] |= 1 << 6;
        assert!(matches!(Request::decode(&unknown), Err(ProtoError::BadShape(m)) if m.contains("flag")));
        // Allow + deny together is contradictory.
        let mut both = good;
        both[flags_at] |= SEARCH_FLAG_DENY;
        assert!(matches!(Request::decode(&both), Err(ProtoError::BadShape(m)) if m.contains("both")));
    }

    #[test]
    fn malformed_insert_shapes_are_rejected() {
        let raw = |nq: u32, ids: &[u32]| {
            let mut body = vec![REQ_INSERT, 1, b'x'];
            body.extend_from_slice(&2u32.to_le_bytes()); // dim
            body.extend_from_slice(&nq.to_le_bytes());
            for i in 0..nq * 2 {
                body.extend_from_slice(&(i as f32).to_bits().to_le_bytes());
            }
            body.extend_from_slice(&(ids.len() as u32).to_le_bytes());
            for id in ids {
                body.extend_from_slice(&id.to_le_bytes());
            }
            body
        };
        // An id list that is neither empty nor one-per-row.
        assert!(matches!(Request::decode(&raw(2, &[5])), Err(ProtoError::BadShape(_))));
        // Zero-row inserts are rejected outright.
        assert!(matches!(Request::decode(&raw(0, &[])), Err(ProtoError::BadShape(_))));
        // The valid shapes decode.
        assert!(Request::decode(&raw(2, &[5, 6])).is_ok());
        assert!(Request::decode(&raw(2, &[])).is_ok());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Pong);
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error("no such index".into()));
        round_trip_response(Response::List(vec![IndexInfo {
            name: "demo".into(),
            method: "LCCS-LSH".into(),
            len: 2000,
            dim: 32,
            index_bytes: 1 << 20,
            spec: "lccs:m=16,seed=42".into(),
            load_mode: "mapped".into(),
            sq8: true,
            cal: "fresh".into(),
            cal_age_secs: 42,
        }]));
        round_trip_response(Response::Built {
            info: IndexInfo {
                name: "built".into(),
                method: "MP-LCCS-LSH".into(),
                len: 500,
                dim: 16,
                index_bytes: 4096,
                spec: "mp-lccs:m=16".into(),
                load_mode: "owned".into(),
                sq8: false,
                cal: "none".into(),
                cal_age_secs: 0,
            },
            build_micros: 123_456,
            snapshot_path: "/tmp/snaps/built.snap".into(),
        });
        round_trip_response(Response::Neighbors(vec![
            Neighbor { id: 7, dist: 0.25 },
            Neighbor { id: 9, dist: 1.0 / 3.0 },
        ]));
        round_trip_response(Response::Batch(vec![
            vec![Neighbor { id: 1, dist: 1.0 }],
            vec![],
            vec![Neighbor { id: 2, dist: 2.0 }, Neighbor { id: 3, dist: 3.0 }],
        ]));
        round_trip_response(Response::Stats(vec![StatsEntry {
            name: "demo".into(),
            spec: "e2lsh:k=12,l=50".into(),
            load_mode: "shared".into(),
            sq8: true,
            queries: 3,
            batch_requests: 1,
            batch_queries: 100,
            inserts: 42,
            deletes: 7,
            flushes: 2,
            wal_records: 49,
            wal_bytes: 3_210,
            seals: 4,
            candidates_scanned: 123_456,
            total_micros: 4242,
            max_micros: 999,
            latency_hist: vec![0, 2, 50, 40, 9, 2, 0, 1],
            p50_micros: 7,
            p99_micros: 63,
            heap_pushes: 888,
            sq8_pruned: 70_000,
            planned: 12,
            degraded: 3,
            cal: "stale".into(),
            cal_age_secs: 3600,
        }]));
        round_trip_response(Response::Partial {
            lists: vec![
                vec![Neighbor { id: 4, dist: 0.125 }, Neighbor { id: 1, dist: 0.5 }],
                vec![],
            ],
            missing_shards: vec!["shard1@127.0.0.1:7701".into()],
        });
        round_trip_response(Response::Partial { lists: vec![], missing_shards: vec![] });
        round_trip_response(Response::Search {
            hits: vec![Neighbor { id: 3, dist: 0.75 }],
            stats: None,
        });
        round_trip_response(Response::Search {
            hits: vec![],
            // sq8_pruned stays 0: it is node-local and never encoded.
            stats: Some(SearchStats {
                candidates_scanned: 64,
                heap_pushes: 9,
                wall_micros: 1234,
                sq8_pruned: 0,
                plan: None,
            }),
        });
        round_trip_response(Response::Search {
            hits: vec![Neighbor { id: 5, dist: 0.5 }],
            stats: Some(SearchStats {
                candidates_scanned: 64,
                heap_pushes: 9,
                wall_micros: 1234,
                sq8_pruned: 0,
                plan: Some(PlanChoice {
                    budget: 96,
                    probes: 8,
                    predicted_recall: 0.93,
                    effective_target: 0.9,
                }),
            }),
        });
        round_trip_response(Response::Calibrated { points: 24, max_recall: 0.995, sample: 256 });
        round_trip_response(Response::Metrics(
            "# TYPE ann_requests_total counter\nann_requests_total 7\n".into(),
        ));
        round_trip_response(Response::Inserted { ids: vec![0, 1, 2, 4_000_000_000] });
        round_trip_response(Response::Deleted { removed: 3 });
        round_trip_response(Response::Flushed {
            snapshot_path: "/tmp/snaps/live.snap".into(),
            segments: 4,
            live_rows: 12_345,
        });
    }

    #[test]
    fn plan_section_requires_the_stats_section() {
        // tag, flags = plan-only, zero hits: contradictory by construction.
        let mut body = vec![RESP_SEARCH, SEARCH_RESP_FLAG_PLAN];
        body.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Response::decode(&body),
            Err(ProtoError::BadShape(m)) if m.contains("plan")
        ));
    }

    #[test]
    fn long_error_messages_truncate_on_char_boundaries() {
        // 1022 ASCII bytes then a 3-byte char straddling the 1024 cap:
        // the encoder must back up to the boundary, not emit broken UTF-8.
        let msg = format!("{}€€", "x".repeat(1022));
        let back = Response::decode(&Response::Error(msg.clone()).encode()).expect("decodable");
        let Response::Error(out) = back else { panic!("wrong variant") };
        assert_eq!(out, "x".repeat(1022), "truncated before the split char");
        // Short messages pass through untouched.
        let back = Response::decode(&Response::Error("héllo".into()).encode()).unwrap();
        assert_eq!(back, Response::Error("héllo".into()));
    }

    #[test]
    fn nan_distance_is_bit_preserved() {
        // Distances must survive bit-exactly, including awkward values.
        let ns = vec![Neighbor { id: 1, dist: f64::from_bits(0x7ff8_0000_0000_0001) }];
        let back = Response::decode(&Response::Neighbors(ns.clone()).encode()).unwrap();
        let Response::Neighbors(out) = back else { panic!("wrong variant") };
        assert_eq!(out[0].dist.to_bits(), ns[0].dist.to_bits());
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(Request::decode(&[99]), Err(ProtoError::BadTag(99)));
        assert_eq!(Response::decode(&[42]), Err(ProtoError::BadTag(42)));
        assert_eq!(Request::decode(&[]), Err(ProtoError::Truncated));
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let good = Request::Query {
            index: "x".into(),
            k: 1,
            budget: 8,
            probes: 0,
            vector: vec![1.0, 2.0],
        }
        .encode();
        for cut in 0..good.len() {
            assert!(Request::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(ProtoError::BadShape(_))));
    }

    #[test]
    fn metrics_request_round_trips() {
        round_trip_request(Request::Metrics);
    }

    #[test]
    fn trace_section_round_trips_on_every_request_kind() {
        let ctx = TraceContext { trace_id: 0xdead_beef_cafe_f00d, span_id: 0x0123_4567_89ab_cdef };
        let kinds = [
            Request::Ping,
            Request::List,
            Request::Stats,
            Request::Shutdown,
            Request::Metrics,
            Request::Query {
                index: "glove".into(),
                k: 10,
                budget: 128,
                probes: 0,
                vector: vec![1.5, -2.25],
            },
            Request::Batch {
                index: "sift".into(),
                k: 5,
                budget: 64,
                probes: 17,
                dim: 3,
                vectors: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
            Request::Build {
                name: "b".into(),
                spec: "linear".into(),
                metric: "euclidean".into(),
                data_path: "/tmp/d.fvecs".into(),
                limit: 0,
                live: false,
                seal_threshold: 0,
                max_segments: 0,
                id_base: 0,
                id_step: 1,
            },
            Request::Insert {
                index: "live".into(),
                dim: 2,
                vectors: vec![1.0, 2.0],
                ids: vec![7],
            },
            Request::Delete { index: "live".into(), ids: vec![1, 2] },
            Request::Flush { index: "live".into() },
            Request::Search {
                index: "glove".into(),
                k: 10,
                budget: 128,
                probes: 3,
                filter: Some(IdFilter::allow(vec![4, 7])),
                max_dist: Some(1.5),
                want_stats: true,
                target_recall: None,
                vector: vec![0.5, -1.25],
            },
            Request::Search {
                index: "glove".into(),
                k: 10,
                budget: 0,
                probes: 0,
                filter: None,
                max_dist: None,
                want_stats: true,
                target_recall: Some(0.95),
                vector: vec![0.5, -1.25],
            },
            Request::Calibrate { index: "glove".into(), sample: 128, k: 10 },
        ];
        for req in kinds {
            // Traced frames carry the context through intact.
            let traced = req.encode_traced(Some(ctx));
            assert_eq!(
                Request::decode_traced(&traced).expect("traced decode"),
                (req.clone(), Some(ctx))
            );
            // Plain decode accepts the same bytes and discards the context.
            assert_eq!(Request::decode(&traced).expect("plain decode"), req);
            // An absent context leaves the encoding byte-identical to the
            // pre-trace wire format.
            assert_eq!(req.encode_traced(None), req.encode());
            assert_eq!(
                Request::decode_traced(&req.encode()).expect("untraced decode"),
                (req.clone(), None)
            );
        }
    }

    #[test]
    fn malformed_trace_sections_are_rejected() {
        let ctx = TraceContext { trace_id: 1, span_id: 2 };
        let good = Request::Ping.encode_traced(Some(ctx));
        assert_eq!(good.len(), 1 + TRACE_SECTION_LEN);
        // Wrong magic.
        let mut bad = good.clone();
        bad[1] = 0x00;
        assert!(matches!(Request::decode_traced(&bad), Err(ProtoError::BadShape(m)) if m.contains("magic")));
        // A future section version is rejected, not misread.
        let mut bad = good.clone();
        bad[2] = TRACE_VERSION + 1;
        assert!(matches!(Request::decode_traced(&bad), Err(ProtoError::BadShape(m)) if m.contains("version")));
        // Any trailing length other than 0 or the full section is junk —
        // including a truncated section and an oversized one.
        for cut in 2..good.len() {
            assert!(Request::decode_traced(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(Request::decode_traced(&long), Err(ProtoError::BadShape(_))));
    }

    #[test]
    fn frame_round_trips_and_detects_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // Mid-frame EOF is an error, not a silent None.
        let cut = &buf[..3];
        let mut r = cut;
        assert!(read_frame(&mut r).is_err());
        // Oversized declared length is rejected before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }
}
