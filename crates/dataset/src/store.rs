//! Row-major vector store.
//!
//! All n×d datasets in the reproduction live in a single contiguous
//! allocation so that brute-force verification and hashing scan memory
//! linearly — matching how the original C++ code lays out its data.
//!
//! The flat buffer has two backings: plain owned memory (the default),
//! or a shared [`mm::FloatBlock`] — an `Arc` over either an mmap'd
//! snapshot region or a decode buffer — which is how the serving layer
//! restores snapshots without copying the vector block. A dataset also
//! lazily caches an [`Sq8`] code table (per-dimension scalar
//! quantization) that the scan loops use as a sound skip-bound
//! pre-filter; the cache never changes answers, so equality and
//! cloning ignore it.

use crate::metric::{self, Metric};
use crate::sq8::Sq8;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Where a dataset's flat buffer physically lives. Surfaced through
/// the serving layer so operators can see which path answers queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// A plain owned `Vec<f32>`.
    Owned,
    /// A shared decode buffer (zero vector-block copy, but the file
    /// bytes were read into memory).
    SharedBytes,
    /// A shared mmap'd file region (zero-copy; pages fault in lazily).
    Mapped,
}

impl StorageKind {
    /// Stable lower-case label (`owned` / `shared` / `mapped`) used in
    /// daemon logs and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Owned => "owned",
            StorageKind::SharedBytes => "shared",
            StorageKind::Mapped => "mapped",
        }
    }
}

#[derive(Clone)]
enum Flat {
    Owned(Vec<f32>),
    Shared(Arc<mm::FloatBlock>),
}

impl Flat {
    fn as_slice(&self) -> &[f32] {
        match self {
            Flat::Owned(v) => v,
            Flat::Shared(b) => b.as_slice(),
        }
    }
}

/// An immutable collection of `n` vectors of dimension `d` stored row-major.
#[derive(Clone)]
pub struct Dataset {
    name: String,
    dim: usize,
    data: Flat,
    /// Lazily-built SQ8 code table. Pure cache: derived entirely from
    /// the vectors, ignored by `PartialEq`, shared by `Clone`.
    sq8: OnceLock<Arc<Sq8>>,
}

/// A borrowed view of one vector in a [`Dataset`].
pub type VectorView<'a> = &'a [f32];

impl Dataset {
    /// Wraps a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `data.len()` is not a multiple of `dim`.
    pub fn from_flat(name: impl Into<String>, dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            data.len() % dim,
            0,
            "buffer length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        Self { name: name.into(), dim, data: Flat::Owned(data), sq8: OnceLock::new() }
    }

    /// Wraps a shared float block (an mmap'd snapshot region or a
    /// shared decode buffer) without copying it.
    ///
    /// # Panics
    /// Panics if `dim == 0` or `block.len()` is not a multiple of `dim`.
    pub fn from_shared(name: impl Into<String>, dim: usize, block: Arc<mm::FloatBlock>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(
            block.len() % dim,
            0,
            "block length {} is not a multiple of dim {}",
            block.len(),
            dim
        );
        Self { name: name.into(), dim, data: Flat::Shared(block), sq8: OnceLock::new() }
    }

    /// Builds a dataset from per-vector rows.
    ///
    /// # Panics
    /// Panics if rows have inconsistent dimensions or `rows` is empty.
    pub fn from_rows(name: impl Into<String>, rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "dataset must contain at least one vector");
        let dim = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            assert_eq!(row.len(), dim, "inconsistent row dimension");
            data.extend_from_slice(row);
        }
        Self::from_flat(name, dim, data)
    }

    /// Dataset name (used in reports; mirrors the paper's Table 2 names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of vectors `n`.
    pub fn len(&self) -> usize {
        self.data.as_slice().len() / self.dim
    }

    /// True when the dataset holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.data.as_slice().is_empty()
    }

    /// Dimensionality `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Where the flat buffer physically lives (owned / shared / mapped).
    pub fn storage(&self) -> StorageKind {
        match &self.data {
            Flat::Owned(_) => StorageKind::Owned,
            Flat::Shared(b) if b.is_mapped() => StorageKind::Mapped,
            Flat::Shared(_) => StorageKind::SharedBytes,
        }
    }

    /// Borrow vector `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> VectorView<'_> {
        &self.data.as_slice()[i * self.dim..(i + 1) * self.dim]
    }

    /// Hints the CPU to start loading vector `i` into cache
    /// ([`mm::prefetch_read`]): for loops that know a few iterations
    /// ahead which rows they will read. Never changes a result.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn prefetch_row(&self, i: usize) {
        mm::prefetch_read(self.get(i));
    }

    /// Iterator over all vectors in id order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = VectorView<'_>> {
        self.data.as_slice().chunks_exact(self.dim)
    }

    /// The backing flat buffer.
    pub fn as_flat(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// In-memory size in bytes of the raw vectors (Table 2's "Data Size").
    pub fn nbytes(&self) -> usize {
        std::mem::size_of_val(self.data.as_slice())
    }

    /// The SQ8 code table for this dataset, training it on first use.
    /// Deterministic in the vectors, so every caller sees the same
    /// codes regardless of who triggered training.
    pub fn sq8(&self) -> &Arc<Sq8> {
        self.sq8.get_or_init(|| Arc::new(Sq8::train(self.as_flat(), self.dim)))
    }

    /// The SQ8 code table if one has already been trained or installed
    /// (`None` otherwise). Scan loops use this so that a path nobody
    /// primed stays pure f32.
    pub fn sq8_if_built(&self) -> Option<&Arc<Sq8>> {
        self.sq8.get()
    }

    /// Installs a pre-built SQ8 table (restored from a snapshot). A
    /// no-op if a table is already cached.
    pub fn set_sq8(&self, sq8: Arc<Sq8>) {
        let _ = self.sq8.set(sq8);
    }

    /// Normalizes every vector to unit L2 norm (Angular-distance datasets are
    /// stored on the unit sphere, as FALCONN and the paper's angular
    /// experiments do). Zero vectors are left untouched. Shared backings
    /// are copied on write; any cached SQ8 table is dropped (codes are
    /// derived from the vectors being rescaled).
    pub fn normalized(self) -> Self {
        let Dataset { name, dim, data, .. } = self;
        let mut data = match data {
            Flat::Owned(v) => v,
            Flat::Shared(b) => b.as_slice().to_vec(),
        };
        for row in data.chunks_exact_mut(dim) {
            let n = metric::norm(row);
            if n > 0.0 {
                let inv = (1.0 / n) as f32;
                for x in row {
                    *x *= inv;
                }
            }
        }
        Dataset { name, dim, data: Flat::Owned(data), sq8: OnceLock::new() }
    }

    /// Splits off `q` vectors chosen uniformly at random (without
    /// replacement) to act as the query set, mirroring the paper's protocol
    /// of "randomly select 100 objects from their test sets". The returned
    /// queries are copies; the dataset itself is unchanged (the paper's
    /// queries come from held-out test sets, so keeping them in the database
    /// is harmless at these scales and keeps ids stable).
    ///
    /// # Panics
    /// Panics if `q > len()`.
    pub fn sample_queries(&self, q: usize, seed: u64) -> Dataset {
        assert!(q <= self.len(), "cannot sample {} queries from {} vectors", q, self.len());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let idx = sample(&mut rng, self.len(), q);
        let mut data = Vec::with_capacity(q * self.dim);
        for i in idx.iter() {
            data.extend_from_slice(self.get(i));
        }
        Dataset::from_flat(format!("{}-queries", self.name), self.dim, data)
    }

    /// Returns a new dataset containing only the first `n` vectors.
    ///
    /// # Panics
    /// Panics if `n > len()`.
    pub fn truncated(&self, n: usize) -> Dataset {
        assert!(n <= self.len());
        Dataset::from_flat(self.name.clone(), self.dim, self.as_flat()[..n * self.dim].to_vec())
    }

    /// Distance between stored vector `i` and an external query.
    #[inline]
    pub fn distance_to(&self, i: usize, query: &[f32], metric: Metric) -> f64 {
        metric.distance(self.get(i), query)
    }
}

impl std::ops::Index<usize> for Dataset {
    type Output = [f32];
    fn index(&self, i: usize) -> &[f32] {
        self.get(i)
    }
}

/// Equality is over the logical content (name, shape, vector bits);
/// the physical backing and the SQ8 cache are representation details.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.dim == other.dim && self.as_flat() == other.as_flat()
    }
}

impl std::fmt::Debug for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dataset")
            .field("name", &self.name)
            .field("dim", &self.dim)
            .field("len", &self.len())
            .field("storage", &self.storage())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(
            "unit",
            &[vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 4.0]],
        )
    }

    #[test]
    fn round_trips_rows() {
        let d = small();
        assert_eq!(d.len(), 4);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.get(3), &[3.0, 4.0]);
        assert_eq!(&d[1], &[1.0, 0.0]);
        assert_eq!(d.iter().count(), 4);
        assert_eq!(d.storage(), StorageKind::Owned);
    }

    #[test]
    fn nbytes_counts_floats() {
        assert_eq!(small().nbytes(), 4 * 2 * 4);
    }

    #[test]
    fn normalization_hits_unit_sphere() {
        let d = small().normalized();
        // zero vector untouched
        assert_eq!(d.get(0), &[0.0, 0.0]);
        let v = d.get(3);
        assert!((metric::norm(v) - 1.0).abs() < 1e-6);
        assert!((v[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn queries_are_members() {
        let d = small();
        let q = d.sample_queries(2, 9);
        assert_eq!(q.len(), 2);
        for qv in q.iter() {
            assert!(d.iter().any(|dv| dv == qv), "query must be drawn from data");
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let d = small();
        assert_eq!(d.sample_queries(3, 5), d.sample_queries(3, 5));
    }

    #[test]
    fn truncation() {
        let t = small().truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(1), &[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_flat_buffer_panics() {
        Dataset::from_flat("x", 3, vec![1.0; 7]);
    }

    #[test]
    #[should_panic(expected = "inconsistent row dimension")]
    fn ragged_rows_panic() {
        Dataset::from_rows("x", &[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn distance_to_query() {
        let d = small();
        assert!((d.distance_to(3, &[0.0, 0.0], Metric::Euclidean) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn shared_backing_is_equal_but_distinguishable() {
        let owned = small();
        let bytes: Vec<u8> =
            owned.as_flat().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        let n = owned.as_flat().len();
        match mm::FloatBlock::from_bytes(bytes, 0, n) {
            Ok(block) => {
                let shared = Dataset::from_shared("unit", 2, Arc::new(block));
                assert_eq!(shared.storage(), StorageKind::SharedBytes);
                assert_eq!(shared, owned, "equality ignores the physical backing");
                assert_eq!(shared.get(3), owned.get(3));
                // Copy-on-write: normalizing a shared dataset yields owned data.
                assert_eq!(shared.clone().normalized().storage(), StorageKind::Owned);
            }
            Err(_) => {
                // A 1-aligned decode buffer is legitimate; the serve
                // layer falls back to an owned copy in that case.
            }
        }
    }

    #[test]
    fn sq8_cache_is_lazy_shared_and_ignored_by_eq() {
        let a = small();
        let b = small();
        assert!(a.sq8_if_built().is_none(), "cache starts empty");
        let codes = Arc::clone(a.sq8());
        assert!(a.sq8_if_built().is_some());
        assert_eq!(a, b, "code cache does not affect equality");
        // Clones share the already-trained table.
        let c = a.clone();
        assert!(Arc::ptr_eq(c.sq8(), &codes));
        // Normalization invalidates the cache (vectors changed).
        assert!(a.normalized().sq8_if_built().is_none());
    }

    #[test]
    fn storage_labels_are_stable() {
        assert_eq!(StorageKind::Owned.label(), "owned");
        assert_eq!(StorageKind::SharedBytes.label(), "shared");
        assert_eq!(StorageKind::Mapped.label(), "mapped");
    }
}
