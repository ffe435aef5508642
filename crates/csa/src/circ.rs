//! Circular-string primitives: storage, rotation-aware comparison, LCP.
//!
//! Definitions 3.1–3.2 of the paper operate on *rotations* of fixed-length
//! strings. Nothing here materializes a rotation: all comparisons walk the
//! original rows with a starting offset, split into two linear segments to
//! keep the inner loops free of modulo operations.
//!
//! # Symbol width
//!
//! Strings come in as `u64` symbols and are **stored** at the narrowest
//! width that holds them: [`StringSet::from_flat`] keeps `u16` symbols
//! when every symbol is `< 0xFFFF` (E2LSH bucket ids, cross-polytope
//! vertex ids, bit samples), and the `u64` buffer otherwise (MinHash's
//! `u64::MAX` sentinel). A *query* symbol that does not fit the stored
//! width is clamped to that width's `MAX`: `MAX`
//! is stored nowhere (`0xFFFF` forces the wide tier) and exceeds every
//! stored symbol, exactly as the unclamped value did — so every
//! comparison and LCP against the stored rows is unchanged.

use std::cmp::Ordering;

/// A stored symbol type: `u16` or `u64`. The search and build code is
/// written once over it.
pub(crate) trait Symbol: Copy + Ord + Into<u64> + Send + Sync + std::fmt::Debug + 'static {
    /// Brings a `u64` symbol to this width, clamping what does not fit to
    /// the width's `MAX` (module docs: the clamp rule).
    fn clamp_from(sym: u64) -> Self;

    /// The buffer of `buf` that holds a query at this width.
    fn query_buf(buf: &mut QueryBuf) -> &mut Vec<Self>;
}

impl Symbol for u16 {
    #[inline]
    fn clamp_from(sym: u64) -> Self {
        u16::try_from(sym).unwrap_or(u16::MAX)
    }

    fn query_buf(buf: &mut QueryBuf) -> &mut Vec<Self> {
        &mut buf.narrow
    }
}

impl Symbol for u64 {
    #[inline]
    fn clamp_from(sym: u64) -> Self {
        sym
    }

    fn query_buf(buf: &mut QueryBuf) -> &mut Vec<Self> {
        &mut buf.wide
    }
}

/// Reusable storage for a query brought to a stored symbol width; only the
/// buffer of the width in use ever grows.
#[derive(Debug, Default)]
pub(crate) struct QueryBuf {
    narrow: Vec<u16>,
    wide: Vec<u64>,
}

impl QueryBuf {
    /// `q` at width `S`, symbols that do not fit clamped (module docs).
    pub(crate) fn narrowed<S: Symbol>(&mut self, q: &[u64]) -> &[S] {
        let buf = S::query_buf(self);
        buf.clear();
        buf.extend(q.iter().map(|&sym| S::clamp_from(sym)));
        buf
    }
}

/// `data` as `u64` symbols.
pub(crate) fn widened<S: Symbol>(data: &[S]) -> impl Iterator<Item = u64> + '_ {
    data.iter().map(|&sym| sym.into())
}

/// Row-major symbols at their stored width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Symbols {
    /// Every symbol is `< 0xFFFF`.
    U16(Vec<u16>),
    /// Anything else.
    U64(Vec<u64>),
}

/// Evaluates `$body` with `$data` bound to the buffer of `$symbols`
/// (`&Symbols`), whichever width it has: one body, compiled once per width.
macro_rules! with_symbols {
    ($symbols:expr, $data:ident => $body:expr) => {
        match $symbols {
            $crate::circ::Symbols::U16($data) => $body,
            $crate::circ::Symbols::U64($data) => $body,
        }
    };
}
pub(crate) use with_symbols;

/// A set of `n` strings of identical length `m`, stored row-major in one
/// flat allocation at the narrowest symbol width that holds them (module
/// docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringSet {
    n: usize,
    m: usize,
    symbols: Symbols,
}

impl StringSet {
    /// Wraps a flat row-major buffer of `n` strings of length `m`,
    /// narrowing it to `u16` symbols when every symbol is `< 0xFFFF`.
    ///
    /// # Panics
    /// Panics if `m == 0` or the buffer length is not `n * m`.
    pub fn from_flat(n: usize, m: usize, data: Vec<u64>) -> Self {
        let symbols = if data.iter().all(|&sym| sym < u64::from(u16::MAX)) {
            Symbols::U16(data.iter().map(|&sym| sym as u16).collect())
        } else {
            Symbols::U64(data)
        };
        Self::from_symbols(n, m, symbols)
    }

    /// [`StringSet::from_flat`] without the narrowing: the same rows at
    /// `u64` width, for tests that search one set at both widths.
    #[cfg(test)]
    pub(crate) fn from_flat_wide(n: usize, m: usize, data: Vec<u64>) -> Self {
        Self::from_symbols(n, m, Symbols::U64(data))
    }

    fn from_symbols(n: usize, m: usize, symbols: Symbols) -> Self {
        assert!(m > 0, "string length m must be positive");
        let len = with_symbols!(&symbols, data => data.len());
        assert_eq!(len, n * m, "buffer must hold exactly n*m symbols");
        Self { n, m, symbols }
    }

    /// Builds from explicit rows.
    ///
    /// # Panics
    /// Panics if rows are empty or have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<u64>]) -> Self {
        assert!(!rows.is_empty(), "need at least one string");
        let m = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * m);
        for r in rows {
            assert_eq!(r.len(), m, "inconsistent string lengths");
            data.extend_from_slice(r);
        }
        Self::from_flat(rows.len(), m, data)
    }

    /// Number of strings `n`.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the set holds no strings.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// String length `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The symbols at their stored width.
    pub(crate) fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Row `i` (unrotated), widened to `u64` symbols — an owned copy, for
    /// tests, oracles and tools; the search never widens a row.
    pub fn row(&self, i: usize) -> Vec<u64> {
        let span = i * self.m..(i + 1) * self.m;
        with_symbols!(&self.symbols, data => widened(&data[span]).collect())
    }

    /// Bytes of symbol storage (for index-size accounting).
    pub fn nbytes(&self) -> usize {
        with_symbols!(&self.symbols, data => std::mem::size_of_val(data.as_slice()))
    }

    /// `|LCP(shift(row_i, s), shift(q, s))|`, capped at `m`, on a widened
    /// copy of the row against the unclamped query — the string-comparing
    /// step of [`crate::naive::k_lccs_heap_reference`].
    pub fn lcp_row_query(&self, i: usize, q: &[u64], s: usize) -> usize {
        lcp_shifted(&self.row(i), q, s)
    }
}

/// Lexicographic comparison of `shift(a, s)` vs `shift(b, s)` where both
/// strings have the same length and `s < len`.
#[inline]
pub fn cmp_shifted<T: Ord>(a: &[T], b: &[T], s: usize) -> Ordering {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(s < a.len());
    for t in s..a.len() {
        match a[t].cmp(&b[t]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    for t in 0..s {
        match a[t].cmp(&b[t]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

/// `|LCP(shift(a, s), shift(b, s))|`, capped at the string length.
#[inline]
pub fn lcp_shifted<T: Eq>(a: &[T], b: &[T], s: usize) -> usize {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(s < a.len());
    let m = a.len();
    let mut l = 0;
    for t in s..m {
        if a[t] != b[t] {
            return l;
        }
        l += 1;
    }
    for t in 0..s {
        if a[t] != b[t] {
            return l;
        }
        l += 1;
    }
    l
}

/// Materializes `shift(t, s)` — used by tests and the naive reference, never
/// by the hot path.
pub fn rotate(t: &[u64], s: usize) -> Vec<u64> {
    let s = s % t.len();
    let mut out = Vec::with_capacity(t.len());
    out.extend_from_slice(&t[s..]);
    out.extend_from_slice(&t[..s]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotate_example_from_paper() {
        // shift(T, i) = [t_{i+1}, ..., t_m, t_1, ..., t_i]
        let t = [1u64, 2, 3, 4];
        assert_eq!(rotate(&t, 0), vec![1, 2, 3, 4]);
        assert_eq!(rotate(&t, 1), vec![2, 3, 4, 1]);
        assert_eq!(rotate(&t, 3), vec![4, 1, 2, 3]);
    }

    #[test]
    fn cmp_shifted_matches_materialized() {
        let a = [3u64, 1, 4, 1, 5];
        let b = [2u64, 7, 1, 8, 2];
        for s in 0..5 {
            let want = rotate(&a, s).cmp(&rotate(&b, s));
            assert_eq!(cmp_shifted(&a, &b, s), want, "shift {s}");
        }
    }

    #[test]
    fn lcp_shifted_matches_materialized() {
        let a = [1u64, 2, 3, 9, 1, 2];
        let b = [1u64, 2, 3, 9, 9, 2];
        for s in 0..6 {
            let ra = rotate(&a, s);
            let rb = rotate(&b, s);
            let want = ra.iter().zip(&rb).take_while(|(x, y)| x == y).count();
            assert_eq!(lcp_shifted(&a, &b, s), want, "shift {s}");
        }
    }

    #[test]
    fn lcp_of_identical_is_m() {
        let a = [5u64; 7];
        assert_eq!(lcp_shifted(&a, &a, 3), 7);
        assert_eq!(cmp_shifted(&a, &a, 3), Ordering::Equal);
    }

    #[test]
    fn stringset_accessors() {
        let s = StringSet::from_rows(&[vec![1, 2], vec![3, 4], vec![5, 6]]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.m(), 2);
        assert_eq!(s.row(1), [3, 4]);
        assert_eq!(s.nbytes(), 6 * 2, "small symbols are stored as u16");
    }

    #[test]
    fn width_is_the_narrowest_that_holds_every_symbol() {
        let narrow = StringSet::from_rows(&[vec![0, 0xFFFE]]);
        assert!(matches!(narrow.symbols(), Symbols::U16(_)));
        // 0xFFFF is the clamp value of the u16 tier, so it cannot be stored
        // there.
        for big in [0xFFFF, 0x1_0000, u64::MAX] {
            let wide = StringSet::from_rows(&[vec![0, big]]);
            assert!(matches!(wide.symbols(), Symbols::U64(_)), "{big:#x}");
            assert_eq!(wide.row(0), [0, big]);
            assert_eq!(wide.nbytes(), 2 * 8);
        }
        assert_eq!(u16::clamp_from(0xFFFE), 0xFFFE);
        assert_eq!(u16::clamp_from(0x1_0000), u16::MAX);
        assert_eq!(u16::clamp_from(u64::MAX), u16::MAX);
        assert_eq!(u64::clamp_from(u64::MAX), u64::MAX);
    }

    #[test]
    fn lcp_row_query_widens_the_row() {
        let s = StringSet::from_rows(&[vec![1, 2, 4, 5]]);
        assert_eq!(s.lcp_row_query(0, &[1, 2, 3, 4], 0), 2);
        // A query symbol no u16 row can hold matches nothing.
        assert_eq!(s.lcp_row_query(0, &[1, 2, 0x1_0000, 5], 0), 2);
        assert_eq!(s.lcp_row_query(0, &[1, 2, 0x1_0000, 5], 3), 3);
    }

    #[test]
    #[should_panic(expected = "inconsistent string lengths")]
    fn ragged_rows_panic() {
        StringSet::from_rows(&[vec![1], vec![1, 2]]);
    }

    #[test]
    #[should_panic(expected = "n*m symbols")]
    fn bad_flat_panics() {
        StringSet::from_flat(2, 3, vec![0; 5]);
    }
}
