//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions (the program itself is not instrumented —
//! that is ROADMAP item 5).
//!
//! A span is `{name, start_ns, end_ns, parent, query_id}`; spans of one
//! operation share `query_id`. A layer's **self time** is its span's
//! duration minus the part of that interval its child spans cover.
//!
//! Most stages cannot be timed *inside* the real call from outside the
//! program (`LccsLsh::search_request` hashes, searches the CSA and
//! verifies in one call), so the traced run makes the real call first —
//! that is the parent span — and then *replays* each stage through its
//! own public entry point on the same input. A replayed child keeps its
//! measured duration and is re-based onto its parent's interval,
//! children laid end to end from the parent's start, so the file is a
//! well-formed tree and self time falls out of the same subtraction as
//! for genuinely nested spans. Replays run cache-warm, so children are
//! slight under-estimates and the parent's self time a slight
//! over-estimate.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.stage` name.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Operation the span belongs to.
    pub query_id: u32,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        self.dur() as f64 / 1e3
    }
}

/// Span recorder; everything stays in memory until [`Tracer::write_jsonl`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span: where the next replayed child is laid (ns since origin).
    cursor: Vec<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cursor: Vec::new(),
        }
    }
}

impl Tracer {
    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of one span in µs.
    pub fn dur_us(&self, span: u32) -> f64 {
        self.spans[span as usize].dur_us()
    }

    /// Records a span with explicit bounds and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        debug_assert!(end_ns >= start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id,
        });
        self.cursor.push(start_ns);
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose children are timed in place before it is
    /// [`Tracer::close`]d.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, query_id: u32) -> u32 {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.record(name, parent, query_id, now, now)
    }

    /// Ends an [`Tracer::open`]ed span now.
    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span measured in place (a root, or a child that
    /// genuinely nests in its parent's interval).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        query_id: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = std::hint::black_box(f());
        let end = self.origin.elapsed().as_nanos() as u64;
        (self.record(name, parent, query_id, start, end), out)
    }

    /// Runs `f` as a *replayed* stage of `parent`: its measured duration
    /// is re-based onto the parent's interval after the parent's earlier
    /// children, clipped to the parent's end.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> (u32, R) {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let dur = t.elapsed().as_nanos() as u64;
        (self.replay_ns(name, parent, dur), out)
    }

    /// [`Tracer::replay`] for a duration measured by the caller.
    pub fn replay_ns(&mut self, name: &'static str, parent: u32, dur_ns: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (p_end, query_id) = (p.end_ns, p.query_id);
        let start = self.cursor[parent as usize].min(p_end);
        let end = (start + dur_ns).min(p_end);
        self.cursor[parent as usize] = end;
        self.record(name, Some(parent), query_id, start, end)
    }

    /// Self time of every span, in recording order: duration minus the
    /// union of its children's intervals clipped to its own.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    kids[p as usize].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut kids)
            .map(|(s, ivs)| {
                ivs.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in ivs.iter() {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                s.dur() - covered
            })
            .collect()
    }

    /// Median self time (µs) over all spans called `name` (for a leaf
    /// span, its duration); `None` if there are none.
    pub fn median_self_us(&self, name: &str) -> Option<f64> {
        let selfs = self.self_times_ns();
        let v: Vec<f64> = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e3)
            .collect();
        (!v.is_empty()).then(|| crate::stats::median(&v))
    }

    /// The trees under roots called `root`: the median over trees of the
    /// summed self time (µs) — by construction the median root duration,
    /// which the traced run compares with the untraced `query_p50_us` —
    /// and each span name's share of all that self time, largest first.
    pub fn tree_self(&self, root: &str) -> Option<(f64, Vec<(&'static str, f64)>)> {
        let selfs = self.self_times_ns();
        // Root index of every span (parents always precede children).
        let mut root_of: Vec<u32> = Vec::with_capacity(self.spans.len());
        for (i, s) in self.spans.iter().enumerate() {
            root_of.push(s.parent.map_or(i as u32, |p| root_of[p as usize]));
        }
        let mut per_tree = std::collections::BTreeMap::<u32, u64>::new();
        let mut per_name = std::collections::BTreeMap::<&'static str, u64>::new();
        for (i, &r) in root_of.iter().enumerate() {
            if self.spans[r as usize].name == root {
                *per_tree.entry(r).or_default() += selfs[i];
                *per_name.entry(self.spans[i].name).or_default() += selfs[i];
            }
        }
        if per_tree.is_empty() {
            return None;
        }
        let trees: Vec<f64> = per_tree.values().map(|&ns| ns as f64 / 1e3).collect();
        let total = per_name.values().sum::<u64>().max(1) as f64;
        let mut shares: Vec<(&'static str, f64)> = per_name
            .into_iter()
            .map(|(name, ns)| (name, ns as f64 / total))
            .collect();
        shares.sort_by(|a, b| b.1.total_cmp(&a.1));
        Some((crate::stats::median(&trees), shares))
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query_id
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let mut t = Tracer::default();
        let root = t.record("root", None, 0, 100, 200);
        // Two overlapping children cover [110,150]; a third pokes past
        // the parent's end and only counts up to it ([190,200]).
        let a = t.record("a", Some(root), 0, 110, 140);
        t.record("b", Some(root), 0, 130, 150);
        t.record("c", Some(root), 0, 190, 230);
        // A grandchild comes out of `a`, not out of the root.
        t.record("a1", Some(a), 0, 115, 125);
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 30 - 10, 20, 40, 10]);
    }

    #[test]
    fn replayed_children_are_laid_end_to_end_and_clipped() {
        let mut t = Tracer::default();
        let root = t.record("root", None, 7, 1_000, 2_000);
        let a = t.replay_ns("a", root, 300);
        let b = t.replay_ns("b", root, 500);
        let c = t.replay_ns("c", root, 900); // only 200 ns of room left
        let s = t.spans();
        assert_eq!(
            (s[a as usize].start_ns, s[a as usize].end_ns),
            (1_000, 1_300)
        );
        assert_eq!(
            (s[b as usize].start_ns, s[b as usize].end_ns),
            (1_300, 1_800)
        );
        assert_eq!(
            (s[c as usize].start_ns, s[c as usize].end_ns),
            (1_800, 2_000)
        );
        assert!(s.iter().all(|x| x.query_id == 7));
        assert_eq!(t.self_times_ns()[root as usize], 0);
        // Self times over the tree always add back up to the root, and
        // the shares say where they went.
        let (sum_us, shares) = t.tree_self("root").unwrap();
        assert_eq!(sum_us, 1.0);
        assert_eq!(
            shares,
            vec![("b", 0.5), ("a", 0.3), ("c", 0.2), ("root", 0.0)]
        );
        assert!(t.tree_self("a").is_none(), "only roots head a tree");
    }

    #[test]
    fn medians_by_name() {
        let mut t = Tracer::default();
        for (q, d) in [(0u32, 1_000u64), (1, 3_000), (2, 2_000)] {
            let r = t.record("q", None, q, 0, d);
            t.replay_ns("stage", r, d / 2);
        }
        assert_eq!(t.median_self_us("q"), Some(1.0));
        assert_eq!(
            t.median_self_us("stage"),
            Some(1.0),
            "a leaf's self time is its duration"
        );
        assert_eq!(t.median_self_us("nope"), None);
    }
}
