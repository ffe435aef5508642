//! The self-describing query contract: [`SearchRequest`] in,
//! [`SearchResponse`] out.
//!
//! Until this module existed every layer of the workspace spoke the bare
//! `(k, budget, probes)` triple, so adding a query capability meant
//! changing five signatures at once. A [`SearchRequest`] instead carries
//! the whole question — top-`k` knobs plus the two capabilities that the
//! ranked-answer literature motivates beyond plain top-k:
//!
//! * **predicate-filtered search** — an [`IdFilter`] restricting which
//!   object ids may appear in the answer (access-control lists, shard
//!   routing, "only documents from this user");
//! * **range / threshold search** — a `max_dist` cap making the answer
//!   "the nearest `k` objects *within distance `max_dist`*", possibly
//!   fewer than `k`.
//!
//! A [`SearchResponse`] pairs the verified hits with [`SearchStats`]
//! (candidates scanned, heap pushes, wall time), so budget tuning is
//! observable at every layer — the serving daemon accumulates the scanned
//! counter into its per-index STATS.
//!
//! Construction goes through the builder (`SearchRequest::top_k(10)
//! .budget(128).probes(17)`), which replaces the positional-knob footguns
//! of the older [`SearchParams`] type; [`SearchRequest::validate`] is the
//! one shared legality rule (`1 ≤ k ≤ rows`, finite threshold) that the
//! in-process harness, the live index, and the wire server all call
//! instead of re-implementing their own variants.

use crate::traits::SearchParams;
use dataset::exact::Neighbor;

/// Default candidate budget a bare `SearchRequest::top_k(k)` carries —
/// the mid-ladder λ the paper's sweeps center on.
pub const DEFAULT_BUDGET: usize = 128;

/// A predicate over external object ids, restricting which objects may
/// appear in a search answer.
///
/// The id list is stored sorted and deduplicated (the constructors
/// normalize), so [`IdFilter::accepts`] is a binary search — cheap enough
/// to sit inside a verification loop. A list that covers at least one id
/// in 64 of the range it spans (a live segment's tombstone mask, a
/// tenant's share of a dense id space) also gets a bitset over that
/// range, and membership becomes one indexed load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdFilter {
    /// `true` = allowlist (only these ids may match), `false` = denylist
    /// (everything but these ids may match).
    allow: bool,
    /// Sorted, deduplicated ids.
    ids: Vec<u32>,
    /// Bit `id` is set iff `ids` lists `id` — present only for a dense
    /// list (never more words than ids, so a filter decoded off the wire
    /// cannot make it large), empty otherwise.
    bits: Vec<u64>,
}

impl IdFilter {
    fn normalized(allow: bool, mut ids: Vec<u32>) -> IdFilter {
        ids.sort_unstable();
        ids.dedup();
        let words = ids.last().map_or(0, |&max| max as usize / 64 + 1);
        let mut bits = Vec::new();
        if words <= ids.len() {
            bits = vec![0u64; words];
            for &id in &ids {
                bits[id as usize / 64] |= 1 << (id % 64);
            }
        }
        IdFilter { allow, ids, bits }
    }

    /// Only the given ids may appear in the answer.
    pub fn allow(ids: impl Into<Vec<u32>>) -> IdFilter {
        IdFilter::normalized(true, ids.into())
    }

    /// The given ids may *not* appear in the answer.
    pub fn deny(ids: impl Into<Vec<u32>>) -> IdFilter {
        IdFilter::normalized(false, ids.into())
    }

    /// Whether this is an allowlist (`true`) or a denylist (`false`).
    pub fn is_allow(&self) -> bool {
        self.allow
    }

    /// The sorted, deduplicated id list.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Does the filter let `id` through?
    #[inline]
    pub fn accepts(&self, id: u32) -> bool {
        let listed = if self.bits.is_empty() {
            self.ids.binary_search(&id).is_ok()
        } else {
            self.bits.get(id as usize / 64).is_some_and(|w| w >> (id % 64) & 1 == 1)
        };
        listed == self.allow
    }
}

/// Which optional sections a [`SearchResponse`] should carry beyond the
/// hits themselves. On the wire these become bitflag-gated sections, so
/// a response never pays for a field nobody asked for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResponseFields {
    /// Return [`SearchStats`] alongside the hits. Indexes collect the
    /// counters either way (they are a few integer bumps); this flag is
    /// about what travels back to the caller.
    pub stats: bool,
}

/// What the recall planner decided for a query, reported inside
/// [`SearchStats`] when the request asked for a recall target instead of
/// explicit knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanChoice {
    /// The candidate budget the planner substituted.
    pub budget: u32,
    /// The probe count the planner substituted.
    pub probes: u32,
    /// The calibration table's measured recall at the chosen point (may
    /// fall short of the target when the target exceeds what the table
    /// can reach — the shortfall is reported, never hidden).
    pub predicted_recall: f64,
    /// The target actually planned for, after the overload dial: equals
    /// the requested target unless degradation stepped it down toward
    /// the configured recall floor.
    pub effective_target: f64,
}

/// Per-query execution counters, returned inside every
/// [`SearchResponse`].
///
/// The LCCS schemes and the live index report exact counts from inside
/// their candidate loops; the default trait implementation (which
/// delegates to the legacy `query_with`) reports the number of returned
/// candidates as a lower-bound estimate — still monotone in the budget,
/// which is what tuning needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SearchStats {
    /// Candidates the verification phase looked at (λ-bounded for the
    /// LCCS schemes; the whole dataset for the exact scans).
    pub candidates_scanned: u64,
    /// Pushes into the bounded top-`k` heap (a proxy for how contested
    /// the answer set was).
    pub heap_pushes: u64,
    /// Wall-clock time spent answering, in microseconds.
    pub wall_micros: u64,
    /// Candidates the SQ8 certified skip bound pruned before their
    /// full-width distance was computed (a subset of
    /// `candidates_scanned`; zero on paths without trained codes).
    /// Node-local telemetry: it feeds the METRICS exposition but does
    /// not travel in the wire stats section, whose layout is pinned.
    pub sq8_pruned: u64,
    /// What the recall planner chose, when the request carried a
    /// `target_recall` instead of explicit knobs (`None` for manual
    /// requests). Travels in its own flag-gated wire section.
    pub plan: Option<PlanChoice>,
}

impl SearchStats {
    /// Folds another unit's counters into this one (used by fan-out
    /// indexes that merge per-segment answers). Wall time takes the max
    /// rather than the sum: segments run concurrently.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.candidates_scanned += other.candidates_scanned;
        self.heap_pushes += other.heap_pushes;
        self.wall_micros = self.wall_micros.max(other.wall_micros);
        self.sq8_pruned += other.sq8_pruned;
        // Plans merge conservatively: the costliest knobs any unit chose,
        // the weakest promise any unit could make.
        self.plan = match (self.plan, other.plan) {
            (Some(a), Some(b)) => Some(PlanChoice {
                budget: a.budget.max(b.budget),
                probes: a.probes.max(b.probes),
                predicted_recall: a.predicted_recall.min(b.predicted_recall),
                effective_target: a.effective_target.min(b.effective_target),
            }),
            (a, b) => a.or(b),
        };
    }
}

/// A search answer: the verified top-`k` hits (ascending by true
/// distance, ties by id) plus the execution counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResponse {
    /// The verified hits. With a `max_dist` threshold the list may be
    /// shorter than `k`; with an [`IdFilter`] every id satisfies it.
    pub hits: Vec<Neighbor>,
    /// Execution counters (see [`SearchStats`] for exactness caveats).
    pub stats: SearchStats,
}

/// Why a [`SearchRequest`] was rejected by [`SearchRequest::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// `k` was zero.
    ZeroK,
    /// `k` exceeds the number of indexed rows.
    KExceedsRows {
        /// The requested `k`.
        k: usize,
        /// Rows the index holds.
        rows: usize,
    },
    /// `max_dist` was NaN or negative.
    BadMaxDist(f64),
    /// `target_recall` was NaN, infinite, or outside `(0, 1]`.
    BadTargetRecall(f64),
    /// `target_recall` was combined with an explicit `budget` or
    /// `probes` — the two modes are mutually exclusive (the planner
    /// exists to *choose* the knobs).
    TargetRecallWithKnobs,
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::ZeroK => write!(f, "k must be at least 1"),
            RequestError::KExceedsRows { k, rows } => {
                write!(f, "k = {k} exceeds the {rows} indexed vectors")
            }
            RequestError::BadMaxDist(d) => {
                write!(f, "max_dist must be a finite non-negative distance, got {d}")
            }
            RequestError::BadTargetRecall(t) => {
                write!(f, "target_recall must be in (0, 1], got {t}")
            }
            RequestError::TargetRecallWithKnobs => {
                write!(f, "target_recall is mutually exclusive with explicit budget/probes")
            }
        }
    }
}

impl std::error::Error for RequestError {}

/// One self-describing search question. See the module docs for the
/// capability model; see [`SearchRequest::top_k`] for construction.
///
/// ```
/// use ann::{IdFilter, SearchRequest};
///
/// let req = SearchRequest::top_k(10)        // neighbors to return
///     .budget(128)                          // candidate budget (λ for LCCS)
///     .probes(17)                           // multi-probe schemes only
///     .filter(IdFilter::deny(vec![3, 9]))   // tombstones / ACLs
///     .max_dist(1.5)                        // range search: hits within 1.5
///     .with_stats();                        // ask for the counters
///
/// assert!(req.validate(1_000).is_ok());     // 1 ≤ k ≤ rows, finite threshold
/// assert!(req.validate(5).is_err());        // k = 10 > 5 rows
///
/// let p = req.params();                     // the low-level knob triple
/// assert_eq!((p.k, p.budget, p.probes), (10, 128, 17));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Neighbors to return (at most; a threshold may leave fewer).
    pub k: usize,
    /// Candidate budget (per-scheme meaning, λ for the LCCS schemes).
    pub budget: usize,
    /// Probe count for multi-probe schemes; `0` = scheme default.
    pub probes: usize,
    /// Restrict the answer to ids the filter accepts.
    pub filter: Option<IdFilter>,
    /// Only return hits with true distance ≤ this threshold.
    pub max_dist: Option<f64>,
    /// Optional response sections (stats on/off).
    pub fields: ResponseFields,
    /// Ask the serving layer to *plan* the knobs: answer with at least
    /// this recall, as cheaply as the index's calibration table allows.
    /// Mutually exclusive with explicit [`budget`](Self::budget) /
    /// [`probes`](Self::probes); requires a calibrated index.
    pub target_recall: Option<f64>,
    /// Whether `budget` or `probes` were set explicitly (the builder
    /// tracks this so [`validate`](Self::validate) can reject the
    /// knobs + target combination; a bare `top_k(k)` carries only the
    /// *default* budget, which does not count as explicit).
    pub knobs_set: bool,
}

impl SearchRequest {
    /// Starts a request for the nearest `k` objects, with the default
    /// candidate budget ([`DEFAULT_BUDGET`]) and no filter/threshold.
    pub fn top_k(k: usize) -> SearchRequest {
        SearchRequest {
            k,
            budget: DEFAULT_BUDGET,
            probes: 0,
            filter: None,
            max_dist: None,
            fields: ResponseFields::default(),
            target_recall: None,
            knobs_set: false,
        }
    }

    /// Sets the candidate budget.
    pub fn budget(mut self, budget: usize) -> SearchRequest {
        self.budget = budget;
        self.knobs_set = true;
        self
    }

    /// Sets the probe count (multi-probe schemes only; `0` = default).
    pub fn probes(mut self, probes: usize) -> SearchRequest {
        self.probes = probes;
        self.knobs_set = true;
        self
    }

    /// Asks the serving layer to plan the knobs for at least this
    /// recall (in `(0, 1]`). Mutually exclusive with explicit
    /// `budget`/`probes`; the server answers with a typed error when
    /// the index has no calibration table.
    pub fn target_recall(mut self, target: f64) -> SearchRequest {
        self.target_recall = Some(target);
        self
    }

    /// Restricts the answer to ids the filter accepts.
    pub fn filter(mut self, filter: IdFilter) -> SearchRequest {
        self.filter = Some(filter);
        self
    }

    /// Caps the answer at true distance `max_dist` (range search).
    pub fn max_dist(mut self, max_dist: f64) -> SearchRequest {
        self.max_dist = Some(max_dist);
        self
    }

    /// Asks for [`SearchStats`] in the response payload.
    pub fn with_stats(mut self) -> SearchRequest {
        self.fields.stats = true;
        self
    }

    /// The legacy `(k, budget, probes)` triple this request carries —
    /// what the per-scheme `query_with` implementations consume.
    pub fn params(&self) -> SearchParams {
        SearchParams { k: self.k, budget: self.budget, probes: self.probes }
    }

    /// The one request-legality rule every layer shares (in-process
    /// harness, live index, wire server): `1 ≤ k ≤ rows`, and a
    /// threshold, if present, is a finite non-negative distance.
    pub fn validate(&self, rows: usize) -> Result<(), RequestError> {
        if self.k == 0 {
            return Err(RequestError::ZeroK);
        }
        if self.k > rows {
            return Err(RequestError::KExceedsRows { k: self.k, rows });
        }
        if let Some(d) = self.max_dist {
            if !d.is_finite() || d < 0.0 {
                return Err(RequestError::BadMaxDist(d));
            }
        }
        self.validate_target()
    }

    /// The `target_recall` half of [`validate`](Self::validate): the
    /// target lies in `(0, 1]` and no knob was set explicitly. Serving
    /// layers call it on its own because they resolve a target into
    /// knobs *before* the row count is checked.
    pub fn validate_target(&self) -> Result<(), RequestError> {
        if let Some(t) = self.target_recall {
            if !t.is_finite() || t <= 0.0 || t > 1.0 {
                return Err(RequestError::BadTargetRecall(t));
            }
            if self.knobs_set {
                return Err(RequestError::TargetRecallWithKnobs);
            }
        }
        Ok(())
    }
}

impl From<SearchParams> for SearchRequest {
    fn from(p: SearchParams) -> SearchRequest {
        SearchRequest::top_k(p.k).budget(p.budget).probes(p.probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_composes_in_any_order() {
        let req = SearchRequest::top_k(10)
            .budget(256)
            .probes(17)
            .max_dist(1.5)
            .filter(IdFilter::allow(vec![3, 1, 2, 1]))
            .with_stats();
        assert_eq!((req.k, req.budget, req.probes), (10, 256, 17));
        assert_eq!(req.max_dist, Some(1.5));
        assert!(req.fields.stats);
        let f = req.filter.as_ref().unwrap();
        assert_eq!(f.ids(), &[1, 2, 3], "constructor sorts and dedups");
        assert_eq!(req.params(), SearchParams { k: 10, budget: 256, probes: 17 });
    }

    #[test]
    fn filters_accept_and_reject() {
        let allow = IdFilter::allow(vec![5, 1, 9]);
        assert!(allow.accepts(5) && allow.accepts(1) && allow.accepts(9));
        assert!(!allow.accepts(2));
        let deny = IdFilter::deny(vec![5, 1, 9]);
        assert!(!deny.accepts(5));
        assert!(deny.accepts(2) && deny.accepts(u32::MAX));
        assert!(IdFilter::allow(Vec::new()).ids().is_empty());
        assert!(!IdFilter::allow(Vec::new()).accepts(0), "empty allowlist matches nothing");
        assert!(IdFilter::deny(Vec::new()).accepts(0), "empty denylist matches everything");
    }

    #[test]
    fn the_bitset_is_kept_for_dense_lists_only() {
        let dense = |ids: Vec<u32>| !IdFilter::deny(ids).bits.is_empty();
        assert!(!dense(Vec::new()), "an empty list has nothing to index");
        assert!(dense(vec![0]) && dense(vec![63]), "one id in the first word");
        assert!(!dense(vec![64]), "one id, two words");
        assert!(dense(vec![64, 65]));
        assert!(!dense(vec![u32::MAX - 1]) && !dense(vec![0, 1, 2, u32::MAX - 1]));
        assert!(dense((0..10_000).step_by(3).collect()), "a third of a range");
        assert!(!dense((0..10_000).step_by(65).collect()), "one id in 65");
        assert_eq!(IdFilter::allow(vec![127, 3]).bits, vec![1 << 3, 1 << 63]);
    }

    proptest::proptest! {
        /// Whichever form a list gets, `accepts` is membership in the
        /// sorted list — probed at every listed id, its neighbours, the
        /// 64-id word boundaries around it, and both ends of the id space.
        #[test]
        fn accepts_is_list_membership_in_either_form(
            mut ids in proptest::collection::vec(0u32..700, 0..=40),
            far in proptest::collection::vec(proptest::any::<u32>(), 0..=2),
            sparse in proptest::any::<bool>(),
            allow in proptest::any::<bool>(),
        ) {
            if sparse {
                ids.extend(far);
                ids.push(u32::MAX - 1);
            }
            let f = if allow { IdFilter::allow(ids.clone()) } else { IdFilter::deny(ids.clone()) };
            proptest::prop_assert!(f.bits.is_empty() || !sparse, "u32::MAX - 1 rules the bitset out");
            let mut probes = vec![0, 1, 63, 64, 65, u32::MAX - 2, u32::MAX - 1, u32::MAX];
            for &id in &ids {
                let word = id / 64 * 64;
                probes.extend([id.wrapping_sub(1), id, id.wrapping_add(1)]);
                probes.extend([word.wrapping_sub(1), word, word.saturating_add(63), word.saturating_add(64)]);
            }
            for id in probes {
                proptest::prop_assert_eq!(f.accepts(id), ids.contains(&id) == allow, "id {}", id);
            }
        }
    }

    #[test]
    fn validation_is_the_shared_rule() {
        assert_eq!(SearchRequest::top_k(0).validate(10), Err(RequestError::ZeroK));
        assert_eq!(
            SearchRequest::top_k(11).validate(10),
            Err(RequestError::KExceedsRows { k: 11, rows: 10 })
        );
        assert!(SearchRequest::top_k(10).validate(10).is_ok());
        assert!(SearchRequest::top_k(1).max_dist(0.0).validate(5).is_ok());
        assert!(matches!(
            SearchRequest::top_k(1).max_dist(f64::NAN).validate(5),
            Err(RequestError::BadMaxDist(_))
        ));
        assert!(matches!(
            SearchRequest::top_k(1).max_dist(-1.0).validate(5),
            Err(RequestError::BadMaxDist(_))
        ));
        assert!(matches!(
            SearchRequest::top_k(1).max_dist(f64::INFINITY).validate(5),
            Err(RequestError::BadMaxDist(_))
        ));
    }

    #[test]
    fn params_round_trip_through_requests() {
        let p = SearchParams { k: 3, budget: 64, probes: 9 };
        let req = SearchRequest::from(p);
        assert_eq!(req.params(), p);
        assert!(req.filter.is_none() && req.max_dist.is_none() && !req.fields.stats);
    }

    #[test]
    fn stats_absorb_sums_counts_and_maxes_wall() {
        let mut a = SearchStats {
            candidates_scanned: 10,
            heap_pushes: 3,
            wall_micros: 40,
            sq8_pruned: 2,
            plan: None,
        };
        let b = SearchStats {
            candidates_scanned: 5,
            heap_pushes: 4,
            wall_micros: 25,
            sq8_pruned: 1,
            plan: None,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            SearchStats {
                candidates_scanned: 15,
                heap_pushes: 7,
                wall_micros: 40,
                sq8_pruned: 3,
                plan: None,
            }
        );
    }

    #[test]
    fn stats_absorb_merges_plans_conservatively() {
        let choice = |budget, probes, predicted_recall, effective_target| PlanChoice {
            budget,
            probes,
            predicted_recall,
            effective_target,
        };
        let mut a = SearchStats { plan: Some(choice(64, 4, 0.95, 0.9)), ..Default::default() };
        let b = SearchStats { plan: Some(choice(128, 2, 0.92, 0.85)), ..Default::default() };
        a.absorb(&b);
        assert_eq!(a.plan, Some(choice(128, 4, 0.92, 0.85)), "max knobs, min promises");
        let mut none = SearchStats::default();
        none.absorb(&a);
        assert_eq!(none.plan, a.plan, "a plan survives merging with a plan-less unit");
    }

    #[test]
    fn target_recall_validation() {
        assert!(SearchRequest::top_k(1).target_recall(0.9).validate(5).is_ok());
        assert!(SearchRequest::top_k(1).target_recall(1.0).validate(5).is_ok());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    SearchRequest::top_k(1).target_recall(bad).validate(5),
                    Err(RequestError::BadTargetRecall(_))
                ),
                "target {bad} must be rejected"
            );
        }
        assert_eq!(
            SearchRequest::top_k(1).budget(64).target_recall(0.9).validate(5),
            Err(RequestError::TargetRecallWithKnobs)
        );
        assert_eq!(
            SearchRequest::top_k(1).probes(4).target_recall(0.9).validate(5),
            Err(RequestError::TargetRecallWithKnobs)
        );
        // The default budget a bare top_k carries is not "explicit".
        assert!(!SearchRequest::top_k(1).target_recall(0.9).knobs_set);
    }
}
