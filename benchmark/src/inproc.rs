//! The two in-process workloads: one caller, `AnnIndex::search_with`
//! with reused scratch, over an LCCS-LSH or MP-LCCS index.

use crate::harness::{self, bits, ids, Args, Outcome};
use crate::scenario::{Inputs, Workload};
use ann::AnnIndex;
use lccs_lsh::{MpLccsLsh, MpParams};

/// Builds the workload's index over an SQ8-unprimed copy of the rows.
/// Always an [`MpLccsLsh`]: its `inner()` *is* the single-probe
/// `LccsLsh`, so one build serves both schemes' layer probes.
pub fn build(w: &Workload, inputs: &Inputs) -> (f64, MpLccsLsh) {
    let rows = inputs.unprimed_rows();
    let params = w.lccs_params(inputs.w);
    let mp = MpParams {
        probes: w.probes,
        max_alts: 8,
    };
    harness::secs(|| MpLccsLsh::build(rows, w.metric, &params, mp))
}

/// The index the workload's queries go to.
pub fn searcher<'a>(w: &Workload, index: &'a MpLccsLsh) -> &'a dyn AnnIndex {
    if w.probes > 1 {
        index
    } else {
        index.inner()
    }
}

/// Correctness before timing: on 64 queries `search_with` ≡ `query_with`
/// and batch ≡ sequential, ids and distance bits.
pub fn check(w: &Workload, inputs: &Inputs, index: &dyn AnnIndex, out: &mut Outcome) {
    let req = w.request();
    let head = inputs.queries.truncated(inputs.queries.len().min(64));
    let mut scratch = index.make_scratch();
    let batch = index.search_batch(&head, &req);
    for (qi, q) in head.iter().enumerate() {
        let search = index.search_with(q, &req, &mut scratch).hits;
        let query = index.query_with(q, &req.params(), &mut scratch);
        out.check(bits(&search) == bits(&query), || {
            format!(
                "{}: search_with != query_with on query {qi}",
                harness::describe(w)
            )
        });
        out.check(bits(&search) == bits(&batch[qi].hits), || {
            format!(
                "{}: batch != sequential on query {qi}",
                harness::describe(w)
            )
        });
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(w: &Workload, args: &Args, inputs: &Inputs) -> Outcome {
    let mut out = Outcome::default();

    // Five builds, three before the timed phase and two after it, so
    // that `build_s` samples the box at moments a quarter of a minute
    // apart and one restless spell cannot own every repeat.
    let repeats = args.setup_repeats(5);
    let mut build_secs = Vec::new();
    let mut index = None;
    for _ in 0..repeats.div_ceil(2) {
        drop(index.take()); // one index resident at a time
        let (secs, built) = build(w, inputs);
        build_secs.push(secs);
        index = Some(built);
    }
    let index = index.expect("at least one set-up repeat");
    let searcher = searcher(w, &index);
    let (check_secs, ()) = harness::secs(|| check(w, inputs, searcher, &mut out));
    if out.failed > 0 {
        return out;
    }

    let req = w.request();
    let mut scratch = searcher.make_scratch();
    let mut answers: Vec<Vec<u32>> = Vec::new();
    let nq = inputs.queries.len();
    let timed = harness::timed_passes(args.seconds, |pass| {
        let mut lat = Vec::with_capacity(nq);
        for q in inputs.queries.iter() {
            let t = std::time::Instant::now();
            let resp = searcher.search_with(q, &req, &mut scratch);
            lat.push(harness::us(t));
            if pass == 0 {
                answers.push(ids(&resp.hits));
            }
            std::hint::black_box(resp);
        }
        lat
    });
    out.attempted += timed.samples_us.len() as u64;

    let index_bytes = searcher.index_bytes();
    drop(index);
    while build_secs.len() < repeats {
        build_secs.push(build(w, inputs).0);
    }

    let rows = inputs.data.len() as f64;
    let build_s = crate::stats::fastest(&build_secs);
    let m = &mut out.metrics;
    m.set(
        "setup_s",
        harness::setup_secs(inputs.secs + check_secs, &build_secs),
    );
    m.set("build_s", build_s);
    m.set("index_bytes_per_row", index_bytes as f64 / rows);
    m.set("recall_at_10", harness::recall_of(&answers, inputs));
    m.set("writes_per_s", rows / build_s);
    timed.report(m);
    out
}
