# Task runner for the LCCS-LSH reproduction workspace.
# Install `just` (https://github.com/casey/just) or copy the commands.

# Build everything in release mode.
build:
    cargo build --release --workspace

# Tier-1 gate: release build + full test suite.
test:
    cargo test -q --release --workspace

# The query-path crates in the debug profile: the only place the merge's
# and the verifier's `debug_assert`s (recorded LCP / SQ8 verdict equals
# the recomputed one) run, since `test` is --release.
test-debug:
    cargo test -q -p csa -p lccs_lsh -p dataset -p ann-live

# Lint like CI does.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Criterion micro-benches (csa, families, queries, batch).
bench:
    cargo bench -p bench

# One-iteration smoke pass over the benches.
bench-smoke:
    CRITERION_QUICK=1 cargo bench -p bench

# The repo's benchmark (BENCHMARK.json, benchmark/README.md) links the
# workspace crates by path: its contract tests plus a --quick smoke of
# all four workloads (~12 s) fail when a refactor breaks an API it calls.
bench-contract:
    cargo test --manifest-path benchmark/Cargo.toml

# Before/after numbers for one workload of the repo's benchmark: run this
# in the parent checkout and in the change's with the same SEED_BASE and
# compare the printed medians and quartiles (benchmark/aa.sh, one set).
perf-pair workload runs="10" seed_base="1000":
    bash benchmark/aa.sh {{runs}} 1 {{seed_base}} {{workload}}

# Recall, an answer hash and us/search of a live index at fixed write
# counts (0, n/2, n, 2n inserts of the live_mixed_32k write pattern). On
# two commits that answer identically the recall and hash columns match
# line for line; the recall column is the recall-under-churn curve.
live-churn rows="32768" seed="1":
    cargo run --release -p bench --bin live_churn -- --rows {{rows}} --seed {{seed}}

# The paper's figure/table experiments at a reduced scale.
figures out="results":
    cargo run -p bench --release --bin table2 -- --out {{out}}
    cargo run -p bench --release --bin fig4 -- --n 5000 --queries 20 --out {{out}}

# Build demo snapshots and serve them with annd (foreground; stop with
# `ann-cli shutdown --addr {{addr}}` from another shell).
serve dir="/tmp/annd-snapshots" addr="127.0.0.1:7700":
    cargo run --release -p serve --bin ann-cli -- demo --out {{dir}}
    cargo run --release -p serve --bin annd -- --snapshot-dir {{dir}} --addr {{addr}}

# The CI smoke: demo snapshots -> annd in the background -> ping/list/
# query/stats over TCP -> graceful shutdown.
smoke dir="/tmp/annd-smoke" addr="127.0.0.1:38211":
    bash scripts/annd-smoke.sh {{dir}} {{addr}}

# Sharded-cluster demo: two annd shards behind an annd --router — routed
# BUILD with the strided id layout, scatter-gather search, a real kill -9
# of one shard (typed partial results), restart, byte-exact recovery.
cluster-demo dir="/tmp/annd-cluster-smoke" base_port="38400":
    bash scripts/cluster-smoke.sh {{dir}} {{base_port}}

# Live-indexing demo: the LSM-style mutable index end to end — insert/
# delete/seal/compact in process, then INSERT/DELETE/FLUSH over TCP with
# a daemon restart from the flushed snapshot.
live-demo:
    cargo run --release --example live_indexing

# Filtered + range search demo: the unified SearchRequest/SearchResponse
# API end to end — allowlist/denylist predicates and max-dist range
# search, every exact answer verified against the brute-force oracle.
search-demo:
    cargo run --release --example filtered_search

# Recall-planning demo: calibrate over the wire, plan a ladder of
# recall targets (watch the chosen knobs grow), compare the planned
# 0.9-target search against the saturated manual corner, and step the
# overload dial (see docs/planning.md).
plan-demo:
    cargo run --release --example recall_planning

# Observability demo: structured debug logs, client-minted traces on the
# wire, slow-query span trees, and a Prometheus METRICS scrape — against
# a real in-process server (see docs/observability.md).
obs-demo:
    cargo run --release --example tracing_demo

# Spec-grammar smoke: print the scheme table and assert every registry
# entry appears in ann::spec::help() (the same invariant CI pins via the
# eval unit test).
spec-help:
    cargo run --release -p serve --bin ann-cli -- spec-help
    cargo test -q --release -p eval registry::tests::every_registry_entry_appears_in_spec_help

# Rustdoc the workspace warning-clean and verify that every intra-repo
# link in README.md and docs/*.md resolves (the CI docs step).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace
    bash scripts/check-doc-links.sh

# The offline-guard CI job: build with no network, assert no registry deps.
offline-guard:
    cargo build --release --offline --workspace
    @! grep -qE '^source = ' Cargo.lock || (echo 'non-vendored dependency in Cargo.lock' && exit 1)

# Everything the CI workflow runs.
verify: build test clippy docs spec-help offline-guard bench-contract
