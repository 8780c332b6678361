#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# The flight recorder (ISSUE 4) is feature-gated; build and test the
# root package with it on as well so both configurations stay green.
# No --workspace here: the feature only exists on the root package and
# the crates it forwards to (garnet-core, garnet-simkit, garnet-bench).
echo "==> trace-feature verify: cargo build --release --features trace && cargo test -q --features trace"
cargo clippy --all-targets --features trace -- -D warnings
cargo build --release --features trace
cargo test -q --features trace
cargo test -q -p garnet-bench --features trace

# Rerun the driver-sensitive suites with the facade hosted on the
# threaded graph (ISSUE 5): GarnetConfig::default() honours the
# GARNET_TEST_DRIVER toggle, so the same tests exercise both engines.
echo "==> threaded-driver verify: GARNET_TEST_DRIVER=threaded determinism + tracing"
GARNET_TEST_DRIVER=threaded cargo test -q --test determinism --test tracing
GARNET_TEST_DRIVER=threaded cargo test -q --test determinism --test tracing --features trace

# Rerun the same suites on the per-frame admission path (ISSUE 6):
# GarnetConfig::default() honours GARNET_TEST_BATCH, so the batched and
# per-frame pumps both stay bit-identical in both feature configs.
echo "==> per-frame admission verify: GARNET_TEST_BATCH=perframe determinism + tracing"
GARNET_TEST_BATCH=perframe cargo test -q --test determinism --test tracing
GARNET_TEST_BATCH=perframe cargo test -q --test determinism --test tracing --features trace

# Tier-1 runs the root package only; the member crates' own unit and
# integration suites are gated here.
echo "==> workspace verify: cargo test -q --workspace"
cargo test -q --workspace

# The durable archive (ISSUE 7): the garnet-store suite with the flight
# recorder compiled in, and the replay bit-identity suite re-hosted on
# the threaded graph — a boundary log written under either engine must
# rebuild dispatch state identically whatever engine replays it.
echo "==> archive verify: garnet-store suite (trace) + replay bit-identity under the threaded driver"
cargo test -q -p garnet-store --features garnet-simkit/trace
GARNET_TEST_DRIVER=threaded cargo test -q --test archive_replay
GARNET_TEST_BATCH=perframe cargo test -q --test archive_replay

# The dispatch match cache (ISSUE 8): GarnetConfig::default() honours
# GARNET_TEST_MATCH_CACHE, so the same bit-identity suites rerun with
# every shard's cache disabled in both feature configs — the cache must
# be a performance artefact, never a semantic one.
echo "==> match-cache verify: GARNET_TEST_MATCH_CACHE=off determinism + tracing"
GARNET_TEST_MATCH_CACHE=off cargo test -q --test determinism --test tracing
GARNET_TEST_MATCH_CACHE=off cargo test -q --test determinism --test tracing --features trace

# The telemetry plane (ISSUE 9): the facade suite in both feature
# configs and re-hosted on the threaded graph, then an operator-tooling
# smoke test — the telemetry_node example writes a JSONL sink and
# garnetctl must read it back (dump renders, health exits 0).
echo "==> telemetry verify: facade suite + threaded rerun + garnetctl smoke"
cargo test -q --test telemetry
cargo test -q --test telemetry --features trace
GARNET_TEST_DRIVER=threaded cargo test -q --test telemetry
telemetry_sink="$(mktemp -d)"
trap 'rm -rf "$telemetry_sink"' EXIT
cargo run -q --example telemetry_node -- "$telemetry_sink" > /dev/null
cargo run -q -p garnet-ctl --bin garnetctl -- dump "$telemetry_sink" > /dev/null
cargo run -q -p garnet-ctl --bin garnetctl -- health "$telemetry_sink"

# Per-consumer QoS (ISSUE 10): the qos suite plus the determinism
# bit-identity arms rerun with the scheduler forced off —
# GarnetConfig::default() honours GARNET_TEST_QOS, so Legacy mode must
# reproduce the pre-QoS world in both feature configs. Then the
# starvation path: garnetctl health must exit non-zero on a sink whose
# window shows a class with offers and no deliveries.
echo "==> qos verify: GARNET_TEST_QOS=legacy determinism + qos, starved-class health gate"
cargo test -q --test qos
GARNET_TEST_QOS=legacy cargo test -q --test determinism --test qos
GARNET_TEST_QOS=legacy cargo test -q --test determinism --test qos --features trace
starved_sink="$(mktemp -d)"
trap 'rm -rf "$telemetry_sink" "$starved_sink"' EXIT
printf '%s\n' \
  '{"seq":1,"window_start_us":0,"window_end_us":1000000,"health":"healthy","reasons":[],"match_cache_hit_ppm":0,"counters":{"qos.data.offered":9},"deltas":{"qos.data.offered":9,"qos.data.delivered":0},"histograms":{},"gauges":{}}' \
  > "$starved_sink/telemetry-000000.jsonl"
if cargo run -q -p garnet-ctl --bin garnetctl -- health "$starved_sink"; then
  echo "garnetctl health failed to flag a starved class" >&2
  exit 1
fi

# The benchmark (ISSUE 11) is a package of its own that compiles against
# garnet-core's public items and checks every workload's books. Build it
# offline and run its correctness pass (~1 s), so a change to an item it
# uses, or one that unbalances a ledger, fails here rather than in the
# acceptance run.
echo "==> benchmark verify: perfbench builds offline, perf --quick passes"
cargo build --release --offline --manifest-path perfbench/Cargo.toml
perfbench/target/release/perf --quick

echo "==> CI green"
