#!/usr/bin/env bash
# Local CI: formatting, lints, and the tier-1 verify from ROADMAP.md.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link resolves to a public item: a link to something
# private, renamed or deleted fails here instead of rendering as text.
echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Library defaults are constants: no code path may be selected by the
# environment (perfbench's own refusal to run under a GARNET_TEST_*
# variable lives in perfbench/ and is not covered here).
echo "==> no environment toggles in crates, src, tests, examples"
if grep -rnE 'GARNET_TEST_|env::var' crates src tests examples; then
  echo "an environment read selects a code path" >&2
  exit 1
fi

# There is one service graph, one dispatch stage and one benchmark
# system: the names of the second engine, its edge plumbing, the helpers
# that compared the two, the dispatch partition, the boxed driver, the
# retired sweep scaffolding, the per-service twin of ControlGraph::route's
# match, the histogram that could only read 0, the incremental twin of
# the CRC-16 loop, the router's per-frame queue hop, the uncalled
# length-delimited stream codec, the archive writer thread with its
# queue and timeout knobs, the named-endpoint bus, the pooled ingest
# stage with its sensor-id partition, per-shard gauge and the pool's
# supervision, class tags and fault hook, the QoS scheduler's event
# tiers and adaptive bound, the second four-field ledger type and the
# replicator's second planning entry, the ingest stage's per-burst
# batch call with the router's arrivals scratch, the match cache's
# own per-stream map (its slots live in the dispatcher's stream rows),
# the keyed map of whole rows (rows are a Vec behind a RowId index),
# the closed-loop harness's old home in garnet-core, the pub/sub
# table's per-key write stamps (a write marks the rows it changes), its
# per-subscriber reverse index and per-key set vecs (a key holds one
# subscriber inline, a departure walks the forward indexes), the service
# registry nothing read back, the constraint language no caller
# could hand a profile (ROADMAP 17, 22), and a second copy of the
# deployment's propagation model — a `Medium` built around its own
# `Propagation`, or a location config that inverts one of its own
# (ROADMAP 19) — must not come back, nor may the settings that decided
# nothing: the Location Service's evidence-ring size (evidence is one
# slot per installed receiver), the filter's restart distance (a
# constant) and the spans switch's `set_enabled` (spans always record)
# (`\bqueue_capacity` leaves `consumer_queue_capacity` legal).
echo "==> no second engine, dispatch partition or second benchmark system in crates, src, tests, examples"
if grep -rnE 'ThreadedRouter|StageEdge|RootFailure|RootTrace|modulo_shards|FrameBatch|sweep_json|expected_min_speedup|ShardPoint|take_restart_events|ShardRestart|trace_drain_to|ShardedStreamRegistry|shard_subscription_counts|HealthThresholds|dyn RouterDriver|GarnetService|wait_hist|Crc16|step_batch|admit_frame\(|FrameDecoder|FrameEncoder|Archiver|ThreadedBus|BusError|FlushOutcome|ArchiveFlushTimeout|Sink::Threaded|stall_sleep|flush_timeout|\bqueue_capacity|IngestPool|ShardJob|ShardedIngest::pooled|SupervisionConfig|with_supervision|EdgeClass|submit_tagged|fail_marker|shard_of_sensor|shard_queue_depth|restart_shard|offer_event|Release::Event|plan_with_estimate|OverloadTotals|qos_capacity|ShardedIngest::on_batch|ingest\.on_batch|self\.arrivals|HashMap<u32, CacheEntry>|HashMap<u32, StreamRow>|core::pipeline|mutation_stamp|sensor_epochs|stream_epochs|note_mutation|filters: BTreeMap<SubscriberId|HashMap<u32, Vec<SubscriberId>>|ServiceRegistry|ServiceDescriptor|ServiceKind|consumer_advertisement|SensorProfile|register_profile|Constraint::parse|mod constraints|DenyReason::Constraint|Medium::ideal\((garnet_radio::)?Propagation|config\.propagation\.estimate_distance|LocationConfig|max_observations|restart_distance|set_enabled' crates src tests examples; then
  echo "a deleted item is back" >&2
  exit 1
fi
# The match cache evicts nothing: a slot lives as long as its stream's
# row, so no cache generation marks slots emptied by a wholesale reset.
if grep -rn 'generation' crates/core/src/dispatching.rs crates/core/src/dispatching/; then
  echo "the match cache has a generation again" >&2
  exit 1
fi
# Reporting state has one type, defined where the state lives: a stage's
# statistics are its service's own counters (no snapshot copy of them),
# and garnetctl parses into garnet-core's TelemetrySnapshot and calls its
# starvation rule (no inspector-side copy of the snapshot types or of the
# QoS class list).
echo "==> no copy of the stage counters or of the telemetry snapshot types"
if grep -rnE 'FilterStats|DispatchStats' crates src tests examples \
    || grep -rnE 'struct (Snapshot|GaugeSummary)\b|HistSummary|QOS_CLASSES' crates/ctl/src; then
  echo "a second copy of a reporting type is back" >&2
  exit 1
fi
# garnet-net is the benchmark's shim and nothing more: the four
# garnet-core names perfbench imports from it, re-exported, and the shard
# pool of its hand-off probe. It depends on garnet-core alone, its src/
# is lib.rs and pool.rs, and outside it and perfbench nothing names it —
# the registry, auth and pub/sub are garnet-core's (ROADMAP 15).
echo "==> garnet-net is the benchmark's shim: garnet-core is its one dependency, lib.rs + pool.rs its src, perfbench its one user"
if [ "$(awk '/^\[/ { deps = ($0 ~ /^\[(dev-)?dependencies\]$/) } deps && /^[a-z]/ { sub(/[ .=].*/, ""); print }' crates/net/Cargo.toml)" != garnet-core ]; then
  echo "garnet-net depends on something other than garnet-core" >&2
  exit 1
fi
if [ "$(ls crates/net/src | tr '\n' ' ')" != "lib.rs pool.rs " ]; then
  echo "crates/net/src holds more than lib.rs and pool.rs" >&2
  exit 1
fi
if grep -rnE 'garnet_net|garnet::net\b' crates src tests examples | grep -v '^crates/net/' \
    || grep -n '^garnet-net' Cargo.toml crates/*/Cargo.toml | grep -v '^crates/net/'; then
  echo "something other than perfbench uses garnet-net" >&2
  exit 1
fi
# garnet-core is the middleware, not the simulator: nothing it builds
# on is the simulated radio, and its own manifest names no `bytes` (a
# frame reaches it as garnet-wire's FrameBytes, so `bytes` stays in its
# tree below garnet-wire).
echo "==> garnet-core links no garnet-radio and depends on bytes only through garnet-wire"
if cargo tree -p garnet-core --offline -e normal --prefix none | grep '^garnet-radio ' \
    || cargo tree -p garnet-core --offline -e normal --prefix none --depth 1 | grep '^bytes '; then
  echo "garnet-core depends on garnet-radio or bytes again" >&2
  exit 1
fi
# Every garnet-* dependency edge is used: a member crate's manifest
# lists only the workspace crates its src/, tests/ and benches/ name.
echo "==> every garnet-* dependency a crate's manifest lists is named in its code"
unused_deps=0
for manifest in crates/*/Cargo.toml; do
  crate_dir="$(dirname "$manifest")"
  for dep in $(awk '/^\[/ { deps = ($0 ~ /^\[(dev-)?dependencies\]$/) } deps && /^garnet-[a-z]+/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
    if ! grep -rqw "${dep//-/_}" $(ls -d "$crate_dir"/src "$crate_dir"/tests "$crate_dir"/benches 2>/dev/null); then
      echo "$manifest lists $dep, which its code never names" >&2
      unused_deps=1
    fi
  done
done
if [ "$unused_deps" -ne 0 ]; then
  exit 1
fi
# A radio frame enters the router by a call (Router::ingest), never as a
# queued event.
if grep -rn 'ServiceEvent::Frame' crates src tests examples; then
  echo "frames are queued as events again" >&2
  exit 1
fi
# The overload tier reads a frame's stream id and sequence number once,
# when the frame is offered (`Staged::new`), and coalesces on the stored
# keys. Outside `#[cfg(test)]` items (the rescanning oracle and the
# tests), qos.rs names the peeks nowhere else but its `use` line.
echo "==> qos.rs peeks a frame header only in Staged::new"
if awk '
  /^#\[cfg\(test\)\]/ { skip = 1; next }
  skip { if (/^}/ || /^[^ ].*;$/) skip = 0; next }
  /^[^ \t\/}]/ { item = $0 }
  /^    (pub(\([a-z]+\))? )?fn / { method = $0; sub(/\(.*/, "", method); sub(/.*fn /, "", method) }
  /^use / || /^ *\/\// { next }
  /peek_(stream|seq)/ && !(item ~ /^impl Staged / && method == "new") {
    print FILENAME ":" FNR ": " $0; found = 1
  }
  END { exit !found }
' crates/core/src/qos.rs; then
  echo "the overload tier reads a frame header outside Staged::new" >&2
  exit 1
fi
# The facade checks tokens in one place: `Garnet::authorize` verifies a
# token in full or, for a consumer's own registration token, checks its
# expiry and capability only. Outside `#[cfg(test)]` items, middleware.rs
# calls `verify(` from that one function, so a new entry point can
# neither skip the check nor grow a second copy of it.
echo "==> middleware.rs verifies tokens in exactly one function, authorize"
callers=$(awk '
  /^#\[cfg\(test\)\]/ { skip = 1; next }
  skip { if (/^}/ || /^[^ ].*;$/) skip = 0; next }
  /^ *\/\// { next }
  /^(    )?(pub(\([a-z]+\))? )?fn / { method = $0; sub(/\(.*/, "", method); sub(/.*fn /, "", method) }
  /verify\(/ { print method }
' crates/core/src/middleware.rs | sort -u)
if [ "$callers" != "authorize" ]; then
  echo "middleware.rs calls verify( from [${callers//$'\n'/, }], not from authorize alone" >&2
  exit 1
fi
# Ids we allocate (SubscriberId) hash through the unkeyed IdMap, whose
# definition is the one place the unkeyed hasher is named; everything a
# radio frame carries keeps std's keyed RandomState.
if grep -rlE 'BuildHasherDefault|IdHasher' crates src tests examples \
    | grep -vx 'crates/core/src/dispatching/pubsub.rs'; then
  echo "an unkeyed hasher is named outside IdMap's definition" >&2
  exit 1
fi
if grep -rn 'HashMap<SubscriberId' crates src tests examples \
    | grep -v '^crates/core/src/dispatching/pubsub.rs:[0-9]*:pub(crate) type IdMap<V> = '; then
  echo "a SubscriberId-keyed map bypasses IdMap" >&2
  exit 1
fi

# Every checked byte rides one safe-Rust kernel (crates/wire/src/crc.rs):
# no intrinsics, no CPU detection, and the only `unsafe` in any crate's
# src/ stays the one test-only pointer comparison in wire's message.rs
# (the rule "one CRC kernel, `unsafe` only in wire's test").
echo "==> no std::arch / target_feature in crates, src; unsafe only in wire's zero-copy test"
if grep -rnE 'std::arch|core::arch|target_feature|is_x86_feature_detected' crates src; then
  echo "a CPU-specific code path is back" >&2
  exit 1
fi
if [ "$(grep -rn 'unsafe' crates/*/src | cut -d: -f1)" != crates/wire/src/message.rs ]; then
  grep -rn 'unsafe' crates/*/src >&2 || true
  echo "expected exactly one unsafe line under crates/*/src, the test in wire's message.rs" >&2
  exit 1
fi

# `dispatch_shards`, `ingest_shards`, `DriverKind::Threaded`, `data_floor`
# and `data_ceiling` are inert (kept for the benchmark's config
# literals): nothing of ours may set them.
echo "==> dispatch_shards, ingest_shards, DriverKind::Threaded, data_floor, data_ceiling are set nowhere in tests, examples"
if grep -rnE 'dispatch_shards|ingest_shards|DriverKind::Threaded|data_floor|data_ceiling' tests examples; then
  echo "a test or example names an inert knob" >&2
  exit 1
fi
# The middleware runs on its caller's thread: garnet-core starts no pool
# and no thread.
if grep -rnE 'ShardPool|thread::spawn|thread::Builder' crates/core/src; then
  echo "garnet-core names ShardPool or starts a thread again" >&2
  exit 1
fi

# The driver shim exists for perfbench alone: the facade owns its Router.
echo "==> the driver shim is named only in driver.rs and its re-export"
if grep -rnE 'RouterDriver|FifoDriver|ThreadedDriver' crates src tests examples \
    | grep -vE '^crates/core/src/(driver|lib)\.rs:'; then
  echo "something other than perfbench goes through the driver shim" >&2
  exit 1
fi

# The prose documents name code that exists: every backticked
# `Type::item` in DESIGN.md, README.md, EXPERIMENTS.md and the crate-level
# `//!` docs of every lib.rs names a type and an item (fn, type, constant,
# module, variant or struct field) defined in the code, and every
# backticked path exists.
echo "==> every backticked Type::item and path in DESIGN.md, README.md, EXPERIMENTS.md and crate docs resolves"
prose() {
  cat DESIGN.md README.md EXPERIMENTS.md
  grep -h '^//!' crates/*/src/lib.rs src/lib.rs
}
stale=0
defined() {
  grep -rqE "\\b(fn|struct|enum|trait|type|const|static|mod) $1\\b|^ *(pub(\\([a-z]+\\))? )?$1: |^ *$1(,| *[({]|\$)" \
    crates src tests examples perfbench/src --include='*.rs'
}
for ref in $(prose | grep -oE '`[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' | tr -d '`' | sort -u); do
  for name in "${ref%%::*}" "${ref#*::}"; do
    if ! defined "$name"; then
      echo "\`$ref\`: nothing named $name is defined" >&2
      stale=1
    fi
  done
done
for path in $(prose | grep -oE '`[A-Za-z0-9_.{},-]*/[A-Za-z0-9_./{},-]*`' | tr -d '`' | sort -u); do
  for expanded in $(eval "echo $path"); do
    if [ ! -e "$expanded" ]; then
      echo "\`$path\`: $expanded does not exist" >&2
      stale=1
    fi
  done
done
# A backticked crate, or crate::module, names a crate under crates/ and
# a module file in it.
for ref in $(prose | grep -oE '`garnet[_-][a-z]+(::[a-z_]+)?' | tr -d '`' | sort -u); do
  crate="${ref#garnet?}" module=""
  case "$crate" in *::*) module="${crate#*::}" crate="${crate%%::*}" ;; esac
  if [ ! -d "crates/$crate" ] || { [ -n "$module" ] && [ ! -e "crates/$crate/src/$module.rs" ] \
      && [ ! -d "crates/$crate/src/$module" ]; }; then
    echo "\`$ref\`: no such crate or module under crates/" >&2
    stale=1
  fi
done
if [ "$stale" -ne 0 ]; then
  exit 1
fi

# A test the prose cites by name exists: every `tests/<file>.rs::<name>`
# and `<module>::tests::<name>` / `<module>::proptests::<name>` in
# DESIGN.md, README.md and EXPERIMENTS.md names a `fn <name>` somewhere
# in the tree, so a deleted or renamed test cannot stay cited as the
# evidence for a claim.
echo "==> every test DESIGN.md, README.md and EXPERIMENTS.md cite by name exists"
dangling_tests=0
for ref in $(grep -ohE 'tests/[A-Za-z0-9_]+\.rs::[A-Za-z_][A-Za-z0-9_]*|[a-z_]+::(tests|proptests)::[A-Za-z_][A-Za-z0-9_]*' \
    DESIGN.md README.md EXPERIMENTS.md | sort -u); do
  if ! grep -rqE "\\bfn ${ref##*::}\\b" crates src tests examples --include='*.rs'; then
    echo "\`$ref\`: no fn ${ref##*::} is defined" >&2
    dangling_tests=1
  fi
done
if [ "$dangling_tests" -ne 0 ]; then
  exit 1
fi

# A "ROADMAP <n>" this script cites names an item of ROADMAP.md, open
# (a "- **<n>." heading) or retired (named as "(<n>)" where the retired
# items are listed), so a citation cannot outlive the item it points at.
echo "==> every ROADMAP item cited in ci.sh exists in ROADMAP.md, open or retired"
dangling=0
for id in $(grep -oE 'ROADMAP [0-9]+[a-z]?(, [0-9]+[a-z]?)*' ci.sh | grep -oE '[0-9]+[a-z]?' | sort -u); do
  if ! grep -qE "^- \*\*$id\. |\($id\)" ROADMAP.md; then
    echo "ci.sh cites ROADMAP $id, which names no item in ROADMAP.md" >&2
    dangling=1
  fi
done
if [ "$dangling" -ne 0 ]; then
  exit 1
fi

# perfbench (BENCHMARK.json) is the only thing that times our code; a
# committed BENCH_*.json is a second source of numbers.
echo "==> no BENCH_*.json tracked"
if git ls-files | grep -E '(^|/)BENCH_[A-Za-z_]+\.json$'; then
  echo "a BENCH_*.json file is tracked" >&2
  exit 1
fi

# There is one build configuration: the flight recorder is in every
# build and switched by `trace_capacity` alone. (Not grepping this file,
# which would match its own pattern.)
echo "==> no trace cargo feature, no per-stage occupancy histograms"
if grep -rnE 'feature *= *"trace"|features trace|features = \["trace"\]|note_occupancy' Cargo.toml crates src tests examples; then
  echo "the trace feature fork or a deleted recorder item is back" >&2
  exit 1
fi

# Everything Cargo builds does something: the two vendored stand-ins are
# the ones code needs (`bytes`, `proptest`); channels and locks are
# std's, nothing derives a marker trait through a proc-macro, and
# perfbench is the only thing that times our code.
echo "==> vendor/ is bytes + proptest; no stand-in dependency, proc-macro or bench target"
if [ "$(echo vendor/*)" != "vendor/bytes vendor/proptest" ]; then
  echo "vendor/ holds something other than bytes and proptest" >&2
  exit 1
fi
if grep -nE '^(crossbeam|parking_lot|serde|rand|criterion)\b' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
  echo "a manifest names a deleted stand-in crate" >&2
  exit 1
fi
if grep -nE 'proc-macro *= *true|^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
  echo "a proc-macro crate or a [[bench]] target is back" >&2
  exit 1
fi
if find . \( -path ./perfbench -o -path ./target -o -path ./.bench_build \) -prune -o -type d -name benches -print | grep .; then
  echo "a benches/ directory exists outside perfbench/" >&2
  exit 1
fi

echo "==> tier-1 verify: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# garnet-net's shard pool is the last code whose result can depend on
# thread timing — including when the caller-run shard 0 finishes
# relative to the workers: run its tests three times in a row.
echo "==> scatter/gather verify: pool x3"
for i in 1 2 3; do
  cargo test -q -p garnet-net --lib pool
done

# Tier-1 runs the root package only; the member crates' own unit and
# integration suites are gated here.
echo "==> workspace verify: cargo test -q --workspace --exclude garnet"
cargo test -q --workspace --exclude garnet

# The paper's tables (E1-E16) are seeded and hold no wall-clock figure:
# a fresh run must reproduce the committed output byte for byte, so a
# change that moves a paper number has to commit the new table (and say
# why in CHANGES.md).
echo "==> paper tables verify: experiments output matches experiments_output.txt"
cargo run -q --release -p garnet-bench --bin experiments | diff experiments_output.txt -

# The telemetry plane (ISSUE 9): an operator-tooling smoke test — the
# telemetry_node example writes a JSONL sink and garnetctl must read it
# back (dump renders, health exits 0).
echo "==> telemetry verify: garnetctl smoke"
telemetry_sink="$(mktemp -d)"
trap 'rm -rf "$telemetry_sink"' EXIT
cargo run -q --example telemetry_node -- "$telemetry_sink" > /dev/null
cargo run -q -p garnet-ctl --bin garnetctl -- dump "$telemetry_sink" > /dev/null
cargo run -q -p garnet-ctl --bin garnetctl -- health "$telemetry_sink"

# Per-consumer QoS (ISSUE 10), the starvation path: garnetctl health
# must exit non-zero on a sink whose window shows a class with offers
# and no deliveries.
echo "==> qos verify: starved-class health gate"
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
# perfbench/Cargo.lock is tracked and may only change in a `benchmark`
# PR, but it still names crates this workspace no longer has, and an
# offline build prunes those entries in the working tree: put the
# committed file back so that running CI leaves the tree clean.
git checkout -- perfbench/Cargo.lock
# Admission tells filtering which sequence numbers coalescing dropped,
# so on overload-qos no stream waits out a reorder timeout for a frame
# the node threw away itself: the traced run must check out correct and
# accept no gap.
echo "==> forgone verify: overload-qos is correct and accepts no gap"
qos_line="$(perfbench/target/release/perf --quick --workload overload-qos --trace 1 | tail -1)"
if ! grep -q '^{"correct": true,' <<< "$qos_line" \
    || ! grep -qF '"core.filtering.gap_count": {"value": 0,' <<< "$qos_line"; then
  echo "overload-qos is not correct, or filtering accepted a gap there" >&2
  exit 1
fi

# The frame path's shape is committed (ROADMAP 23): for every function a
# frame passes through from Garnet::on_frames to the consumer callback,
# tests/golden/frame_path.txt says whether the release `perf` binary
# built above keeps it as a symbol of its own (and how many monomorphs)
# or the compiler inlined it everywhere. Dispositions repeat exactly for
# the pinned toolchain, so a move fails here until the file is updated in
# the same commit. Byte sizes are printed, not gated.
echo "==> frame path shape: tests/golden/frame_path.txt matches the release perf binary"
frame_path_now="target/frame_path.txt"
mkdir -p target
nm -C --size-sort perfbench/target/release/perf | awk -v list=tests/golden/frame_path.txt \
    -v out="$frame_path_now" '
  BEGIN {
    while ((getline line < list) > 0) {
      if (line ~ /^#/) { header[++h] = line; continue }
      split(line, field, "\t")
      name[++n] = field[1]
      count[field[1]] = 0
    }
  }
  $2 ~ /^[tTwW]$/ {
    sym = $0
    sub(/^[0-9a-f]+ [A-Za-z] /, "", sym)
    if (sym in count) {
      count[sym]++
      size = $1
      sub(/^0+/, "", size)
      sizes[sym] = sizes[sym] " 0x" size
    }
  }
  END {
    for (i = 1; i <= h; i++) print header[i] > out
    for (i = 1; i <= n; i++) {
      c = count[name[i]]
      print name[i] "\t" (c == 0 ? "inlined" : c == 1 ? "own symbol" : "own symbol x" c) > out
      printf "  %-56s%s\n", name[i], (c == 0 ? " -" : sizes[name[i]])
    }
  }'
if ! diff -u tests/golden/frame_path.txt "$frame_path_now"; then
  echo "the frame path's shape moved: if that is intended, copy $frame_path_now over" \
    "tests/golden/frame_path.txt in the same commit and say why in CHANGES.md" >&2
  exit 1
fi

echo "==> CI green"
