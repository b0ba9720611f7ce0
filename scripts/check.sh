#!/usr/bin/env bash
# Full local gate: lints, formatting, and the tier-1 build + test pass
# (ROADMAP.md). CI and pre-commit both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (deny deprecated) =="
# No in-repo code may depend on deprecated API: the one-release
# deprecation window for the old merge wrappers is over and they are
# gone, so this lane now simply keeps the workspace free of any future
# deprecated-call regressions.
cargo clippy --workspace --all-targets -- -D deprecated

echo "== rustfmt (check only) =="
cargo fmt --check

echo "== tier-1: release build + tests =="
# `cargo test -q` runs every test target of the workspace (crates/*,
# tests, examples) once; the lanes below only add what it cannot: the
# release binaries driven end to end and their golden outputs. Among
# the suites it covers:
#  - query_proptests: indexed random access and streaming windows agree
#    with full decode, including across repeat-rule boundaries, and
#    whatever decode_container accepts is safe to read;
#  - read_bounds + the walker proptest in crates/sequitur: the one
#    grammar walker agrees with the recursive oracle from every offset
#    and over every window, and a 2^40-call container and a 200 000-rule
#    chain are read on a 256 KiB stack with heap bounded by the
#    container's length;
#  - governor: every rank's working set stays within its budget on a
#    compression-hostile workload, nothing changes when the budget is
#    never approached, and degraded traces still decode, verify, replay
#    and answer queries (with fidelity flags);
#  - decode_errors: bit flips, truncations and inconsistent rank-length
#    tables surface as errors, never panics, and salvage only ever
#    returns ranks that verify losslessly;
#  - merge_equivalence / merge_pinning: batch, batch+budget, streamed,
#    streamed+budget and WAL-recovered write byte-identical containers
#    (per budget class) and decode losslessly, held to the bytes of the
#    commit before the merge core was unified;
#  - ingest_recovery: a killed collector's directory is rebuilt with no
#    job silently dropped;
#  - net_auth / net_proptests: truncated or oversized hellos, version
#    skew, replayed challenge responses and wrong-key clients end in
#    typed rejections with no partial WAL state, and arbitrary bytes
#    into the PNT1 decoders Err, never panic or allocate a
#    declared-but-unsent length;
#  - rr_e2e / rr_proptests: the record/replay engine's promises in
#    process; the rr lane below proves them on the binaries;
#  - envelopes: `pilgrimd local`'s envelope carries every declared
#    ingest counter, and a world or flag a binary cannot run is a usage
#    error (exit 2), never a panic or the default experiment;
#  - sizes: every row of the size ledger a debug build affords is
#    re-measured and equals `results/SIZES.tsv` field by field (the last
#    lane below diffs the whole file in release);
#  - chaos: the world, governor and ingest sections of
#    `results/CHAOS.md` are re-run (ingest twice at once, so concurrent
#    runs must not share state) and equal the committed text (the chaos
#    lane below diffs every layer in release).
cargo build --release
cargo test -q

echo "== one trace format: every committed trace is a PGC1 container =="
# The flat serialization is gone; a golden in any other form could no
# longer be read, so it must not be committed.
for f in crates/bench/golden/*.pilgrim; do
  [ "$(head -c 4 "$f")" = "PGC1" ] ||
    { echo "FAIL: $f does not start with the PGC1 container magic." >&2; exit 1; }
done

echo "== query engine: golden slice/matrix output =="
# Golden outputs: trace_tool's slice/matrix JSON on the committed
# miniature trace is byte-stable (stdout only; timings go to stderr).
./target/release/trace_tool slice crates/bench/golden/mini.pilgrim 1 5 8 2>/dev/null |
  diff -u crates/bench/golden/mini.slice.json - ||
  { echo "FAIL: trace_tool slice output diverged from golden file." >&2; exit 1; }
./target/release/trace_tool matrix crates/bench/golden/mini.pilgrim 2>/dev/null |
  diff -u crates/bench/golden/mini.matrix.json - ||
  { echo "FAIL: trace_tool matrix output diverged from golden file." >&2; exit 1; }
# A start index that would wrap a u64 is past the end, not rank 0's tail;
# `decode <file> <rank> <limit>` streams exactly `limit` calls.
./target/release/trace_tool slice crates/bench/golden/mini.pilgrim 1 18446744073709551615 2 \
  2>/dev/null | grep -q '"calls":\[\]' ||
  { echo "FAIL: trace_tool slice wrapped an out-of-range start index." >&2; exit 1; }
[ "$(./target/release/trace_tool decode crates/bench/golden/mini.pilgrim 1 5 | wc -l)" -eq 5 ] ||
  { echo "FAIL: trace_tool decode did not print exactly its limit." >&2; exit 1; }

echo "== pipeline selfcheck: the benchmark's own jobs, bytes and exact counts =="
# Every job of every benchmark workload must be byte-identical to the
# batch-merged container over the wire, through the WAL and after
# recovery, with zero retransmits and exact counts that repeat — and the
# counts (calls, segments, segment bytes, signatures, rules, container
# bytes, WAL records) must be the committed ones: a PR that adds one byte
# to a segment, one WAL record to a job or one rule to a grammar on the
# collector path fails here by name. Smoke sized: bytes, not speed.
for w in stencil_steady amr_churn hostile_stream hostile_bulk; do
  out=$(cargo run --release --offline --quiet --manifest-path benchmarks/pipeline/Cargo.toml -- \
    --workload "$w" --seed 1 --smoke --selfcheck) ||
    { echo "FAIL: pipeline --selfcheck failed on workload $w." >&2; exit 1; }
  echo "$out" | grep ' same$' | sed "s/^/$w /"
done > target/pipeline_counts.txt
diff -u results/PIPELINE_COUNTS.txt target/pipeline_counts.txt ||
  { echo "FAIL: the collector path's exact counts changed. If intended, regenerate with" >&2
    echo "  cp target/pipeline_counts.txt results/PIPELINE_COUNTS.txt" >&2
    echo "and say why in CHANGES.md." >&2; exit 1; }

echo "== pilgrimd: concurrent streaming ingest smoke =="
# Eight concurrent 4-rank jobs stream into one ingest session (odd jobs
# under a governor budget, so sealed segments flow mid-run); every
# spilled container must validate. Nonzero exit on any loss, and the
# run must end with a parseable schema-1 envelope declaring exit 0.
rm -rf target/pilgrimd-smoke
smoke_out=$(cargo run --release -q -p pilgrim-bench --bin pilgrimd -- \
  --jobs 8 --ranks 4 --iters 20 --budget 48000 --out target/pilgrimd-smoke)
echo "$smoke_out" | tail -1 | grep -q '"schema":1,"command":"local".*"exit":0' ||
  { echo "FAIL: pilgrimd local envelope missing or not exit 0." >&2; exit 1; }
for f in target/pilgrimd-smoke/*.pilgrim; do
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: spilled container $f does not validate." >&2; exit 1; }
done

echo "== chaos: the seeded-sweep ledger, every layer, exact =="
# Rank kills vs the degraded merge, memory budgets on the adversarial
# workload, collector faults + crash recovery, wire faults, and hostile
# peers against a live collector: fixed seeds and sizes, so the whole
# output must equal the committed ledger byte for byte. Nonzero exit is a
# failed gate: a panic anywhere, a hung layer, a silently dropped job or
# unbounded connection buffering.
./target/release/chaos > target/chaos.md 2> target/chaos.err ||
  { cat target/chaos.err >&2; echo "FAIL: a chaos gate failed (stderr above)." >&2; exit 1; }
diff -u results/CHAOS.md target/chaos.md ||
  { echo "FAIL: a seeded sweep's outcome changed. If intended, regenerate with" >&2
    echo "  ./target/release/chaos > results/CHAOS.md" >&2
    echo "and say why in CHANGES.md." >&2; exit 1; }

echo "== crash recovery: kill the collector mid-run, then recover =="
# pilgrimd dies by abort() the moment its 3rd job finishes, leaving the
# other 5 of 8 jobs mid-stream with only the WAL to remember them.
# Recovery must account for all 8 jobs — none silently dropped — and
# rebuild at least the 3 finished ones plus every WAL-intact job.
rm -rf target/pilgrimd-crash
cargo run --release -q -p pilgrim-bench --bin pilgrimd -- \
  --jobs 8 --ranks 4 --iters 20 --wal --crash-at-job 3 \
  --out target/pilgrimd-crash || true
recover_json=$(./target/release/trace_tool recover target/pilgrimd-crash) ||
  [ $? -eq 3 ]  # exit 3 (partial/lost present) is an acceptable verdict
echo "$recover_json"
total=$(echo "$recover_json" | grep -o '"total":[0-9]*' | cut -d: -f2)
recovered=$(echo "$recover_json" | grep -o '"recovered":[0-9]*' | cut -d: -f2)
[ "${total:-0}" -eq 8 ] ||
  { echo "FAIL: recovery saw only ${total:-0}/8 crashed jobs." >&2; exit 1; }
[ "${recovered:-0}" -ge 3 ] ||
  { echo "FAIL: only ${recovered:-0} jobs recovered (need >= 3)." >&2; exit 1; }
# Every recovered container the report wrote must validate.
for f in target/pilgrimd-crash/recovered/*.pilgrim; do
  [ -e "$f" ] || continue
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: recovered container $f does not validate." >&2; exit 1; }
done

echo "== net: loopback serve/send smoke over PNT1 =="
# A real pilgrimd collector process on a loopback port, a real send
# process streaming 4 jobs into it. Both must end with schema-1
# envelopes declaring exit 0, and every delivered container must
# validate. The net_ingest tier-1 suite covers kill/restart/resume and
# degrade-to-local-spill in-process; this lane proves the binaries.
rm -rf target/pilgrimd-net
mkdir -p target/pilgrimd-net
cargo build --release -q -p pilgrim-bench
./target/release/pilgrimd serve --listen 127.0.0.1:0 --out target/pilgrimd-net \
  --expect-jobs 4 > target/pilgrimd-net/serve.out &
serve_pid=$!
listen_addr=""
for _ in $(seq 1 100); do
  listen_addr=$(grep -o '"listening":"[^"]*"' target/pilgrimd-net/serve.out 2>/dev/null |
    head -1 | cut -d'"' -f4) && [ -n "$listen_addr" ] && break
  sleep 0.1
done
[ -n "$listen_addr" ] || { echo "FAIL: pilgrimd serve never reported its port." >&2; exit 1; }
send_json=$(./target/release/pilgrimd send --addr "$listen_addr" --jobs 4 --ranks 2 --iters 10 \
  --spill target/pilgrimd-net/client | tail -1) || true
echo "$send_json" | grep -q '"schema":1,"command":"send".*"exit":0' ||
  { echo "FAIL: pilgrimd send envelope missing or not exit 0." >&2; exit 1; }
wait "$serve_pid" ||
  { echo "FAIL: pilgrimd serve exited nonzero after a clean send." >&2; exit 1; }
tail -1 target/pilgrimd-net/serve.out | grep -q '"schema":1,"command":"serve".*"exit":0' ||
  { echo "FAIL: pilgrimd serve envelope missing or not exit 0." >&2; exit 1; }
# Envelopes are rendered from the counter-set declarations, so a counter
# can no longer be declared and silently left out: two keys the
# hand-written lists used to omit must be there.
echo "$send_json" | grep -q '"frames_sent":' ||
  { echo "FAIL: pilgrimd send envelope lacks frames_sent." >&2; exit 1; }
tail -1 target/pilgrimd-net/serve.out | grep -q '"peak_conn_buffer":' ||
  { echo "FAIL: pilgrimd serve envelope lacks peak_conn_buffer." >&2; exit 1; }
for f in target/pilgrimd-net/*.pilgrim; do
  [ -e "$f" ] || { echo "FAIL: no delivered containers in target/pilgrimd-net." >&2; exit 1; }
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: delivered container $f does not validate." >&2; exit 1; }
done

echo "== net auth e2e: authed serve/send binaries + graceful shutdown =="
# An authenticated collector: the right key delivers with exit 0, the
# wrong key is rejected with a typed error surfaced as an exit-3
# envelope (jobs land in the local spill), and SIGTERM drains the
# collector into a final envelope marked graceful.
rm -rf target/pilgrimd-auth
mkdir -p target/pilgrimd-auth
echo "check-sh-wire-key" > target/pilgrimd-auth/key
echo "not-the-right-key" > target/pilgrimd-auth/wrong-key
./target/release/pilgrimd serve --listen 127.0.0.1:0 --out target/pilgrimd-auth \
  --auth-key-file target/pilgrimd-auth/key --io-timeout-ms 500 \
  > target/pilgrimd-auth/serve.out &
auth_serve_pid=$!
auth_addr=""
for _ in $(seq 1 100); do
  auth_addr=$(grep -o '"listening":"[^"]*"' target/pilgrimd-auth/serve.out 2>/dev/null |
    head -1 | cut -d'"' -f4) && [ -n "$auth_addr" ] && break
  sleep 0.1
done
[ -n "$auth_addr" ] || { echo "FAIL: authed pilgrimd serve never reported its port." >&2; exit 1; }
./target/release/pilgrimd send --addr "$auth_addr" --jobs 2 --ranks 2 --iters 10 \
  --auth-key-file target/pilgrimd-auth/key --spill target/pilgrimd-auth/client | tail -1 |
  grep -q '"schema":1,"command":"send".*"exit":0' ||
  { echo "FAIL: authed pilgrimd send envelope missing or not exit 0." >&2; exit 1; }
wrong_out=$(./target/release/pilgrimd send --addr "$auth_addr" --jobs 1 --ranks 2 --iters 5 \
  --client-id 2 --retry-attempts 3 --auth-key-file target/pilgrimd-auth/wrong-key \
  --spill target/pilgrimd-auth/wrong-client | tail -1) && wrong_code=0 || wrong_code=$?
[ "$wrong_code" -eq 3 ] ||
  { echo "FAIL: wrong-key send exited $wrong_code, want 3 (degraded)." >&2; exit 1; }
echo "$wrong_out" | grep -q '"auth_failed":true' ||
  { echo "FAIL: wrong-key send envelope does not surface auth_failed." >&2; exit 1; }
kill -TERM "$auth_serve_pid"
wait "$auth_serve_pid" ||
  { echo "FAIL: authed pilgrimd serve exited nonzero after SIGTERM drain." >&2; exit 1; }
tail -1 target/pilgrimd-auth/serve.out |
  grep -q '"schema":1,"command":"serve".*"graceful":true.*"exit":0' ||
  { echo "FAIL: SIGTERM did not produce a graceful exit-0 serve envelope." >&2; exit 1; }

echo "== record/replay: bit-determinism, divergence, minimization =="
# The rr engine's promises, proven end to end on real binaries:
#  1. a fresh wildcard-heavy recording strict-replays clean (the PGND
#     side-channel pins every nondeterministic choice);
#  2. the committed fixture still strict-replays clean (format + replay
#     direction are stable across sessions);
#  3. corrupting one recorded event makes strict replay fail (exit 1)
#     naming a divergence site;
#  4. the grammar-aware minimizer shrinks the corrupted fixture to the
#     committed reproducer, byte-for-byte (mutate and minimize are pure
#     functions of the trace, so the golden diff is exact).
rm -rf target/rr-lane && mkdir -p target/rr-lane
./target/release/trace_tool record master_worker 4 20 target/rr-lane/fresh.pilgrim --rr \
  > /dev/null
./target/release/trace_tool replay target/rr-lane/fresh.pilgrim --strict > /dev/null ||
  { echo "FAIL: fresh rr recording did not strict-replay clean." >&2; exit 1; }
./target/release/trace_tool replay crates/bench/golden/rr_fixture.pilgrim --strict \
  > /dev/null ||
  { echo "FAIL: committed rr fixture did not strict-replay clean." >&2; exit 1; }
./target/release/trace_tool mutate crates/bench/golden/rr_fixture.pilgrim \
  target/rr-lane/mutated.pilgrim > /dev/null
if ./target/release/trace_tool replay target/rr-lane/mutated.pilgrim --strict > /dev/null
then echo "FAIL: strict replay accepted a corrupted recording." >&2; exit 1; fi
./target/release/trace_tool minimize target/rr-lane/mutated.pilgrim \
  target/rr-lane/minimized.pilgrim target/rr-lane/reproducer.json > /dev/null
diff -u crates/bench/golden/rr_reproducer.json target/rr-lane/reproducer.json ||
  { echo "FAIL: minimized reproducer diverged from golden file." >&2; exit 1; }

echo "== panic hygiene: no new unwrap/expect in non-test core or sequitur code =="
# The merge and fabric must degrade, not panic, on peer failure, and
# every module under crates/core/src and crates/sequitur/src meets
# untrusted input somewhere (adversarial workloads, corrupt bytes, torn
# WALs, hostile peers, grammars off the wire).
# Counts cover non-test code only; lower is fine, higher fails the gate.
check_panics() {
  local file=$1 budget=$2
  local n
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$file" |
    grep -c '\.unwrap()\|\.expect(' || true)
  if [ "$n" -gt "$budget" ]; then
    echo "FAIL: $file has $n unwrap()/expect() calls (budget $budget)." >&2
    echo "Handle the error or route it through the degraded path." >&2
    exit 1
  fi
  echo "$file: $n/$budget unwrap()/expect() calls"
}
check_panics crates/mpi-sim/src/fabric.rs 5
# Every core and sequitur module, present or future, gets budget 0 unless
# it is on this frozen allowlist — a new file can never be forgotten. The
# grammar readers (`flat.rs`, `walk.rs`) meet bytes from the network and
# are at 0; `sequitur/src/tests.rs` is the crate's unit-test module.
panic_budget() {
  case $1 in
    crates/core/src/avl.rs) echo 6 ;;
    crates/core/src/lib.rs) echo 1 ;;
    crates/core/src/replay.rs) echo 8 ;;
    crates/sequitur/src/grammar.rs) echo 1 ;;
    *) echo 0 ;;
  esac
}
for file in $(find crates/core/src crates/sequitur/src -name '*.rs' \
  ! -path crates/sequitur/src/tests.rs | sort); do
  check_panics "$file" "$(panic_budget "$file")"
done

echo "== call shapes: what a function's arguments mean is written once =="
# Which argument of a Wait*/Test* record is the completed request, the
# index, the flag or the status is declared in one table
# (crates/mpi-sim/src/funcs.rs, DESIGN.md §15) and read through one walk.
# A match on those functions anywhere else in the core is a second copy
# of the table; replay.rs re-issues calls, which is per-function by nature.
if grep -rnE 'FuncId::(Wait|Test)(all|any|some)?\b' crates/core/src --include='*.rs' |
  grep -v '^crates/core/src/replay\.rs:'; then
  echo "FAIL: a completion call is matched by name outside replay.rs." >&2
  echo "An argument position belongs in its row of crates/mpi-sim/src/funcs.rs;" >&2
  echo "read it through FuncId::shape() and the Shape walk." >&2
  exit 1
fi
if grep -rnwE 'completed_requests|status_ranks|creates_request|creates_persistent|status_bases|track_requests' \
  crates tests examples --include='*.rs'; then
  echo "FAIL: a per-consumer copy of the call-shape walk is back." >&2
  echo "An argument position belongs in its row of crates/mpi-sim/src/funcs.rs." >&2
  exit 1
fi

echo "== size ledger: every trace size of §4.1 and Figs 5, 6, 9, 10, at 0 % =="
# Sizes are exact functions of (workload, variant, ranks, iterations), so
# the whole matrix is re-measured (~35 s) and must equal the committed
# ledger byte for byte. Timings are not gated here at all: on this box
# they are only comparable parent-against-change in alternating pairs
# (`bench_pair`, DESIGN.md §14).
./target/release/sizes | diff -u results/SIZES.tsv - ||
  { echo "FAIL: a trace size changed. If intended, regenerate with" >&2
    echo "  ./target/release/sizes > results/SIZES.tsv" >&2
    echo "and say why in CHANGES.md." >&2; exit 1; }

echo "All checks passed."
