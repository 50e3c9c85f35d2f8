#!/usr/bin/env bash
# Full verification sweep: tier-1 gate, the whole workspace test set,
# and the td-verify harness including the Bell(7)/Bell(8) oracles that
# the default feature set skips. See docs/VERIFICATION.md for what each
# layer proves.
#
# Usage: scripts/verify.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: default tests (includes the DS1 golden gate) =="
cargo test --offline -q

echo "== workspace suites (differential / determinism / metamorphic) =="
cargo test --offline -q --workspace

echo "== benches compile (cargo test skips bench targets) =="
cargo bench --offline --no-run -p tdac-bench

echo "== perfbench self-test: every workload at smoke size, traced and untraced =="
# perfbench is a workspace of its own, so `--workspace` never builds it;
# this catches a break in the public calls it makes before a benchmark
# run does.
cargo test --release --offline --manifest-path perfbench/Cargo.toml --target-dir target/perfbench

echo "== observer determinism: profiles on vs off, all thread counts =="
cargo test --offline -q -p td-verify --test observer

echo "== kernel parity: packed vs dense distance and k-means kernels, DS1 golden =="
cargo test --offline -q -p td-verify --test kernels

echo "== k-means parity oracle: packed vs dense Lloyd, dev and release profiles =="
# The packed screen rests on float margins and integer arithmetic, and
# release builds turn overflow checks off: run the oracle under both.
cargo test --offline -q -p td-verify --test kmeans
cargo test --offline -q --release -p td-verify --test kmeans

echo "== store decoder under the release profile =="
# tdc and perfbench load stores with the release decoder, whose offset
# arithmetic runs without overflow checks: run its unit tests (the
# differential mutation test among them) and the corruption matrix there.
cargo test --offline -q --release -p td-store
cargo test --offline -q --release -p td-verify --test store

echo "== chaos oracles: injected panics/stalls/cancels + budget invariants =="
cargo test --offline -q -p td-verify --test chaos
cargo test --offline -q -p td-verify --test limits_props

echo "== incremental oracle: session ingest vs batch recompute, bit-identical =="
cargo test --offline -q -p td-verify --test incremental

echo "== store: .tds corruption matrix, fuzzing, round-trip bit-identity =="
cargo test --offline -q -p td-verify --test store
cargo run --offline --release -q -p td-verify

echo "== serve: protocol units, concurrent bit-identity, chaos-behind-the-wire =="
cargo test --offline -q -p td-serve
cargo test --offline -q --test serving
cargo test --offline -q -p td-verify --test serve

echo "== serve: tdc serve/query round-trip is bit-identical to tdc run =="
serve_tmp="$(mktemp -d)"
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$serve_tmp"' EXIT
cargo build --release --offline -q -p tdac-eval --bin tdc
tdc="$repo_root/target/release/tdc"
"$tdc" serve --input crates/td-verify/goldens/ds1.tds --algo majorityvote \
    --addr 127.0.0.1:0 > "$serve_tmp/addr" &
serve_pid=$!
for _ in $(seq 1 100); do
    addr="$(head -n1 "$serve_tmp/addr" 2>/dev/null || true)"
    [[ -n "$addr" ]] && break
    sleep 0.1
done
[[ -n "${addr:-}" ]] || { echo "verify: tdc serve never printed its address" >&2; exit 1; }
# A hostile client first, on its own connection: one 20,000-deep line of
# `[` must get a typed BadRequest and leave the server up for the
# well-behaved query below.
deep="$(printf '%20000s' '' | tr ' ' '[')"
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
printf '%s\n' "$deep" >&3
IFS= read -r -t 30 reply <&3 || reply=""
exec 3<&- 3>&-
[[ "$reply" == *BadRequest* ]] \
    || { echo "verify: a deeply nested request line got no BadRequest: ${reply:0:200}" >&2; exit 1; }
echo "deeply nested request line rejected with BadRequest"
# Then one line of cap + 1 bytes and no `\n` (the cap is
# td_serve::MAX_REQUEST_LINE_BYTES): a BadRequest naming the cap, then
# the server closes. Send no more than cap + 1 bytes, since bytes left
# unread at the close turn it into a reset that can swallow the reply.
cap=$((16 << 20))
exec 3<>"/dev/tcp/${addr%:*}/${addr##*:}"
head -c "$((cap + 1))" /dev/zero | tr '\0' 'x' >&3
IFS= read -r -t 30 reply <&3 || reply=""
exec 3<&- 3>&-
[[ "$reply" == *BadRequest* && "$reply" == *"$cap"* ]] \
    || { echo "verify: an over-cap request line got no BadRequest: ${reply:0:200}" >&2; exit 1; }
echo "request line of cap + 1 bytes rejected with BadRequest"
"$tdc" query --addr "$addr" --deadline-ms 30000 --output "$serve_tmp/served.json"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
"$tdc" run --input crates/td-verify/goldens/ds1.tds --algo majorityvote --tdac \
    --output "$serve_tmp/local.json"
diff "$serve_tmp/served.json" "$serve_tmp/local.json" \
    || { echo "verify: served answers diverged from the in-process run" >&2; exit 1; }
echo "served == in-process (bit-identical)"

echo "== shard: worker protocol units + multi-process bit-identity oracle =="
cargo test --offline -q -p td-shard
cargo test --offline -q -p td-verify --test shard

echo "== shard: tdc shard is byte-identical to tdc run, both strategies =="
"$tdc" run --input crates/td-verify/goldens/ds1.tds --algo majorityvote --tdac \
    --output "$serve_tmp/inproc.json"
for strategy in attr-group hash-object; do
    "$tdc" shard --input crates/td-verify/goldens/ds1.tds --algo majorityvote \
        --shards 4 --strategy "$strategy" --output "$serve_tmp/sharded.json"
    diff "$serve_tmp/inproc.json" "$serve_tmp/sharded.json" \
        || { echo "verify: sharded ($strategy) diverged from the in-process run" >&2; exit 1; }
    echo "sharded ($strategy, 4 workers) == in-process (byte-identical)"
done

echo "== shard retry: supervisor oracle suite (chaos kills/hangs, fallback) =="
cargo test --offline -q -p td-verify --test retry

echo "== shard retry: chaos-killed worker retries to byte-identical output =="
# Shard 1 dies once ("1:F") and succeeds on the re-spawn: the retried
# run must emit exactly the bytes the in-process run emits. The chaos
# env rides on the coordinator's environment here — workers inherit it,
# and the in-process fallback path is pinned chaos-free by design.
TD_SHARD_CHAOS_PLAN="1:F" "$tdc" shard --input crates/td-verify/goldens/ds1.tds \
    --algo majorityvote --shards 2 --retry-attempts 2 --retry-backoff-ms 0 \
    --output "$serve_tmp/retried.json"
diff "$serve_tmp/inproc.json" "$serve_tmp/retried.json" \
    || { echo "verify: retried shard run diverged from the in-process run" >&2; exit 1; }
echo "retried (1 chaos kill, 2 attempts) == in-process (byte-identical)"

echo "== shard retry: exhausted attempts fall back in-process, byte-identical =="
# Shard 1 dies on every attempt: both attempts burn, the coordinator
# runs shard 1's jobs itself, and the predictions still byte-match.
TD_SHARD_CHAOS_EXIT=1 "$tdc" shard --input crates/td-verify/goldens/ds1.tds \
    --algo majorityvote --shards 2 --retry-attempts 2 --retry-backoff-ms 0 \
    --output "$serve_tmp/fellback.json"
diff "$serve_tmp/inproc.json" "$serve_tmp/fellback.json" \
    || { echo "verify: fallback shard run diverged from the in-process run" >&2; exit 1; }
echo "fallback (all attempts killed) == in-process (byte-identical)"

echo "== expensive oracles: Bell(7)/Bell(8) brute-force differentials =="
cargo test --offline -q -p td-verify --features expensive-oracles

echo "verify: all green"
