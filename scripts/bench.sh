#!/usr/bin/env bash
# Runs the TD-AC criterion benches (algorithms, tdac_pipeline,
# clustering, partitioning, store, serve) and aggregates their per-bench
# medians into BENCH_tdac.json at the repo root.
#
# The vendored criterion shim emits one JSON line per benchmark when
# TDAC_BENCH_JSON is set; this script collects those lines into a single
# JSON object keyed by "group/name" with the median ns per iteration.
#
# Usage: scripts/bench.sh [--no-shard] [extra cargo bench args...]
#   --no-shard               skip the multi-process shard-scaling sweep
#                            (crates/bench/src/bin/shard_scaling; folded
#                            under "shard_scaling" with the host's core
#                            count, plus "retry_overhead" — the clean-path
#                            cost of arming the fault supervisor — see
#                            docs/SHARDING.md)
#   TDAC_BENCH_SAMPLES=<n>   override sample count (default: per-group)
#   TDAC_SHARD_OBJECTS=<n>   shard-sweep dataset size in objects
#                            (default 166667 ≈ 10M observations)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

shard=1
while [[ "${1:-}" == "--no-shard" ]]; do
    shard=0
    shift
done

tmp="$repo_root/.bench_lines.bench.tmp.json"
shard_tmp="$repo_root/.bench_shard.bench.tmp.json"
out="$repo_root/BENCH_tdac.json"
rm -f "$tmp" "$shard_tmp"

for bench in algorithms tdac_pipeline clustering partitioning store serve; do
    echo "== cargo bench --bench $bench =="
    TDAC_BENCH_JSON="$tmp" cargo bench --offline -p tdac-bench --bench "$bench" "$@"
done

if [[ "$shard" == 1 ]]; then
    echo "== cargo run --bin shard_scaling (multi-process sweep, 1/2/4/8 workers) =="
    cargo run --offline --release -q -p tdac-bench --bin shard_scaling > "$shard_tmp"
fi

# Fold the JSON lines into one object: {"id": median_ns, ...}; the
# shard sweep document lands under "shard_scaling".
python3 - "$tmp" "$out" "$shard_tmp" <<'PY'
import json, os, sys

lines_path, out_path, shard_path = sys.argv[1:4]
benches = {}
with open(lines_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        benches[rec["id"]] = {
            "median_ns": rec["median_ns"],
            "samples": rec["samples"],
        }
doc = {"benches": benches}

# Any "<prefix>/dense" + "<prefix>/packed" pair is a kernel comparison:
# record the dense/packed throughput ratio under "kernel_speedups".
speedups = {}
for bench_id, rec in benches.items():
    if not bench_id.endswith("/dense"):
        continue
    prefix = bench_id[: -len("/dense")]
    packed = benches.get(prefix + "/packed")
    if packed and packed["median_ns"] > 0:
        speedups[prefix] = round(rec["median_ns"] / packed["median_ns"], 2)
if speedups:
    doc["kernel_speedups"] = speedups

# Any "<prefix>/limits_off" + "<prefix>/limits_on" pair measures the
# cost of arming the execution-limits machinery with budgets that never
# fire: record the on/off median ratio under "limits_overhead" (the
# docs/ROBUSTNESS.md claim is < 1.02, i.e. under 2% overhead).
overheads = {}
for bench_id, rec in benches.items():
    if not bench_id.endswith("/limits_off"):
        continue
    prefix = bench_id[: -len("/limits_off")]
    on = benches.get(prefix + "/limits_on")
    if on and rec["median_ns"] > 0:
        overheads[prefix] = round(on["median_ns"] / rec["median_ns"], 4)
if overheads:
    doc["limits_overhead"] = overheads

# Any "<prefix>/full_recompute" + "<prefix>/incremental_append" pair
# compares a from-scratch pipeline run on the accumulated claims with a
# session ingest of the same delta batch: record the full/incremental
# throughput ratio under "streaming_speedups" (docs/STREAMING.md).
streaming = {}
for bench_id, rec in benches.items():
    if not bench_id.endswith("/full_recompute"):
        continue
    prefix = bench_id[: -len("/full_recompute")]
    inc = benches.get(prefix + "/incremental_append")
    if inc and inc["median_ns"] > 0:
        streaming[prefix] = round(rec["median_ns"] / inc["median_ns"], 2)
if streaming:
    doc["streaming_speedups"] = streaming

# Any "<prefix>/rebuild" + "<prefix>/cold_load" pair compares a full
# from-scratch TD-AC run with decoding a packed `.tds` store and running
# from its truth page (build phase skipped): record the rebuild/cold_load
# throughput ratio under "store_speedups" (docs/STORAGE.md).
store = {}
for bench_id, rec in benches.items():
    if not bench_id.endswith("/rebuild"):
        continue
    prefix = bench_id[: -len("/rebuild")]
    cold = benches.get(prefix + "/cold_load")
    if cold and cold["median_ns"] > 0:
        store[prefix] = round(rec["median_ns"] / cold["median_ns"], 2)
if store:
    doc["store_speedups"] = store

# Any "serve/*" bench measures one query round-trip over loopback TCP:
# record requests/sec (1e9 / median_ns) under "serve_throughput". The
# chaos-injected variant serves a degraded-but-flagged generation, so
# clean vs chaos shows the graceful-degradation cost (docs/SERVING.md).
serve = {}
for bench_id, rec in benches.items():
    if bench_id.startswith("serve/") and rec["median_ns"] > 0:
        serve[bench_id] = round(1e9 / rec["median_ns"], 1)
if serve:
    doc["serve_throughput"] = serve

# The shard_scaling bin emits one self-describing document: observation
# count, host core count, per-worker-count wall ms and speedup vs the
# single-process run. Speedup is bounded by physical cores — the
# "cores" field is the honest context for reading "speedup".
shard = None
if os.path.exists(shard_path):
    with open(shard_path) as f:
        shard = json.load(f)
    # The retry-supervisor overhead (clean path, supervisor armed vs
    # fail-fast) is its own top-level entry.
    retry = shard.pop("retry_overhead", None)
    if retry is not None:
        doc["retry_overhead"] = retry
    doc["shard_scaling"] = shard

with open(out_path, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
extra = ""
if speedups:
    extra += "; packed-kernel speedups: " + ", ".join(
        f"{k} {v}x" for k, v in sorted(speedups.items())
    )
if overheads:
    extra += "; limits overhead: " + ", ".join(
        f"{k} {(v - 1) * 100:+.2f}%" for k, v in sorted(overheads.items())
    )
if streaming:
    extra += "; streaming speedups: " + ", ".join(
        f"{k} {v}x" for k, v in sorted(streaming.items())
    )
if store:
    extra += "; store speedups: " + ", ".join(
        f"{k} {v}x" for k, v in sorted(store.items())
    )
if serve:
    extra += "; serve throughput: " + ", ".join(
        f"{k} {v} req/s" for k, v in sorted(serve.items())
    )
if shard:
    best = max(shard["speedup"].items(), key=lambda kv: kv[1])
    extra += (
        f"; shard scaling: {best[1]}x at {best[0]} worker(s) "
        f"on {shard['cores']} core(s)"
    )
print(f"wrote {out_path} ({len(benches)} benches{extra})")
PY
rm -f "$tmp" "$shard_tmp"
