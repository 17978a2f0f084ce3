#!/usr/bin/env bash
# A/A check: the same build measured against itself.
#
#   benchmark/aa.sh [SETS [RUNS [FIRST_SEED]]]      (defaults 2, 10, 1)
#
# Each set runs every workload RUNS times, run k with seed
# FIRST_SEED + k - 1. Per (end-to-end metric, workload) it prints each
# set's median and its spread: the distance between the first and third
# quartile of the RUNS values (Python's statistics.quantiles, n=4) as a
# share of their median. Each set also makes one short traced run per
# workload on FIRST_SEED and keeps the exact per-layer values (EXACT
# below: counts, ratios of counts, virtual ticks).
#
# It fails if
#   * a spread other than setup_s's exceeds the metric's bound in
#     BENCHMARK.json,
#   * a later set's median is worse than the first set's by more than
#     the bound,
#   * a run fails an output check,
#   * a seed's checksum or an exact per-layer value differs between sets.
#
# Spreads above a third of the bound are marked "wide".
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
exec python3 - "$target/release/stategen-benchmark" "${1:-2}" "${2:-10}" "${3:-1}" <<'PY'
import json, statistics, subprocess, sys

# Per-layer values that must repeat exactly for a seed. allocs_per_kop
# is compared on the workloads ISSUE 11 defines it for.
EXACT = [
    "core.generator.states_out", "analysis.diagnostics", "analysis.minimize_states_removed",
    "core.artifact.bytes", "core.artifact.load_allocs",
    "core.kernel.occupied_states_p50", "core.kernel.largest_bucket_share_p50",
    "core.kernel.transitions_per_delivery", "core.kernel.guard_fall_throughs_per_delivery",
    "runtime.churn_share", "runtime.stale_rejected", "runtime.timer.fired", "runtime.timer.cascades",
    "storage.commit_ticks_p50", "storage.commit_ticks_p99", "storage.recovery_ticks_p99",
    "storage.msgs_per_commit", "storage.retries_per_commit", "storage.peer_deliveries_per_commit",
    "storage.peer_spawns_per_commit", "storage.peer_releases_per_commit",
    "storage.peer_live_sessions_end", "storage.virtual_end_ticks", "storage.crashes", "storage.restarts",
    "check.failed_share", "check.checksum_low32",
]
ALLOCS_EXACT_ON = ("batch_lockstep", "batch_divergent", "batch_guarded", "routed_churn")

exe, sets, runs, first_seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
manifest = json.load(open("BENCHMARK.json"))
metrics = manifest["end_to_end"]
layer_names = {m["name"] for m in manifest["per_layer"]}
assert set(EXACT) <= layer_names and "alloc.allocs_per_kop" in layer_names, "EXACT names a metric the manifest lacks"
seconds = str(manifest["run_seconds"])
failures = []
medians = {}    # (workload, metric) -> median of the first set
checksums = {}  # (workload, seed) -> checksum of the first set
exact = {}      # (workload, metric) -> value of the first set


def run(workload, seed, secs, trace):
    p = subprocess.run([exe, "--workload", workload, "--seed", str(seed), "--seconds", secs, "--trace", trace],
                       capture_output=True, text=True)
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        failures.append(f"{workload} seed {seed} trace {trace}: exit code {p.returncode}\n{p.stderr}")
        return None, lines
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        failures.append(f"{workload} seed {seed} trace {trace}: {result['failed']} of {result['attempted']} failed")
    return result, lines


for s in range(sets):
    for w in (w["name"] for w in manifest["workloads"]):
        values = {m["name"]: [] for m in metrics}
        for seed in range(first_seed, first_seed + runs):
            result, lines = run(w, seed, seconds, "0")
            if result is None:
                continue
            checksum = next(l.split()[5] for l in lines if l.startswith(f"# {w} seed "))
            if checksums.setdefault((w, seed), checksum) != checksum:
                failures.append(f"{w} seed {seed}: checksum {checksum} in set {s + 1}, {checksums[w, seed]} in set 1")
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            bound = m["bound"]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            note = ""
            if m["name"] != "setup_s" and spread > bound:
                note = "  SPREAD EXCEEDS BOUND"
                failures.append(f"{w} {m['name']}: spread {spread:.4f} exceeds bound {bound}")
            elif spread > bound / 3:
                note = "  wide"
            base = medians.setdefault((w, m["name"]), med)
            worse = (med - base) / base if m["better"] == "lower" else (base - med) / base
            if worse > bound:
                note += "  MEDIAN WORSE THAN SET 1"
                failures.append(f"{w} {m['name']}: set {s + 1} median {med} is {worse:.4f} worse than set 1's {base}")
            print(f"set {s + 1} {w:16} {m['name']:12} median {med:<22.10g} {m['unit']:4} "
                  f"spread {spread:.4f} bound {bound} vs set 1 {worse:+.4f}{note}", flush=True)
        traced, _ = run(w, first_seed, "1", "1")
        if traced is None:
            continue
        names = EXACT + (["alloc.allocs_per_kop"] if w in ALLOCS_EXACT_ON else [])
        differing = [n for n in names
                     if exact.setdefault((w, n), traced["metrics"][n]["value"]) != traced["metrics"][n]["value"]]
        for n in differing:
            failures.append(f"{w} {n}: {traced['metrics'][n]['value']} in set {s + 1}, {exact[w, n]} in set 1")
        print(f"set {s + 1} {w:16} {len(names)} exact per-layer values, {len(differing)} differ from set 1", flush=True)

for f in failures:
    print("FAILED:", f, file=sys.stderr)
sys.exit(1 if failures else 0)
PY
