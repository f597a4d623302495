#!/usr/bin/env bash
# Runs the full benchmark twice back to back on the default seed (sets A and
# B) and once on seed 7, then prints, per workload and metric, both values,
# their relative difference and the metric's bound from BENCHMARK.json.
# Fails if any run was incorrect, if an end-to-end metric of A and B
# disagrees beyond its bound, or if a count-valued per-layer metric differs
# between A and B. setup_s only warns: one run's set-up is five passes of
# 0.05-0.6 s, and the driver, too, holds it to its bound on medians of ten
# runs, not run against run. Takes about ten minutes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out/selfcheck
rm -rf "$out"
mkdir -p "$out"

seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
status=0
for set in A B S7; do
    seed=2015
    [ "$set" = S7 ] && seed=7
    for workload in join_flat join_bigtree serve_tcp stream_window; do
        for trace in 0 1; do
            echo "selfcheck: set $set, $workload, trace $trace" >&2
            benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" \
                | tail -n 1 >"$out/$set.$workload.$trace.json" || status=1
        done
    done
done

python3 - "$out" "$status" <<'PY'
import json, sys
out, status = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
better = {m["name"]: m["better"] for m in spec["end_to_end"]}
failed = status != 0
print(f'{"workload":14} {"metric":36} {"A":>14} {"B":>14} {"seed 7":>14} {"B vs A":>8} {"bound":>6}')
for w in [x["name"] for x in spec["workloads"]]:
    for trace in (0, 1):
        runs = {s: json.load(open(f"{out}/{s}.{w}.{trace}.json")) for s in ("A", "B", "S7")}
        for s, r in runs.items():
            if not r["correct"]:
                print(f"FAIL {w} set {s} trace {trace}: {r['failed']} of {r['attempted']} operations failed")
                failed = True
        for name, a in runs["A"]["metrics"].items():
            a, b, c = (runs[s]["metrics"][name]["value"] for s in ("A", "B", "S7"))
            unit = runs["A"]["metrics"][name]["unit"]
            rel = (b - a) / a if a else (0.0 if b == a else float("inf"))
            verdict = ""
            if trace == 0:
                worse = rel if better[name] == "lower" else -rel
                if abs(rel) > bounds[name]:
                    verdict = "beyond bound" if worse > 0 else "better, but beyond bound: unsteady"
                    if name == "setup_s":
                        verdict = f"  warn ({verdict})"
                    else:
                        verdict = f"  FAIL ({verdict})"
                        failed = True
            elif unit in ("count", "B") and a != b:
                verdict = "  FAIL count differs"
                failed = True
            bound = f'{bounds[name]:6.2f}' if trace == 0 else "     -"
            print(f"{w:14} {name:36} {a:14.4f} {b:14.4f} {c:14.4f} {rel:+8.3f} {bound}{verdict}")
print("selfcheck:", "FAILED" if failed else "green")
sys.exit(1 if failed else 0)
PY
