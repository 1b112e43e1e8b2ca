#!/usr/bin/env bash
# Smoke check for CI: build, `run --quick`, and assert that every metric
# name BENCHMARK.json declares appears for every workload in results.json.
# Run from anywhere; takes about two minutes.
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-../target}"

cargo run --release --offline --quiet -- run --quick --seed "${1:-2013}"

python3 - <<'EOF'
import json, sys
declared = json.load(open("../BENCHMARK.json"))
results = json.load(open("out/results.json"))
names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
missing = [
    f"{w['name']}: {name}"
    for w in declared["workloads"]
    for name in names
    if name not in results["workloads"].get(w["name"], {}).get("metrics", {})
]
failed = {w: r["failed"] for w, r in results["workloads"].items() if r["failed"]}
if missing or failed:
    sys.exit(f"missing metrics: {missing}\nfailed requests: {failed}")
print(f"check.sh: {len(names)} metrics x {len(declared['workloads'])} workloads present, no failed request")
EOF
