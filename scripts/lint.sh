#!/usr/bin/env bash
# Lint gate: formatting and clippy across the whole workspace, warnings
# denied. Run before sending a change out for review.
set -euo pipefail
cd "$(dirname "$0")/.."

if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "warning: rustfmt unavailable, skipping format check" >&2
fi

cargo clippy --workspace --all-targets -- -D warnings
echo "lint: clean"

# Smoke-run the benchmark gate so a broken hot path or executor shows up
# before review, not after. --warn-only: wall-clock numbers on whatever
# machine runs lint aren't comparable to the committed report; the strict
# (failing) comparison is a deliberate `scripts/bench.sh` run.
scripts/bench.sh --smoke --warn-only

# Lab smoke: the committed four-variant × two-seed spec end to end through
# the planner/executor. Its regression gates compare against
# specs/smoke.baseline.jsonl; the simulation is deterministic, so this one
# DOES fail lint on any gate breach.
cargo run --release -p laminar-bench --bin laminar-experiments -- \
    --spec specs/smoke.toml --out "$(mktemp -d)" >/dev/null
echo "lab smoke: gates pass"

# Chaos smoke: one seeded fault-schedule sweep with the invariant checker.
# "all seeds green: yes" is asserted by the experiment's own tests; here we
# just require the run to exit cleanly and stay green.
cargo run --release -p laminar-bench --bin laminar-experiments -- \
    --chaos-seed 1 --out "$(mktemp -d)" chaos | grep "all seeds green: yes" >/dev/null
echo "chaos smoke: green"
