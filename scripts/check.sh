#!/usr/bin/env bash
# Pre-PR gate: style lint (ruff), contract lint (reprolint), tests.
#
# Usage: scripts/check.sh
#
# This is the exact sequence CI runs; a change that passes here is safe
# to put up for review.  See docs/linting.md for the reprolint rule
# catalogue and CONTRIBUTING.md for the full conventions.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff"
    ruff check src tests
else
    echo "== ruff not installed; skipping style lint (pip install ruff)"
fi

echo "== reprolint (CONGEST + determinism contract, whole-program)"
# Gates against the committed .reprolint-baseline.json: only *new*
# findings fail.  --cache skips content-unchanged files; the cache file
# is git-ignored and safe to delete.
python -m repro.lint --cache src/repro tests

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy --strict (repro.lint, repro.runtime)"
    mypy --config-file pyproject.toml
else
    echo "== mypy not installed; skipping type check (pip install mypy)"
fi

echo "== bench regression gate (quick tier vs committed baselines)"
# Runs every registry suite at quick sizes and compares the
# seed-deterministic columns (rounds, served/error counts, round
# percentiles) exactly against benchmarks/results/<suite>.quick.json;
# the tripwire suite also enforces the native-build wall budget.
# Refresh a baseline with: python -m repro bench <suite> --quick
python -m repro bench --check

echo "== fault-matrix smoke (reliable delivery under injected faults)"
python scripts/fault_smoke.py

echo "== serve smoke (session lifecycle: build, cache hit, replay, churn)"
python scripts/serve_smoke.py

echo "== chaos smoke (kill, damage, recover, replay: bit-identical)"
python scripts/chaos_smoke.py

echo "== pytest"
python -m pytest -x -q

echo "== perfbench tests (the end-to-end benchmark's own suite)"
python3 -m pytest -q perfbench/tests

echo "== all checks passed"
