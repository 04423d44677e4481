#!/usr/bin/env bash
# Pre-PR gate, in order: ruff (style lint, if installed), reprolint
# (contract lint), mypy (if installed), the bench regression gate
# (`repro bench --check`), pytest, and the perfbench tests.
#
# Usage: scripts/check.sh
#
# This is the sequence the CI `check` job runs; a change that passes
# here is safe to put up for review.  See docs/linting.md for the
# reprolint rule catalogue and CONTRIBUTING.md for the full conventions.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff"
    ruff check src tests
else
    echo "== ruff not installed; skipping style lint (pip install ruff)"
fi

echo "== reprolint (CONGEST + determinism contract, one pass)"
# Lints the [tool.reprolint] paths of pyproject.toml.  The gate is zero
# findings; a deliberate exception is suppressed on its own line with
# `# reprolint: disable=RULE` and the reason.
python -m repro.lint

if command -v mypy >/dev/null 2>&1; then
    echo "== mypy --strict (repro.lint, repro.runtime)"
    mypy --config-file pyproject.toml
else
    echo "== mypy not installed; skipping type check (pip install mypy)"
fi

echo "== bench regression gate (quick tier vs committed baselines)"
# Runs every registry suite at quick sizes (kernels, faults, recovery,
# engine, serve, tripwire, serve-soak, load-curve, chaos, paper) and
# compares the seed-deterministic columns (rounds, served/error counts,
# round percentiles, every EXPERIMENTS.md table cell) exactly against
# benchmarks/results/<suite>.quick.json;
# the tripwire suite also enforces four wall budgets:
# native_embedded_build, native_open, warm_route and native_warm_route.
# Refresh a baseline with: python -m repro bench <suite> --quick
python -m repro bench --check

echo "== pytest"
python -m pytest -x -q

echo "== perfbench tests (the end-to-end benchmark's own suite)"
python3 -m pytest -q perfbench/tests

echo "== all checks passed"
