PYTHON ?= python
export PYTHONPATH := src

.PHONY: check lint test sanitize

# the CI entrypoint: determinism lint + tier-1 tests
check: lint test

lint:
	$(PYTHON) -m repro.analysis --baseline scripts/analysis_baseline.json --fail-on warning src
	$(PYTHON) -m repro.analysis --rules-md-check README.md

test:
	$(PYTHON) -m pytest -x -q --durations=10

# dual-run trace-hash comparison of a representative experiment (slow ones
# are exercised manually: `python -m repro fig5 --fast --sanitize`)
sanitize:
	$(PYTHON) -m repro table2 --sanitize
	$(PYTHON) -m repro table2 --sanitize --seed 7
