# Convenience targets for the repro project.

PYTHON ?= python

# Every target runs against this checkout's src/, installed or not.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test lint bench report figures examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# repro's own determinism linter always runs (stdlib-only); ruff and mypy
# run when installed and are skipped quietly otherwise (CI installs both).
lint:
	$(PYTHON) -m repro lint src
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

# All four workloads of the repo's benchmark (BENCHMARK.json), untraced.
bench:
	$(PYTHON) benchmarks/suite/run.py

# CI re-runs this and fails when the committed EXPERIMENTS.md differs.
report:
	$(PYTHON) -m repro report -o EXPERIMENTS.md

figures:
	$(PYTHON) -m repro figures -o figures

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

clean:
	rm -rf .pytest_cache .hypothesis .repro-cache
	find . -name __pycache__ -type d -exec rm -rf {} +
