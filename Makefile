# Convenience targets; everything is plain dune underneath.

.PHONY: all check test lint check-corpus fuzz-smoke serve-smoke mutants bench bench-json bench-smoke nestbench-smoke bench-verdicts bench-pairs loc doc clean

all:
	dune build

# Tier-1 verification: full build plus the alcotest/qcheck suite.
check:
	dune build && dune runtest

test: check

# Static diagnostics over the example corpus (docs/LINT.md).  `nestsql
# lint` exits non-zero iff a diagnostic of Error severity is emitted, so
# warnings (the corpus exercises NQ001-NQ003 on purpose) don't fail this.
lint:
	dune build bin/nestsql.exe
	for f in examples/queries/*.sql; do \
	  echo "== $$f"; \
	  dune exec bin/nestsql.exe -- lint --json "$$f" || exit 1; \
	done

# Semantic checker over the whole example corpus (docs/LINT.md): every
# query file and every shrunk regression repro goes through `nestsql
# check` — typed plan validation (NQ110-NQ115) of every plan a strategy
# runs (nested iteration, batched bindings and the transformed program in
# both planner modes; a refused rewrite's nested and batched plans too)
# plus the bounded counterexample search at k=2 (NQ120-NQ122).  Exits
# non-zero on any Error-severity diagnostic, i.e. on a plan-contract
# violation or a refuted rewrite.
check-corpus:
	dune build bin/nestsql.exe
	for f in examples/queries/*.sql examples/queries/regressions/*.sql; do \
	  echo "== $$f"; \
	  dune exec bin/nestsql.exe -- check "$$f" || exit 1; \
	done

# Differential oracle smoke run (docs/ORACLE.md): fixed seed, 500 random
# nested queries, each through the full 22-cell candidate matrix (rewrite,
# batched, Auto and index-axis columns) and the static checker (--check:
# every plan of every strategy type-checked, plus the bounded
# counterexample search), plus a replay of the shrunk regression corpus.
# Exits non-zero on any discrepancy, and on a refusal-count regression:
# seed 42 x 500 refuses exactly 112 candidate cells today (soundness
# guards + the unbatchable shape, including the indexed-rewrite cells'
# share), so the ratchet pins 113 — a rewrite that starts refusing shapes
# it used to handle trips it.
fuzz-smoke:
	dune build bin/nestsql.exe
	dune exec bin/nestsql.exe -- fuzz --seed 42 --count 500 -q --check --assert-refusals-below 113
	dune exec bin/nestsql.exe -- fuzz --replay examples/queries/regressions -q

# End-to-end server smoke (docs/SERVER.md): start `nestsql serve` on a
# Unix-domain socket, run the paper's Q2/Q5 through `nestsql client`,
# assert the plan cache reports hits and that `load` invalidates it.
serve-smoke:
	dune build bin/nestsql.exe
	sh scripts/serve_smoke.sh

# Semantic mutation check (scripts/mutants.sh): each listed mutant applied
# to a `git archive` copy of the tree, never to the working tree, then
# `dune runtest` (and `make fuzz-smoke` where the list asks) must fail.
# Prints killed or SURVIVED per mutant; exits non-zero on a survivor.
# About 35 s per mutant, so not a CI step.  MUTANTS=NAME... runs a subset.
mutants:
	sh scripts/mutants.sh $(MUTANTS)

bench:
	dune exec bench/main.exe

# Machine-readable perf run: writes BENCH_perf.json (wall-clock, page I/O,
# rows over the query grid in both planner modes, plus the pager scaling
# microbench).
bench-json:
	dune exec bench/main.exe -- --json

# CI-speed structural run of the same code path: one small scale, fewer
# reps, writes BENCH_perf.smoke.json and exits non-zero if the v7 schema
# validation fails, batched fails to beat nested iteration on the
# rewrite-refused skewed type-JA cell, indexed nested iteration fails to
# beat the unindexed enumeration on page I/O in the crossover sweep,
# Auto's pick at any crossover cell measures more than 10% above the
# cheapest candidate (either direction), or the sweep lacks a cell where
# Auto picks the untransformed indexed strategy or the transformed one.  Not a
# perf artifact — it proves the bench harness and all strategies still
# run end to end.  Then `--compare` holds every row count,
# page-I/O counter, Auto pick and estimate of the run to the committed
# bench/smoke_baseline.json (timings ignored); a deliberate change to one
# regenerates the baseline with `--smoke` and lists the change.
bench-smoke:
	dune exec bench/main.exe -- --smoke
	dune exec bench/main.exe -- --compare bench/smoke_baseline.json BENCH_perf.smoke.json

# Workload benchmark smoke (nestbench/README.md): every workload at 1/10
# data for half a second, each statement's result checked against the
# reference evaluator (Exec.Nested_iter) and the output schema against
# BENCHMARK.json.  About ten seconds; measures nothing.
nestbench-smoke:
	python3 nestbench/run.py --smoke

# Unit checks of bench-pairs' verdict rule (scripts/test_bench_pairs.py):
# synthetic run pairs, no benchmark runs.  Well under a second.
bench-verdicts:
	python3 -B scripts/test_bench_pairs.py

# Parent-versus-change verdicts on the workload benchmark
# (scripts/bench_pairs.py): PAIRS alternating 15 s runs per workload, the
# working tree against the checkout in PARENT (e.g. `git archive HEAD~1 |
# tar -x -C /tmp/parent`).  Exits non-zero if a metric regressed beyond
# its BENCHMARK.json bound or a statement failed.  The verdict's unit
# checks (bench-verdicts) run first.
PAIRS ?= 10
bench-pairs: bench-verdicts
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs PARENT=DIR [WORKLOAD=W] [PAIRS=N]"; exit 2; }
	python3 scripts/bench_pairs.py $(PARENT) . --pairs $(PAIRS) $(if $(WORKLOAD),--workload $(WORKLOAD))

# Source size: .ml + .mli lines per directory, then the total.
loc:
	@for d in lib bin bench test; do \
	  printf '%-6s %7d\n' $$d $$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	done
	@printf '%-6s %7d\n' total $$(find lib bin bench test -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)

# API docs (requires odoc; CI installs it).
doc:
	dune build @doc

clean:
	dune clean
