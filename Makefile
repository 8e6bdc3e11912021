# Convenience targets; `make ci` is what the CI workflow runs.

.PHONY: all build test fmt polycmp parity regress explain-smoke timeline-smoke engine-smoke trend-smoke why-smoke perfgate ci clean

all: build

build:
	dune build

test:
	dune runtest

# Format check: dune-project enables formatting for dune files only,
# which dune formats itself, so the check needs no ocamlformat and runs
# everywhere.  `dune fmt` applies the fixes it reports.
fmt:
	dune build @fmt

# Typed-comparison guard: no compiled module of the simulator, the
# compile path, the energy counters every traffic run folds its rows
# into, or the utilities they share (the bitsets that carry the
# dataflow) may call OCaml's polymorphic comparison.  `=`, `<` or
# `compare` on a value whose type is left polymorphic (a local `let rec`
# over an array, a tuple helper) compiles to a C call such as
# caml_equal that walks the generic representation; annotating the
# operands as int makes it one machine compare.  `Stdlib.min` and
# `Stdlib.max` are polymorphic too: each call is a call to
# camlStdlib.min_NN/max_NN, whose compare is caml_lessequal or
# caml_greaterequal; `Int.min`/`Int.max` are typed.  `nm -u` lists
# each object's undefined symbols; a missing nm fails the check.
POLYCMP_DIRS = $(addprefix _build/default/lib/,util sim alloc analysis strand energy)
POLYCMP_SYMS = caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)|camlStdlib\.(min|max)_[0-9]+
polycmp: build
	@command -v nm > /dev/null || { echo "polycmp: nm not found"; exit 1; }
	@objs=$$(find $(POLYCMP_DIRS) -name '*.o'); \
	test -n "$$objs" || { echo "polycmp: no objects under $(POLYCMP_DIRS)"; exit 1; }; \
	bad=0; \
	for o in $$objs; do \
	  syms=$$(nm -u "$$o") || { echo "polycmp: nm failed on $$o"; exit 1; }; \
	  refs=$$(echo "$$syms" | awk '{ print $$NF }' | grep -xE '$(POLYCMP_SYMS)' | tr '\n' ' '); \
	  if [ -n "$$refs" ]; then echo "$$o: $$refs"; bad=1; fi; \
	done; \
	test $$bad = 0 || { echo "polycmp: polymorphic comparison in the objects above; annotate the operands' types (Int.min/Int.max for min/max)"; exit 1; }
	@echo "polycmp OK: no object under lib/{util,sim,alloc,analysis,strand,energy} calls polymorphic comparison"

# Page-parity check for the HTML smokes: every table title a command
# printed (the line above a header whose dashed underline matches its
# length) must appear in the page it wrote.  Usage:
# $(call check_titles,TEXT,HTML).
check_titles = titles=$$(awk '{ l[NR] = $$0 } END { for (i = 1; i + 2 <= NR; i++) \
	  if (l[i+2] ~ /^-+$$/ && length(l[i+2]) == length(l[i+1])) print l[i] }' $(1)); \
	test -n "$$titles" || { echo "$(1): no tables found"; exit 1; }; \
	echo "$$titles" | while IFS= read -r title; do \
	  grep -qF -- "$$title" $(2) || { echo "$(2): missing table '$$title'"; exit 1; }; \
	done

# Multicore smoke: every artefact rendered serially and on 2 and 4
# domains must be byte-identical (see docs/parallelism.md), and the
# serial run must be byte-identical to the committed golden
# test/all_golden.txt.  Regenerate the golden only for a deliberate
# change of rfh all's output:
#   dune exec bin/rfh.exe -- all --warps 8 --jobs 1 > test/all_golden.txt
parity: build
	dune exec bin/rfh.exe -- all --warps 8 --jobs 1 > _build/parity-serial.txt
	dune exec bin/rfh.exe -- all --warps 8 --jobs 2 > _build/parity-jobs2.txt
	dune exec bin/rfh.exe -- all --warps 8 --jobs 4 > _build/parity-jobs4.txt
	diff -u test/all_golden.txt _build/parity-serial.txt
	diff -u _build/parity-serial.txt _build/parity-jobs2.txt
	diff -u _build/parity-serial.txt _build/parity-jobs4.txt
	@echo "parity OK: rfh all matches test/all_golden.txt, and --jobs 2 and --jobs 4 are byte-identical to serial"

# Regression gate (see docs/observability.md): check the fresh run
# manifest against the committed golden one, recording it first if it
# does not exist yet.  The check also leaves the manifest, its stdout
# and the HTML report under _build/ for CI to upload; the page must
# carry every table the check printed.
regress: build
	@if [ -f baselines/default.json ]; then \
	  dune exec bin/rfh.exe -- baseline check \
	    --manifest-out _build/run-manifest.json \
	    --report-out _build/run-report.html > _build/regress.txt \
	    || { cat _build/regress.txt; exit 1; }; \
	  cat _build/regress.txt; \
	  $(call check_titles,_build/regress.txt,_build/run-report.html); \
	else \
	  echo "no baseline recorded yet; recording baselines/default.json"; \
	  dune exec bin/rfh.exe -- baseline record \
	    --manifest-out _build/run-manifest.json \
	    --report-out _build/run-report.html; \
	fi

# Allocation-explainer smoke (see docs/observability.md): the decision
# stream must cross-check against the manifest's allocator stats, and
# the JSONL + HTML outputs land under _build/ for CI to upload; the
# page must carry every table the command printed.  A second run on a
# two-level config (no LRF, two ORF entries) cross-checks the verdicts
# the default config never reaches: every LRF verdict ineligible, and
# a shortened ORF placement.
explain-smoke: build
	dune exec bin/rfh.exe -- explain mm --top 10 --warps 8 \
	  --jsonl-out _build/explain-mm.jsonl \
	  --report-out _build/explain-mm.html > _build/explain-mm.txt
	$(call check_titles,_build/explain-mm.txt,_build/explain-mm.html)
	dune exec bin/rfh.exe -- explain mm --lrf none --entries 2 --warps 8 \
	  > _build/explain-mm-two-level.txt
	@echo "explain smoke OK: decision streams match the manifest allocator stats at the default and a two-level config; the page has every printed table"

# Warp-timeline smoke (see docs/observability.md): every warp-cycle
# must be attributed to a stall cause (the command exits 1 if the
# breakdown does not sum to cycles x warps, or if the recorded interval
# stream disagrees with it), and the JSONL, Perfetto trace and HTML
# page land under _build/ for CI to upload; the page must carry every
# table the command printed.
timeline-smoke: build
	dune exec bin/rfh.exe -- timeline mm --warps 16 --mrf-banks 8 --top 5 \
	  --jsonl-out _build/timeline-mm.jsonl \
	  --trace-out _build/timeline-mm-trace.json \
	  --report-out _build/timeline-mm.html > _build/timeline-mm.txt
	$(call check_titles,_build/timeline-mm.txt,_build/timeline-mm.html)
	@echo "timeline smoke OK: stall breakdown sums to cycles x warps in every config; the page has every printed table"

# Engine-profiler smoke (see docs/observability.md): profile the fig13
# rendering at jobs 1 and 2 with the Runtime_events GC capture on; the
# command exits 1 if any region's overhead categories fail to sum to
# wall x domains, its gc time exceeds its useful time, a GC capture is
# missing, or the rendered tables are not byte-identical across jobs
# settings.  Tables, JSON, HTML and the Perfetto trace (engine pid 4 +
# gc pid 5) land under _build/ for CI to upload; the HTML page must
# carry every table the command printed.
engine-smoke: build
	dune exec bin/rfh.exe -- engine fig13 --warps 8 --jobs 1,2 \
	  -b VectorAdd,MatrixMul,Reduction,cp \
	  --json-out _build/engine-fig13.json \
	  --report-out _build/engine-fig13.html \
	  --trace-out _build/engine-trace.json > _build/engine-fig13.txt
	grep -q '"pid":5' _build/engine-trace.json
	$(call check_titles,_build/engine-fig13.txt,_build/engine-fig13.html)
	@echo "engine smoke OK: categories sum to wall x domains; 0 <= gc <= useful; output parity holds; the page has every printed table"

# Trend smoke (see docs/observability.md): append three deterministic
# history records from the same tree, then gate on them.  Identical
# runs must classify as stable on every gated series (trend --check
# exits 0), and the table's title must report no undecodable line: the
# records were just written by the same binary.  The self-contained
# dashboard lands under _build/ for CI to upload.
trend-smoke: build
	rm -f _build/trend-history.jsonl
	dune exec bin/rfh.exe -- fig13 --warps 8 -b VectorAdd,MatrixMul,Reduction,cp \
	  --history-out _build/trend-history.jsonl > /dev/null
	dune exec bin/rfh.exe -- fig13 --warps 8 -b VectorAdd,MatrixMul,Reduction,cp \
	  --history-out _build/trend-history.jsonl > /dev/null
	dune exec bin/rfh.exe -- fig13 --warps 8 -b VectorAdd,MatrixMul,Reduction,cp \
	  --history-out _build/trend-history.jsonl > /dev/null
	dune exec bin/rfh.exe -- trend --history _build/trend-history.jsonl --check \
	  --html-out _build/trend-dashboard.html > _build/trend.txt
	@if grep -q 'undecodable' _build/trend.txt; then head -1 _build/trend.txt; exit 1; fi
	$(call check_titles,_build/trend.txt,_build/trend-dashboard.html)
	@echo "trend smoke OK: three identical runs classify stable; gate exit 0; every record decodes; the page has every printed table"

# Root-cause smoke (see docs/observability.md): record a manifest +
# explain stream, copy them, flip exactly one allocation decision in
# the copy (first ORF placement -> MRF), and `rfh why` must name that
# move as the #1 cause with its attribution self-check passing —
# byte-identically across two runs — and skip no line of either stream
# as undecodable (its stderr stays in _build/why.err).  The JSON and
# HTML analyses land under _build/ for CI to upload.
why-smoke: build
	dune exec bin/rfh.exe -- baseline record --warps 8 -b mm,cp \
	  --baseline _build/why-base.json > /dev/null
	dune exec bin/rfh.exe -- explain mm --warps 8 \
	  --jsonl-out _build/why-base.jsonl > /dev/null
	sed -E '0,/"to":"orf"/s//"to":"mrf"/' _build/why-base.jsonl > _build/why-cand.jsonl
	dune exec bin/rfh.exe -- why _build/why-base.json _build/why-base.json \
	  --explain-a _build/why-base.jsonl --explain-b _build/why-cand.jsonl \
	  --json-out _build/why.json --report-out _build/why.html > _build/why.txt 2> _build/why.err \
	  || { cat _build/why.err; exit 1; }
	@if grep -q 'undecodable' _build/why.err; then cat _build/why.err; exit 1; fi
	dune exec bin/rfh.exe -- why _build/why-base.json _build/why-base.json \
	  --explain-a _build/why-base.jsonl --explain-b _build/why-cand.jsonl \
	  --json-out _build/why-rerun.json > /dev/null
	cmp _build/why.json _build/why-rerun.json
	grep -q 'top cause — MatrixMul: moved orf -> mrf' _build/why.txt
	$(call check_titles,_build/why.txt,_build/why.html)
	@echo "why smoke OK: the flipped decision ranks #1; every explain line decodes; analysis is byte-deterministic; the page has every printed table"

# Performance gate (see docs/performance.md): time the twelve probes
# sim:perf-two-level, sim:perf-lowipc, sim:perf-single-level,
# sim:perf-two-level-16, sim:perf-per-warp-streams, sim:traffic-hw,
# sim:traffic-sw, compile:context, compile:allocate, compile:verify,
# compile:context-1024 and compile:allocate-1024 and measure
# their steady-state allocation, failing if a probe's median regresses
# >2x over its committed threshold in baselines/perfgate.json or if a
# probe allocates past its caps there.  (The compile probes time the
# compile path; `make test` pins its output with
# test/placement_golden.jsonl.)
# The measurements land in _build/perfgate.json for CI to upload; the
# gate appends to a history file only when given --history FILE (CI
# passes baselines/history.jsonl), so this target leaves the tree
# clean.
perfgate: build
	dune exec bench/perfgate.exe

ci: fmt build test polycmp parity regress explain-smoke timeline-smoke engine-smoke trend-smoke why-smoke perfgate

clean:
	dune clean
