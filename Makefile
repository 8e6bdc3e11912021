# Convenience targets; `make ci` is what the CI workflow runs.

.PHONY: all build test fmt parity regress explain-smoke timeline-smoke engine-smoke trend-smoke why-smoke perfgate ci clean

all: build

build:
	dune build

test:
	dune runtest

# Format check. Gated: the check only runs where ocamlformat is
# installed (dev boxes / CI); .ocamlformat currently disables
# reformatting, so the check is a no-op scaffold for incremental
# adoption.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi

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

# Multicore smoke: the same artefact rendered serially and on 2
# domains must be byte-identical (see docs/parallelism.md).
parity: build
	dune exec bin/rfh.exe -- fig13 --warps 8 --jobs 1 > _build/parity-serial.txt
	dune exec bin/rfh.exe -- fig13 --warps 8 --jobs 2 > _build/parity-jobs2.txt
	diff -u _build/parity-serial.txt _build/parity-jobs2.txt
	@echo "parity OK: fig13 --jobs 2 is byte-identical to serial"

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
# page must carry every table the command printed.
explain-smoke: build
	dune exec bin/rfh.exe -- explain mm --top 10 --warps 8 \
	  --jsonl-out _build/explain-mm.jsonl \
	  --report-out _build/explain-mm.html > _build/explain-mm.txt
	$(call check_titles,_build/explain-mm.txt,_build/explain-mm.html)
	@echo "explain smoke OK: decision stream matches the manifest allocator stats; the page has every printed table"

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
# exits 0); the self-contained dashboard lands under _build/ for CI to
# upload.
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
	$(call check_titles,_build/trend.txt,_build/trend-dashboard.html)
	@echo "trend smoke OK: three identical runs classify stable; gate exit 0; the page has every printed table"

# Root-cause smoke (see docs/observability.md): record a manifest +
# explain stream, copy them, flip exactly one allocation decision in
# the copy (first ORF placement -> MRF), and `rfh why` must name that
# move as the #1 cause with its attribution self-check passing —
# byte-identically across two runs.  The JSON and HTML analyses land
# under _build/ for CI to upload.
why-smoke: build
	dune exec bin/rfh.exe -- baseline record --warps 8 -b mm,cp \
	  --baseline _build/why-base.json > /dev/null
	dune exec bin/rfh.exe -- explain mm --warps 8 \
	  --jsonl-out _build/why-base.jsonl > /dev/null
	sed -E '0,/"to":"orf"/s//"to":"mrf"/' _build/why-base.jsonl > _build/why-cand.jsonl
	dune exec bin/rfh.exe -- why _build/why-base.json _build/why-base.json \
	  --explain-a _build/why-base.jsonl --explain-b _build/why-cand.jsonl \
	  --json-out _build/why.json --report-out _build/why.html > _build/why.txt
	dune exec bin/rfh.exe -- why _build/why-base.json _build/why-base.json \
	  --explain-a _build/why-base.jsonl --explain-b _build/why-cand.jsonl \
	  --json-out _build/why-rerun.json > /dev/null
	cmp _build/why.json _build/why-rerun.json
	grep -q 'top cause — MatrixMul: moved orf -> mrf' _build/why.txt
	$(call check_titles,_build/why.txt,_build/why.html)
	@echo "why smoke OK: the flipped decision ranks #1; analysis is byte-deterministic; the page has every printed table"

# Performance gate (see docs/performance.md): time the six probes
# sim:perf-two-level, sim:perf-lowipc, sim:traffic-hw, compile:context,
# compile:allocate and compile:verify and measure their steady-state
# allocation, failing if a probe's median regresses >2x over its
# committed threshold in baselines/perfgate.json or if a probe
# allocates past its caps there.  (The compile probes time the
# compile path; `make test` pins its output with
# test/placement_golden.jsonl.)
# The measurements land in _build/perfgate.json for CI to upload.
perfgate: build
	dune exec bench/perfgate.exe

ci: fmt build test parity regress explain-smoke timeline-smoke engine-smoke trend-smoke why-smoke perfgate

clean:
	dune clean
