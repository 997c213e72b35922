# Verification gate. `make check` is the command CI runs: the tree must
# be gofmt-clean, build, pass vet, satisfy the determinism contract
# (cmd/metalint), and pass the race-enabled test suite.

GO ?= go

.PHONY: check build fmt vet metalint lint-inventory secretflow-test test dispatch-race fuzz-smoke hunt-smoke bench bench-json bench-gate

check: fmt vet metalint lint-inventory secretflow-test test dispatch-race

build:
	$(GO) build ./...

# Fails, listing the offenders, when any Go file is not gofmt-formatted.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

metalint:
	$(GO) run ./cmd/metalint -strict-directives ./...

# The leakage contract: regenerating the secret-taint inventory from
# the tree must reproduce the committed leakage-inventory.json byte for
# byte. A leak site appearing (new secret-dependent code) or vanishing
# (a gadget silently fixed or a directive gone stale) both fail here.
lint-inventory:
	$(GO) run ./cmd/metalint -inventory /tmp/metalint-inventory.json ./...
	diff leakage-inventory.json /tmp/metalint-inventory.json

# The secretflow golden tests, re-run uncached: the fixture diagnostics,
# the inventory golden, and the stale-directive scan are exercised on
# every check even when internal/analysis is unchanged.
secretflow-test:
	$(GO) test -count=1 -run 'Secretflow|Directive|Relativize|Golden' ./internal/analysis

test:
	$(GO) test -race ./...

# The distributed-dispatch, sweep-service and checkpoint property
# tests, re-run uncached so the byte-identity, revocation, supervision,
# cache and resume invariants are exercised on every check even when the
# surrounding packages are unchanged.
dispatch-race:
	$(GO) test -race -count=1 -run 'Dispatch|Serve|Supervis|DialRetry|ResultCache|CellFingerprint|Hunt|JobSession|Checkpoint|Resume' \
		./internal/dispatch ./internal/experiments ./internal/serve ./cmd/metaleak

# Ten seconds of coverage-guided fuzzing per parser-shaped surface:
# cheap enough for CI, long enough to catch a decoder regression.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzObsDiff -fuzztime=10s ./internal/contract
	$(GO) test -run='^$$' -fuzz=FuzzProtocolRoundTrip -fuzztime=10s ./internal/dispatch

# The differential-fuzzer smoke: a fixed 2-config x 4-program x 2-pair
# grid must reproduce the committed verdict CSV byte for byte, at any
# -par width, through the distributed dispatch path, and across a
# checkpoint torn mid-append (harness:trunc) and resumed, whose resume
# must report the salvaged torn line. A noisy grid must run every cell:
# a row with a non-empty err column fails the target. Regenerate the
# golden (after auditing the diff) by copying /tmp/hunt-smoke.csv over
# internal/hunt/testdata/smoke.csv.
HUNT_SMOKE = hunt -configs sct,ht -programs 4 -pairs 2 -seed 42
HUNT_NOISE = hunt -configs sct -programs 2 -pairs 2 -seed 5 -set NoiseInterval=2000

hunt-smoke:
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) 2>/dev/null > /tmp/hunt-smoke.csv
	diff internal/hunt/testdata/smoke.csv /tmp/hunt-smoke.csv
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -par 1 2>/dev/null | diff /tmp/hunt-smoke.csv -
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -workers 2 2>/dev/null | diff /tmp/hunt-smoke.csv -
	rm -f /tmp/hunt-smoke.ckpt
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -checkpoint /tmp/hunt-smoke.ckpt -faults 'harness:trunc@3' 2>/dev/null | diff /tmp/hunt-smoke.csv -
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -checkpoint /tmp/hunt-smoke.ckpt 2>/tmp/hunt-smoke.err | diff /tmp/hunt-smoke.csv -
	grep -q 'discarded torn trailing line' /tmp/hunt-smoke.err
	$(GO) run ./cmd/metaleak $(HUNT_NOISE) 2>/dev/null > /tmp/hunt-noise.csv
	awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) if ($$i == "err") e = i; next } \
		!e || $$e != "" { print "hunt-smoke: noisy row failed: " $$0; bad = 1 } \
		END { exit bad || !e || NR < 2 }' /tmp/hunt-noise.csv

# Sequential vs GOMAXPROCS-parallel wall-clock over the full experiment
# registry: the speedup the spec/trial/merge harness buys on this
# machine (the outputs are byte-identical either way).
bench:
	$(GO) test -run='^$$' -bench='^BenchmarkRunAll' -benchtime=1x .

# Substrate microbenchmarks + fixed-grid sweep throughput as a
# machine-readable record (DESIGN.md §11). `make bench-json N=<pr>`
# writes the current PR's record, BENCH_<pr>.json, and refuses to run
# without a numeric N. bench-gate re-measures, writes the fresh record
# to /tmp/BENCH_ci.json (CI uploads it), and fails if any
# microbenchmark's ns/op regressed >10% or its allocs/op rose at all
# against the newest committed BENCH_<N>.json — the highest N, compared
# as a number (BENCH_16 is newer than BENCH_8). CI runs this target, so
# the selection has one definition. Host-time measurements: outside the
# determinism contract.
BENCH_LATEST = $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -n 1)

bench-json:
	@case "$(N)" in ''|*[!0-9]*) echo "bench-json: usage: make bench-json N=<pr> (writes BENCH_<pr>.json)"; exit 1;; esac
	$(GO) run ./cmd/metaleak bench -baseline -out BENCH_$(N).json

bench-gate:
	@test -n "$(BENCH_LATEST)" || { echo "bench-gate: no committed BENCH_*.json to compare against"; exit 1; }
	$(GO) run ./cmd/metaleak bench -baseline -out /tmp/BENCH_ci.json -gate $(BENCH_LATEST)
