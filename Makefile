# Build, test, and benchmark entry points.

GO ?= go

.PHONY: all build test race bench bench-smoke bench-e2e bench-e2e-test fuzz-smoke profile-smoke spill-smoke loc fmt vet

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/hyracks ./internal/frame ./internal/cluster ./internal/jsonparse ./internal/index

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# bench runs the kernel microbenchmarks (scan skew, parse kernel, binary tuple
# kernel, parallel index builder) with allocation reporting; add
# VXQ_SCAN_FULL=1 for the scan acceptance scale (1x64 MiB + 31x2 MiB). These
# are for looking at a kernel: any number a PR claims comes from the
# end-to-end benchmark — `make bench-e2e W=<workload>`.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/bench
	@echo "end-to-end numbers and per-layer metrics: make bench-e2e W=<workload>"

# spill-smoke is the CI guard for the out-of-core layer: the bigger-than-
# budget differential tests (group-by/join/sort spilled vs in-memory,
# byte-identical, temp-file hygiene, accountant balance).
spill-smoke:
	$(GO) test -run 'TestSpill' -v ./internal/hyracks
	$(GO) test ./internal/spill

# bench-e2e-test guards the end-to-end benchmark, which is its own Go module
# (benchmark/, `replace vxq => ../`) that the root `go test ./...` does not
# see: an engine API change that breaks it is caught here, not by the bench
# pipeline. Its tests run all six BENCHMARK.json workloads at `-scale tiny`
# against the independent oracle.
bench-e2e-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# bench-e2e runs one BENCHMARK.json workload the way the driver does (builds
# into .bench_build/, which is git-ignored): `make bench-e2e W=q2_join`.
W ?= q1_groupby
bench-e2e:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 15 --trace 1

# loc prints non-test Go lines per package and in total, excluding the
# benchmark module and its build directory — the count simplification work
# is held to.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

# bench-smoke is the CI guard: every benchmark must still run (one
# iteration), catching bit-rot in the harness without burning CI minutes.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# profile-smoke is the CI guard for the observability layer: the smoke test
# profiles Q0-Q2 under both schedulers and validates the trace span schema,
# then the CLI leg generates a small collection and runs Q1 with
# -profile -trace end to end, checking a trace file comes out.
profile-smoke:
	$(GO) test -run TestProfileSmoke -v ./internal/bench
	rm -rf /tmp/vxq-profile-smoke && mkdir -p /tmp/vxq-profile-smoke
	$(GO) run ./cmd/gendata -out /tmp/vxq-profile-smoke/sensors -files 4 -records 24 -split
	$(GO) run ./cmd/vxq -mount /sensors=/tmp/vxq-profile-smoke/sensors -partitions 2 \
		-profile -trace /tmp/vxq-profile-smoke/trace.json \
		'for $$r in collection("/sensors")("root")()("results")() where $$r("dataType") eq "TMIN" group by $$date := $$r("date") return count($$r("station"))' \
		>/dev/null
	test -s /tmp/vxq-profile-smoke/trace.json

# fuzz-smoke runs the structural-kernel fuzzers briefly: the skip differential
# (structural-index skip vs the token-level reference, cross-checked against
# encoding/json), the record-boundary scanner against
# its scalar reference over the chunk-size sweep, and the speculative parallel
# indexer against the sequential builder across worker/chunk/grain sweeps.
# Seeds under testdata/fuzz are always replayed.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzRawSkipDifferential -fuzztime=10s ./internal/jsonparse
	$(GO) test -run='^$$' -fuzz=FuzzBoundaryScanner -fuzztime=10s ./internal/jsonparse
	$(GO) test -run='^$$' -fuzz=FuzzSpeculativeIndex -fuzztime=10s ./internal/jsonparse
