# Build/verify entry points. `make verify` is the CI gate: a clean
# build, gofmt/go vet hygiene, the full test suite, and the same suite
# under the race detector (the parallel Phase I/II paths must stay
# race-free). `make lint` runs darlint, the custom go/analysis suite in
# internal/lint that enforces the determinism & concurrency invariants
# (map-order leaks, wall-clock/rand/env in result paths, unsanctioned
# goroutines, atomic/plain access mixes) and the serving-era invariants
# (canonical-key field coverage, error-chain preservation, context
# flow, I/O under mutexes, WaitGroup discipline). `make lintbudget`
# audits the repo's `//lint:allow` suppressions against the committed
# lint_budget.json — both gate verify.
#
# darlint is built against golang.org/x/tools pinned at
# v0.28.1-0.20250131145412-98746475647e, vendored under vendor/ (the
# subset of x/tools that ships inside the Go toolchain's cmd/vendor
# tree), so everything here builds fully offline.

GO ?= go
BIN := bin

.PHONY: build test race fuzz fuzzsmoke querydiff perfbenchtest bench benchjson benchgate fmtcheck vet lint lintjson lintbudget darlint serversmoke storagesmoke clustersmoke crashsuite verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt must produce no diff outside vendor/.
fmtcheck:
	@out=$$(gofmt -l $$(find . -name '*.go' -not -path './vendor/*')); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

darlint:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/darlint ./cmd/darlint

# Run the determinism/concurrency analyzers over every package. The
# same binary also works standalone: ./bin/darlint ./...
lint: darlint
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/darlint ./...

# Machine-readable findings: a sorted JSON document (CI uploads it as
# an artifact). Exit 1 when any finding survives.
lintjson: darlint
	./$(BIN)/darlint -json -o darlint_findings.json ./...

# Audit `//lint:allow` suppressions against the committed budget.
# -exact fails on any drift, up or down: a new suppression needs a
# deliberate lint_budget.json edit in the same change, and a removed
# one must lower the budget with it.
lintbudget: darlint
	./$(BIN)/darlint -budget lint_budget.json -exact

# Short fuzz sessions for the ingestion paths; extend -fuzztime for a
# real campaign.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseRelation -fuzztime=30s ./cmd/darminer
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=30s ./internal/relation
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=30s ./internal/summary
	$(GO) test -run='^$$' -fuzz=FuzzPlanShards -fuzztime=30s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzRefine -fuzztime=30s ./internal/cftree

# A short .acfsum decoder fuzz under the race detector, cheap enough to
# gate every CI run: Decode must never panic on hostile bytes, and
# whatever it accepts must re-encode canonically. The shard-plan fuzz
# checks that darc's byte-range shards parse back to the body's rows;
# the refinement fuzz pins cftree.Refine to its full-rescan reference.
fuzzsmoke:
	$(GO) test -race -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/summary
	$(GO) test -race -run='^$$' -fuzz=FuzzQueryOptions -fuzztime=10s ./internal/core
	$(GO) test -race -run='^$$' -fuzz=FuzzPlanShards -fuzztime=10s ./internal/cluster
	$(GO) test -race -run='^$$' -fuzz=FuzzRefine -fuzztime=10s ./internal/cftree

# The query-mode differential suite under the race detector: fused
# engine output (measures, filters, sweeps, top-k, diffs) must equal
# the explicit helper composition over the base rule set, bit for bit,
# across worker counts, merged shards, incremental snapshots, the HTTP
# endpoints and both CLI paths.
querydiff:
	$(GO) test -race -run 'TestQueryModes|TestMeasure|TestConviction|TestDiffRules' ./internal/core
	$(GO) test -race -run 'TestQueryMode|TestServedDiff|TestModeCache|TestDiffCache|TestDiffMetrics' ./internal/server
	$(GO) test -race -run 'TestGoldenQuery|TestOldSummary|TestDiffCLI|TestRemoteDiff' ./cmd/darminer

# perfbench's own tests (a separate module): its output checks answer
# a sample of query_mix's documents through a live dard and compare
# them with the in-process reference, so they run against every change.
perfbenchtest:
	cd perfbench && $(GO) test -short ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# Perf-regression harness: the Figure 6 series, parallel Phase I, the
# multi-core scaling series (GOMAXPROCS 1/2/4/8), the ingest-substrate
# microbenchmarks and the dard server query path, emitted as one JSON
# document with a derived scaling section.
# One iteration per benchmark keeps it cheap enough for a CI smoke job;
# BENCHTIME=3x steadies the numbers for before/after comparisons.
BENCHTIME ?= 1x
BENCHOUT ?= BENCH_PR9.json
benchjson:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -o $(BENCHOUT)

# Regression gate: compare the fresh $(BENCHOUT) against the newest
# committed BENCH_PR*.json baseline (excluding $(BENCHOUT) itself).
# Fails on a >10% throughput regression or a scaling-efficiency
# collapse when the baseline came from matching hardware; downgrades to
# warnings when the CPU fingerprint differs, since numbers from
# different machines aren't commensurable.
benchgate:
	@base=$$(ls BENCH_PR*.json 2>/dev/null | grep -vx '$(BENCHOUT)' | sort -V | tail -1); \
	if [ -z "$$base" ]; then echo "benchgate: no committed baseline BENCH_PR*.json"; exit 1; fi; \
	if [ ! -f "$(BENCHOUT)" ]; then echo "benchgate: $(BENCHOUT) missing; run make benchjson first"; exit 1; fi; \
	echo "benchgate: comparing $$base -> $(BENCHOUT)"; \
	$(GO) run ./cmd/benchjson -compare "$$base" $(BENCHOUT)

# End-to-end smoke of the dard daemon: build both binaries, start the
# server on a loopback port, ingest the golden dataset over HTTP, query
# it remotely and diff against the local CLI pipeline. Includes the
# storage act below.
serversmoke: build
	./scripts/server_smoke.sh

# The storage act alone, over the real binaries: ingest into a
# WAL-backed segment store, kill -9 mid-ingest, tear the WAL tail,
# restart, and diff the served query against the local CLI pipeline;
# then snapshot over the admin endpoint and restore into fresh segment
# and flat stores, each diffed again.
storagesmoke: build
	SMOKE_STORAGE_ONLY=1 ./scripts/server_smoke.sh

# Cluster smoke over the real binaries: a darc coordinator sharding an
# ingest across two dard workers, one of which is kill -9'd so the
# dispatcher must mark it down and requeue mid-ingest; a second run
# against a healthy pool must yield a byte-identical merged artifact
# and query JSON (the cluster determinism contract, DESIGN.md §14).
clustersmoke: build
	./scripts/cluster_smoke.sh

# The in-process crash-injection suite under the race detector: torn
# WAL tails at tabulated byte offsets, crashes mid-compaction, debris
# cleanup, repeated die/recover cycles, and the snapshot/restore
# round-trips.
crashsuite:
	$(GO) test -race -run 'TestCrash|TestSnapshot|TestRestore|TestSegment|TestManifest|TestFlat' ./internal/storage ./internal/server

# race already runs the Ingest→Summary→Query differential tests (they
# live in the ordinary test suite), so verify gates Query(Ingest(r)) ≡
# Mine(r) under the race detector on every run, and storagesmoke gates
# the durability story over the real binaries.
verify: build fmtcheck vet lint lintbudget test race fuzzsmoke querydiff perfbenchtest storagesmoke
