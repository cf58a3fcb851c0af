# Build/verify entry points. `make verify` is the CI gate: a clean
# build, gofmt/go vet hygiene, the full test suite, and the same suite
# under the race detector (the parallel Phase I/II paths must stay
# race-free), with the Phase I lane differential also raced at several
# GOMAXPROCS values (`make lanediff`). `make lint` runs darlint, the custom go/analysis suite in
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

.PHONY: build test race lanediff fuzz fuzzsmoke querydiff perfbenchtest perfsmoke bench fmtcheck vet lint lintjson lintbudget darlint serversmoke storagesmoke clustersmoke crashsuite verify

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

# The Phase I lane differential under the race detector at GOMAXPROCS
# 1, 2 and 4: the calling goroutine inserts its own stripe of trees
# while the lanes it spawned insert theirs, and summary bytes at every
# Workers count must equal the one-lane scan's. The steps before Phase
# I fan out too and are raced the same way: the threshold advisor must
# give bit-identical thresholds (and the same overflow error) at every
# Workers count and over its sampled rows alone, and the chunked CSV
# scan the one-chunk scan's values, record ends and dictionary codes at
# 1 to 8 chunks. race alone checks only the runner's own core count.
lanediff:
	$(GO) test -race -cpu 1,2,4 -run 'TestLanesMatchSerial|TestLaneGoroutines|TestParallelPhaseIMatchesSerial|TestPipelineSteadyStateAllocs|TestStripeAssignment|TestSuggestThresholdsWorkersMatchSerial' ./internal/core
	$(GO) test -race -cpu 1,2,4 -run 'TestParseCSVChunksMatchSerial' ./internal/relation

# Short fuzz sessions for the ingestion paths; extend -fuzztime for a
# real campaign.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseRelation -fuzztime=30s ./cmd/darminer
	$(GO) test -run='^$$' -fuzz=FuzzReadCSV -fuzztime=30s ./internal/relation
	$(GO) test -run='^$$' -fuzz=FuzzParseCSV -fuzztime=30s ./internal/relation
	$(GO) test -run='^$$' -fuzz=FuzzDecode -fuzztime=30s ./internal/summary
	$(GO) test -run='^$$' -fuzz=FuzzPlanShards -fuzztime=30s ./internal/cluster
	$(GO) test -run='^$$' -fuzz=FuzzRefine -fuzztime=30s ./internal/cftree
	$(GO) test -run='^$$' -fuzz=FuzzInsertFlatBatch -fuzztime=30s ./internal/cftree
	$(GO) test -run='^$$' -fuzz=FuzzWriteJSON -fuzztime=30s ./internal/core

# A short .acfsum decoder fuzz under the race detector, cheap enough to
# gate every CI run: Decode must never panic on hostile bytes, and
# whatever it accepts must re-encode canonically. The shard-plan fuzz
# checks that darc's byte-range shards parse back to the body's rows,
# that on a body ParseCSV accepts darc's sampled plan (SampleCSV) has
# ParseCSV's record ends and the advisor's rows of its relation, and
# that a body ParseCSV rejects is rejected by the sampled plan or by the
# parse of one of its shards, so validation left to the workers never
# vanishes; the refinement fuzz pins cftree.Refine to its full-rescan
# reference; the insert fuzz pins the batched insert kernel (InsertFlatBatch) to its
# per-tuple reference over random shapes, budgets and chunkings; the CSV
# fuzz pins ParseCSV's byte scanner to the encoding/csv loop; the render
# fuzz pins WriteJSON's hand-written writer and the description
# formatter to encoding/json and fmt over hostile names, values and
# floats.
fuzzsmoke:
	$(GO) test -race -run='^$$' -fuzz=FuzzDecode -fuzztime=10s ./internal/summary
	$(GO) test -race -run='^$$' -fuzz=FuzzQueryOptions -fuzztime=10s ./internal/core
	$(GO) test -race -run='^$$' -fuzz=FuzzPlanShards -fuzztime=10s ./internal/cluster
	$(GO) test -race -run='^$$' -fuzz=FuzzRefine -fuzztime=10s ./internal/cftree
	$(GO) test -race -run='^$$' -fuzz=FuzzInsertFlatBatch -fuzztime=10s ./internal/cftree
	$(GO) test -race -run='^$$' -fuzz=FuzzParseCSV -fuzztime=10s ./internal/relation
	$(GO) test -race -run='^$$' -fuzz=FuzzWriteJSON -fuzztime=10s ./internal/core

# The entry-point and query-mode differential suites under the race
# detector. Entry points: Mine with PostScan off must equal
# QuerySummary(Ingest(r)) in clusters, rules and Phase I counts, on
# interval and nominal data, in the library and at the CLI; incremental
# snapshots must agree on nominal data; and with PostScan on, nominal
# degrees must match a brute-force recount under the post-scan's
# membership. Query modes: fused engine output (measures, filters,
# sweeps, top-k, diffs) must equal the explicit helper composition over
# the base rule set, bit for bit, across worker counts, merged shards,
# incremental snapshots, the HTTP endpoints and both CLI paths; answers
# served over a memoized base must equal a fresh QuerySummary, also
# while a writer re-ingests. Rendering: WriteJSON and the description
# formatter must equal their encoding/json and fmt references, byte for
# byte, on every mode's answer over the salary, kitchen-sink and WBCD
# data.
querydiff:
	$(GO) test -race -run 'TestQueryIngestMatchesMine|TestQueryNominal|TestIncrementalNominal|TestPostScanNominalDegreesAreExact|TestQueryModes|TestMeasure|TestConviction|TestDiffRules|TestWriteJSONMatchesReference' ./internal/core
	$(GO) test -race -run 'TestQueryMode|TestServedDiff|TestModeCache|TestDiffCache|TestDiffMetrics|TestMemo|TestOptionBodies' ./internal/server
	$(GO) test -race -run 'TestIngestQueryMatchesMine|TestGoldenQuery|TestOldSummary|TestDiffCLI|TestRemoteDiff' ./cmd/darminer

# perfbench's own tests (a separate module): its output checks answer
# a sample of query_mix's documents through a live dard and compare
# them with the in-process reference, so they run against every change.
perfbenchtest:
	cd perfbench && $(GO) test -short ./...

# The perf harness's full suite: also builds dard and darc, runs every
# workload briefly against them and fails on any answer that differs
# from the in-process reference. Timed runs go through perfbench/run.sh
# (see BENCHMARK.json); this target checks that the harness still works.
perfsmoke:
	cd perfbench && $(GO) test ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

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
verify: build fmtcheck vet lint lintbudget test race lanediff fuzzsmoke querydiff perfbenchtest storagesmoke
