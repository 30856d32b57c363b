GO ?= go

.PHONY: build test short static check race chaos bench bench-smoke bench-selftest bench-pairs ci lint loc

build:
	$(GO) build ./...

# Tier-1: what CI gates on.
test: build
	$(GO) test ./...

# Fast loop: skips the tier-2 chaos sweeps and benchmark regression
# (testing.Short guards).
short:
	$(GO) test -short ./...

# Determinism & concurrency lint (see docs/LINT.md): five rules over one
# static call graph — order-dependent map iteration, library hygiene,
# wall-clock and shared-rand taint (dettaint), the leaf-lock rule
# (lockorder: every mutex released in the block that locks it, with no
# return leaking it and no call under it reaching another lock) and
# dropped commit errors (commiterr). Runs after vet — vet catches
# what the compiler misses, lint catches what vet can't know (the repo's
# own sim-clock/seeded-rand contracts). -trace prints the call chain
# behind each finding that has one.
lint:
	$(GO) run ./cmd/minilint -trace ./internal/... ./cmd/... ./examples/...

# The static gate `check` and `ci` share: gofmt (every tracked Go file
# outside testdata/, whose lint fixtures pin their own line numbers), vet,
# then the repo lint suite. All three fail in seconds.
static:
	@unformatted=$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/)); \
		test -z "$$unformatted" || { echo "gofmt -l (run gofmt -w):"; echo "$$unformatted"; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/minilint ./internal/... ./cmd/... ./examples/...

# Full verification: the static gate, then the entire test suite under the
# race detector (includes the obs registry, whose counters are read
# concurrently by the web UI while hot paths write them). Gate order is
# cheapest-first: the static gate fails in seconds, -race takes minutes.
check: static
	$(GO) test -race ./...

# Just the concurrency-sensitive surface, race-checked. internal/sim is
# single-threaded by contract but included so the detector verifies the
# engine's free-list never leaks events across goroutines in tests.
# Map user code runs on real goroutines in two places: internal/serial,
# through mapreduce.RunMapTasks (each worker on its own
# mapreduce.MapScratch), whose internal/jobs tests drive it at
# Parallelism 3 and 4, and the JobTracker in internal/mrcluster, which
# runs map and reduce user code ahead of each task's launch (each worker
# on a scratch off the JobTracker's free list); internal/serial's reduce
# loop is sequential.
# internal/webui's handlers run on httptest server goroutines.
# internal/vfs's MemFS is what those workers read concurrently.
race:
	$(GO) test -race ./internal/sim/... ./internal/obs/... ./internal/trace/... ./internal/faultinject/... ./internal/hdfs/... ./internal/mrcluster/... ./internal/iofmt/... ./internal/history/... ./internal/yarn/... ./internal/kvstore/... ./internal/regionserver/... ./internal/mapreduce/... ./internal/serial/... ./internal/jobs/... ./internal/webui/... ./internal/vfs/...

chaos: race

# Full benchmark pass, then regenerate the one committed headline-metrics
# artifact (experiments.HeadlineArtifact, benchreport's default -out) the
# tier-2 regression test (TestBenchRegression) diffs against.
bench:
	$(GO) test -bench=. -benchmem -run=^$$ .
	$(GO) run ./cmd/benchreport

# One-iteration benchmark smoke pass — proves every experiment, and every
# package benchmark under internal/ and cmd/ (minilint's whole-repo
# BenchmarkLintRepo included), still runs without paying for
# steady-state timing.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ .
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/... ./cmd/...

# The wall-clock benchmark (bench/, see BENCHMARK.json) is its own module
# with `replace repro => ../`, so root `go build ./...` and `go test ./...`
# never compile it. This vets and self-tests it against the current tree —
# the gate that catches an exported-API deletion the benchmark depended on.
bench-selftest:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Alternating pairs of one wall-clock benchmark workload, a git archive of
# BASE against the working tree, summarised per end-to-end metric
# (scripts/bench-pairs.sh; PAIRS and SEED default there):
#   make bench-pairs BASE=<rev> WORKLOAD=<name> [PAIRS=10] [SEED=1234]
bench-pairs:
	PAIRS="$(PAIRS)" SEED="$(SEED)" bash scripts/bench-pairs.sh "$(BASE)" "$(WORKLOAD)"

# The line budget (scripts/loc.sh): non-test Go lines outside bench/ and
# testdata, per directory and in total; fails above the budget.
loc:
	bash scripts/loc.sh

# The gate a PR must pass end to end: build, the static gate, the line
# budget, tier-1 tests
# (which include the goldens, replay digests and E12/E13 smokes), the
# race-checked subset (`make race`), the pooled-task referee — maps and
# reduces run ahead, failed-over and failed reads, speculative maps, two
# jobs at once — the count of tasks that ran inline, and the check that
# an ended job leaves no worker, run or map output behind, race-checked
# at one and at four procs (so both the inline and the worker-pool path
# run under the detector whatever the box's core count), five seconds of each fuzz target
# (the event-queue and ranged-read ones without corpus minimisation: each
# input runs two engines through a script, or builds a cluster and reads
# it range by range, and minimising the first interesting one would
# otherwise eat the five seconds), a benchmark smoke run, and —
# last, so that an exported-API deletion the frozen bench/ module depends
# on still fails the gate — the nested bench module's self-test. The
# static gate comes before tests so a determinism violation fails the
# build even when no test happens to exercise it.
ci: build static loc
	$(GO) test ./...
	$(MAKE) race
	$(GO) test -race -cpu 1,4 -run 'TestPooledMapsMatchInline|TestTasksRunInlineOnlyWhenTheyMust|TestFinishedJobReleasesMapOutputs' ./internal/mrcluster/
	$(GO) test -run '^$$' -fuzz FuzzSeqSplit -fuzztime 5s ./internal/iofmt/
	$(GO) test -run '^$$' -fuzz FuzzSeqReadCorrupt -fuzztime 5s ./internal/iofmt/
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 5s ./internal/iofmt/
	$(GO) test -run '^$$' -fuzz FuzzTraceAnalyze -fuzztime 5s ./internal/trace/
	$(GO) test -run '^$$' -fuzz FuzzEventQueueMatchesOracle -fuzztime 5s -fuzzminimizetime 1x ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzRecord -fuzztime 5s ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz FuzzCompactMatchesMapMerge -fuzztime 5s ./internal/kvstore/
	$(GO) test -run '^$$' -fuzz FuzzEventLog -fuzztime 5s ./internal/history/
	$(GO) test -run '^$$' -fuzz FuzzEditLog -fuzztime 5s ./internal/hdfs/
	$(GO) test -run '^$$' -fuzz FuzzReadRange -fuzztime 5s -fuzzminimizetime 1x ./internal/hdfs/
	$(GO) test -run '^$$' -fuzz FuzzRecordsInRange -fuzztime 5s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz FuzzReduceGroups -fuzztime 5s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz FuzzCombineGroups -fuzztime 5s ./internal/mapreduce/
	$(GO) test -run '^$$' -fuzz FuzzCleanMatchesSlow -fuzztime 5s ./internal/vfs/
	$(MAKE) bench-smoke
	$(MAKE) bench-selftest
