# Tier-1 gate for the repository (see README "Development"): everything a
# change must pass before merging. `make check` is the one-shot entry.

GO ?= go
FUZZTIME ?= 30s

.PHONY: check fmt vet build test race bench bench-json fuzz-smoke ledger-diff stream-check fabric-check scenario-check perfbench-check cover vuln loc flake-hunt

check: fmt vet build test race bench fuzz-smoke ledger-diff stream-check fabric-check scenario-check perfbench-check cover vuln

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole tree under the race detector. This is the gate for
# the parallel execution engine: the determinism suites (faultsim worker
# pool, Eq. 3 row kernels, strategy racing) and the mid-race cancellation
# stress test (TestRaceStrategiesCancelStress) all live in ./... and fail
# here on any data race.
race:
	$(GO) test -race ./...

# bench is a smoke run (fixed iteration count) of the end-to-end pipeline
# benchmarks, including the nil-observer telemetry fast path; use
# `go test -bench=. -benchmem` for real measurements.
bench:
	$(GO) test -run NONE -bench 'Integrate(Pipeline|NilObserver|WithObserver)$$' -benchtime 50x .

# bench-json records the parallel-speedup curve — the worker-pool faultsim
# and the row-parallel Eq. 3 kernel at widths 1/2/4/8, plus the adversarial
# scenario search that shards its evaluations over the same pool — as
# `go test -json` events in BENCH_parallel.json, the artifact behind the
# README's Performance table. Results are bit-identical at every width;
# only the ns/op column moves with the core count of the runner.
bench-json:
	$(GO) test -run NONE -bench '((Campaign|Separation)Parallel|AdversarialSearch)$$' -benchtime 3x -json . > BENCH_parallel.json
	$(GO) test -run NONE -bench 'BusPublish$$' -benchmem -json ./internal/obs > BENCH_bus.json
	$(GO) test -run NONE -bench 'FabricCampaign$$' -benchtime 3x -json ./internal/fabric > BENCH_fabric.json
	$(GO) test -run NONE -bench 'FabricTelemetry' -benchtime 3x -json ./internal/fabric > BENCH_telemetry.json
	$(GO) test -run NONE -bench '(ScenarioGen|IntegrateGenerated)$$' -benchtime 3x -json . > BENCH_scenarios.json

# scenario-check is the corpus acceptance gate: every committed scenario
# in testdata/corpus is regenerated from its seed (spec drift fails),
# run through Integrate plus a short fault campaign at Workers 1 and 4,
# and its decision ledger compared byte-for-byte against the committed
# golden, with the measured metrics held inside the recorded envelopes;
# a deliberate one-weight perturbation must be caught as the negative
# control. Under -race every corpus entry doubles as a race probe over
# the sharded generator and pipeline. Regenerate goldens deliberately
# with `go run ./cmd/scenariocheck -update` and commit the diff.
scenario-check:
	$(GO) run -race ./cmd/scenariocheck

# perfbench-check vets and tests the repository benchmark, which lives in
# its own module (perfbench/, see its README) and so is outside ./... of
# every target above: its negative controls and a tiny smoke run.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# cover prints per-package statement coverage and enforces the floor on
# the scenario generator: internal/scengen below 85% fails the gate (it
# is the workload source every other suite leans on).
cover:
	@out="$$($(GO) test -count=1 -cover ./... )" || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep 'coverage:'; \
	pct="$$(echo "$$out" | awk '$$2 == "repro/internal/scengen" { for (i = 1; i <= NF; i++) if ($$i ~ /%$$/) print substr($$i, 1, length($$i)-1) }')"; \
	if [ -z "$$pct" ]; then echo "cover: no coverage reported for internal/scengen"; exit 1; fi; \
	awk -v p="$$pct" 'BEGIN { if (p+0 < 85) { printf "cover: internal/scengen %.1f%% is below the 85%% floor\n", p; exit 1 } printf "cover: internal/scengen %.1f%% (floor 85%%)\n", p }'

# fabric-check certifies the distributed campaign fabric: the merged
# result of a sharded campaign must be reflect.DeepEqual-identical to a
# local Workers=1 run with 1 and 4 workers, with a worker killed while
# holding a lease (reassignment observed), under a chaos transport that
# drops/duplicates/delays frames, across a coordinator drain +
# frontier-checkpoint resume, with a lying worker quarantined off its
# first corrupt chunk, with unauthenticated/wrong-token dialers rejected
# before any campaign material crosses the wire, with flagless workers
# self-configuring over mutual TLS on real sockets, and with the
# fabric-sharded adversarial search matching the local search. Runs
# under -race so every scenario is also a data-race probe over the
# coordinator loop and worker sessions.
fabric-check:
	$(GO) run -race ./cmd/fabriccheck

# stream-check is the observability gate: it replays the whole event
# fabric in-process (pipeline spans, a watched campaign, an adversarial
# search, a robustness certification), validates every streamed event
# against the committed wire schema (docs/streaming/events.schema.json),
# exercises replay-from-sequence-number, and asserts the /dashboard
# document references no external URLs. The zero-alloc nil-bus publish
# contract is pinned separately by TestNilBusPublishZeroAlloc (test) and
# BenchmarkBusPublish (bench-json, with -benchmem).
stream-check:
	$(GO) run ./cmd/streamcheck

# ledger-diff is the decision-provenance determinism gate: two paperrepro
# runs with identical flags must produce byte-identical decision ledgers,
# and ledgerdiff must report zero divergence (it exits 1 otherwise). Any
# nondeterminism smuggled into the pipeline — map iteration, time, an
# unseeded RNG — fails here before it can corrupt a reproduction.
ledger-diff:
	@tmp=$$(mktemp -d) && \
	$(GO) run ./cmd/paperrepro -only table1 -ledger $$tmp/a.jsonl >/dev/null 2>&1 && \
	$(GO) run ./cmd/paperrepro -only table1 -ledger $$tmp/b.jsonl >/dev/null 2>&1 && \
	$(GO) run ./cmd/ledgerdiff $$tmp/a.jsonl $$tmp/b.jsonl; \
	status=$$?; rm -rf $$tmp; exit $$status

# flake-hunt repeats the fabric tests that assert how many workers joined
# (Stats.WorkersSeen) 50 times each and prints the pass count. Those
# assertions once raced a fast first worker against the later handshakes;
# Config.MinWorkers now holds leases until every worker is in. Advisory
# and slow, so not part of check; record its pass rate when the fabric
# admission or lease code changes.
FLAKE_TESTS = ^(TestFabricMatchesLocal|TestFabricQuorumHoldsLeases|TestFabricOverTCP|TestFabricFlaglessWorkersSelfConfigure|TestFabricAuth|TestFabricOverTLS|TestFabricServeSearchMatchesLocal)$$
flake-hunt:
	@out="$$($(GO) test -count=50 -v -run '$(FLAKE_TESTS)' ./internal/fabric 2>&1)"; status=$$?; \
	echo "$$out" | grep -B3 -- '^--- FAIL' || true; \
	echo "flake-hunt: $$(echo "$$out" | grep -c -- '^--- PASS') passed, $$(echo "$$out" | grep -c -- '^--- FAIL') failed"; \
	exit $$status

# loc prints the non-test Go line count outside perfbench/, the code-size
# figure each change reports. Informational; not part of check.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './perfbench/*' | xargs cat | wc -l

# vuln scans the module with govulncheck when the tool is installed.
# Advisory, not blocking: findings are printed for review but do not fail
# the gate (the module is stdlib-only, so hits mean the Go toolchain
# itself needs updating), and a runner without the tool skips the scan.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "vuln: findings above are advisory; gate not failed"; \
	else \
		echo "vuln: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# fuzz-smoke gives each native fuzz target a short budget (FUZZTIME,
# default 30s) — enough to catch shallow regressions in the decoder and
# the resilience layer without turning the gate into a fuzzing session.
fuzz-smoke:
	$(GO) test -run NONE -fuzz 'FuzzDecodeSystem$$' -fuzztime $(FUZZTIME) ./internal/spec
	$(GO) test -run NONE -fuzz 'FuzzIntegrate$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run NONE -fuzz 'FuzzFaultModel$$' -fuzztime $(FUZZTIME) ./internal/faultsim
