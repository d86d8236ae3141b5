# Build, test, and benchmark entry points. `make check` is the tier-1
# gate; `make bench` regenerates BENCH_detector.json (the committed
# before/after numbers for the signal fast path) and `make bench-storage`
# regenerates BENCH_storage.json (the commit-pipeline numbers). CI calls
# the targets below rather than inlining commands, so the benchmark
# pattern and tool invocations live in exactly one place.

GO ?= go
BENCH_PATTERN ?= BenchmarkE1_|BenchmarkE4_|BenchmarkStorage_|BenchmarkRules_|BenchmarkGED_|BenchmarkQuery_|BenchmarkLockmgr_
BENCH_PKG ?= . ./internal/storage ./internal/ged ./internal/lockmgr
BENCH_OUT ?= BENCH_detector.json
BENCH_STORAGE_OUT ?= BENCH_storage.json
BENCH_GED_OUT ?= BENCH_ged.json
BENCH_QUERY_OUT ?= BENCH_query.json
BENCH_TIME ?= 1s
BENCH_COUNT ?= 1
BENCH_CPUS ?= 1,4,8
BENCH_THRESHOLD ?= 15

.PHONY: all build test check lint cover loc bench bench-build bench-text bench-smoke bench-record bench-compare bench-storage bench-rules bench-ged bench-query ged-smoke repl-smoke torture fuzz-smoke clean

all: build

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the full gate: vet plus the whole suite under the race
# detector (the concurrency stress tests only mean something with -race).
check:
	$(GO) vet ./...
	$(GO) test -race ./...

# torture runs the crash-torture harness: TORTURE_ITERS seeded kill-point
# iterations against the storage manager, each reopened and verified
# (committed present, aborted absent, interrupted commits all-or-nothing),
# then REPL_TORTURE_ITERS seeded leader/follower replication iterations
# (leader killed and restarted, leader killed and follower promoted,
# follower killed mid-apply — zero divergence and bounded replica lag
# required), then the query-layer torture (same kill-point discipline
# through the object + secondary-index stack, each recovery checked
# against the index≡scan oracle) and a -race pass of concurrent index
# readers vs committers, and 20 -race rounds of concurrent writer
# transactions through the facade (per-object locks, per-family rule
# scheduling). All three sweeps are one harness
# (internal/faulttest): each logs its base seed and a per-kill-point crash
# tally, and at 100+ iterations fails if a point it may arm never fired.
# Reproduce a failure with TORTURE_SEED=<base seed from the log>.
TORTURE_ITERS ?= 500
REPL_TORTURE_ITERS ?= 200
TORTURE_SEED ?=
torture:
	SENTINEL_TORTURE_ITERS=$(TORTURE_ITERS) SENTINEL_TORTURE_SEED=$(TORTURE_SEED) \
		$(GO) test -count=1 -run 'TestCrashTorture|TestTortureHarnessDetectsBrokenRecovery|TestMirrorDetectsDivergence|TestQueryTorture' -v ./internal/faulttest
	SENTINEL_REPL_TORTURE_ITERS=$(REPL_TORTURE_ITERS) SENTINEL_TORTURE_SEED=$(TORTURE_SEED) \
		$(GO) test -count=1 -run TestReplTorture -v ./internal/faulttest
	$(GO) test -count=1 -race -run TestQueryIndexRaceStress -v ./internal/faulttest
	$(GO) test -count=20 -race -run 'TestConcurrentWriters' .

# fuzz-smoke runs each native fuzz target briefly: long enough to replay
# the seed corpus and mutate past it, short enough for every CI run. A
# crasher lands in the package's testdata/fuzz/ — commit it with the fix.
# (go test -fuzz takes one target and one package per invocation.)
FUZZ_TIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzOpenTornTail$$' -fuzztime $(FUZZ_TIME) ./internal/seglog
	$(GO) test -run '^$$' -fuzz '^FuzzOccurrenceCodec$$' -fuzztime $(FUZZ_TIME) ./internal/event
	$(GO) test -run '^$$' -fuzz '^FuzzObjectRecord$$' -fuzztime $(FUZZ_TIME) ./internal/object
	$(GO) test -run '^$$' -fuzz '^FuzzKeyOrder$$' -fuzztime $(FUZZ_TIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzReferencedDecode$$' -fuzztime $(FUZZ_TIME) ./internal/query
	$(GO) test -run '^$$' -fuzz '^FuzzSnoopParse$$' -fuzztime $(FUZZ_TIME) ./internal/snoop

# bench-build compiles and tests the end-to-end benchmark. bench/ is its
# own module (BENCHMARK.json's contract), so `go build ./... && go test
# ./...` at the root never sees it: this target is what notices an
# internal/* API or metric-name change that breaks `bash bench/run.sh`.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# lint runs the static analyzers beyond vet. The tools are not vendored;
# CI installs them (see .github/workflows/ci.yml) and locally the target
# skips whichever is missing rather than failing the build. The gob guard
# keeps encoding/gob out of non-test code: values have two encodings (the
# tagged codec in internal/event, the ordered keys in internal/query) and
# a third must not come back unnoticed.
lint:
	$(GO) vet ./...
	@if grep -rn --include='*.go' --exclude='*_test.go' --exclude-dir=out '"encoding/gob"' . ; then \
		echo "lint: encoding/gob imported by non-test code (see above)"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

# cover runs the suite with a coverage profile (CI uploads it as an
# artifact).
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# loc prints the size the north star counts — non-test Go lines outside
# bench/, per package directory and in total (27 294 at PR 15) — so "net
# negative" is read off CI's job summary instead of claimed.
loc:
	@git ls-files --cached --others --exclude-standard '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; if (!sub(/\/[^\/]*$$/, "", d)) d = "."; n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

# bench-text is the one place the benchmark invocation is defined; every
# other bench target (and CI) parameterizes it instead of repeating the
# pattern.
bench-text:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem -cpu $(BENCH_CPUS) $(BENCH_PKG)

# bench-smoke proves the benchmarks still execute (CI); its numbers are
# not measurements.
bench-smoke:
	$(MAKE) bench-text BENCH_TIME=100x BENCH_CPUS=1,4

# bench reruns the detector signal-path benchmarks and the two per-firing
# bookkeeping benchmarks (the empty transaction bracket against a base of
# deferred rules, a lock-less subtransaction commit against a full lock
# table) and records them under the "after" label of $(BENCH_OUT),
# preserving the committed "before" numbers. Run with BENCH_LABEL=before
# on a clean baseline to regenerate both sides.
BENCH_LABEL ?= after
bench:
	$(MAKE) bench-text BENCH_PATTERN='BenchmarkE1_|BenchmarkE4_|BenchmarkRules_TxnBracket|BenchmarkLockmgr_' BENCH_PKG='. ./internal/lockmgr' \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_OUT) -merge

# bench-storage reruns the storage commit-pipeline benchmarks (group
# commit, lock-striped pool, txn sharding; -cpu sweeps the writer count)
# and records them under the "after" label of $(BENCH_STORAGE_OUT).
bench-storage:
	$(MAKE) bench-text BENCH_PATTERN='BenchmarkStorage_' BENCH_PKG=./internal/storage \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_STORAGE_OUT) -merge

# bench-rules reruns the rule-scale benchmarks (loading a whole
# specification, loading it a rule at a time under live traffic, signal
# cost against a resident rule base) at
# the full 1k/10k/100k sweep and records them under the
# "rules-$(BENCH_LABEL)" label of $(BENCH_OUT). One iteration per size:
# each op loads the whole rule base, so -benchtime 1x is already a
# multi-second measurement at 100k.
BENCH_RULES_COUNTS ?= 1000,10000,100000
bench-rules:
	( SENTINEL_BENCH_RULES=$(BENCH_RULES_COUNTS) \
		$(MAKE) bench-text BENCH_PATTERN='BenchmarkRules_(Bulk|Live)Load' BENCH_PKG=. BENCH_TIME=1x BENCH_CPUS=1 && \
	  SENTINEL_BENCH_RULES=$(BENCH_RULES_COUNTS) \
		$(MAKE) bench-text BENCH_PATTERN='BenchmarkRules_SignalWithRuleBase' BENCH_PKG=. BENCH_TIME=2s BENCH_CPUS=1 ) \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -label rules-$(BENCH_LABEL) -out $(BENCH_OUT) -merge

# bench-ged reruns the GED event-bus benchmarks (pipelined contribute
# throughput with the durable log, 8-way live notify fan-out latency,
# stream replay catch-up) and records them under the "after" label of
# $(BENCH_GED_OUT).
bench-ged:
	$(MAKE) bench-text BENCH_PATTERN='BenchmarkGED_' BENCH_PKG=./internal/ged BENCH_CPUS=1 \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_GED_OUT) -merge

# ged-smoke is the end-to-end event-bus gate: build gedserver and beast
# (race detector on), run a gedserver with a durable log, drive it with
# beast's multi-client load mode (contribute/subscribe/replay under
# injected disconnects), and require zero dropped acks plus a clean
# server shutdown. Scale down locally with GED_SMOKE_CONNS.
GED_SMOKE_CONNS ?= 1000
ged-smoke:
	GED_SMOKE_CONNS=$(GED_SMOKE_CONNS) ./scripts/ged_smoke.sh

# repl-smoke is the end-to-end replication failover gate: build replserver
# with the race detector, run a leader and a follower, kill -9 the leader
# mid-load, promote the follower with SIGUSR1, and require the promoted
# store to hold an exact prefix of the leader's committed history plus a
# successful post-promotion write (scripts/repl_smoke.sh).
repl-smoke:
	./scripts/repl_smoke.sh

# bench-query reruns the query-engine benchmarks — indexed probes and
# range scans versus full extent scans at 1k/10k/100k objects, and
# indexed Where rule conditions versus function-condition extent walks —
# and records them under the "after" label of $(BENCH_QUERY_OUT). The
# 100k scan leg costs seconds per op, so one timed second per
# sub-benchmark is already a stable sample.
BENCH_QUERY_SIZES ?= 1000,10000,100000
bench-query:
	SENTINEL_BENCH_QUERY=$(BENCH_QUERY_SIZES) \
		$(MAKE) bench-text BENCH_PATTERN='BenchmarkQuery_|BenchmarkRules_IndexedCondition' BENCH_PKG=. BENCH_CPUS=1 \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_QUERY_OUT) -merge

# bench-record captures one labelled run into BENCH_REC_OUT (the CI
# before/after halves of the regression gate).
BENCH_REC_OUT ?= bench-run.json
bench-record:
	$(MAKE) bench-text BENCH_CPUS=1,4 \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -out $(BENCH_REC_OUT)

# bench-compare gates BASE vs HEAD benchjson documents: fails when the
# ns/op geomean regresses more than BENCH_THRESHOLD percent.
bench-compare:
	$(GO) run ./cmd/benchjson -compare -base $(BASE) -head $(HEAD) -threshold $(BENCH_THRESHOLD)

clean:
	$(GO) clean ./...
	rm -f coverage.out
