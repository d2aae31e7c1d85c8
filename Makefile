GO ?= go

.PHONY: all build test race chaos verify verify-full e2e e2e-compare bench benchfull bench-json bench-diff allocscheck fuzz-smoke lint fmt vet fmtcheck docscheck clean

all: build test lint docscheck verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The packages with cross-goroutine surface: the sharded experiment
# harness, the simulator substrate it fans out over, the real-UDP
# runtime (whose loopback E2E runs 64 concurrent flows) and its session
# layer, the parallel model checker, and the compiled specs every
# engine on every shard shares (arq, ipv4, dsl.Load). One engine per
# goroutine is the contract; -race pins it, including through
# BenchmarkE11MultiFlow. expr, fsm and wire are here because -race
# also turns on checkptr, which checks every unsafe conversion of
# expr.Value's packed representation (DESIGN.md §3) on the paths that
# build and read it. -shuffle=on surfaces test-order dependencies
# while we're paying for the rerun. The two commands are here for their
# loopback tests: protoserve's shard goroutines bump the counters its
# stats printer and /metrics read, and protosim drives concurrent
# senders against an in-process server. CI's race job runs this target.
race:
	$(GO) test -race -shuffle=on ./internal/harness/ ./internal/netsim/ ./internal/arq/ ./internal/rtnet/ ./internal/session/ ./internal/verify/ ./internal/ipv4/ ./internal/dsl/ ./internal/expr/ ./internal/fsm/ ./internal/wire/ ./cmd/protoserve/ ./cmd/protosim/
	$(GO) test -run '^$$' -bench BenchmarkE11MultiFlow -benchtime 1x -race .

# Seeded chaos soak (DESIGN.md §13): 64 loopback flows under
# Gilbert-Elliott burst loss, a partition that heals, a jitter ramp and
# a mid-run server crash/restart, under the race detector. Asserts
# every graceful-degradation counter (drop_fault, rto_backoffs, sheds,
# panics_recovered, flows_expired) moved and that crash-straddling
# transfers terminate. Deterministic schedule, seed 42.
chaos:
	$(GO) test -race -run TestChaosSoak -count=1 -v ./internal/rtnet/

# Model-checking gate: exhaustively verify every machine spec in
# examples/specs/ (closed over its full stimulus domain) plus the
# built-in stop-and-wait / Go-Back-N / selective-repeat models against
# their expected verdicts — clean configurations must stay clean,
# seeded bugs must keep being found. `verify-full` adds the flagship
# 749k-state GBN configuration that the sequential checker cannot
# finish in comparable time; CI runs the full set. The whole `-full`
# run took 7.5-7.7s at one worker and 5.1-5.2s at two (3 runs each,
# 2-vCPU Intel Xeon shared with other load, go1.24.0; interleaved runs
# of the varint-encoded checker it replaced took 11.5-12.2s and
# 7.1-9.4s).
verify:
	$(GO) run ./cmd/protoverify

verify-full:
	$(GO) run ./cmd/protoverify -full

# The end-to-end benchmark (bench/, BENCHMARK.json): every workload,
# three untraced runs (seeds 1-3) and one traced run each, one child
# process per run, all records in .bench_build/e2e.json. Takes a few
# minutes. `make e2e-compare OLD=a.json NEW=b.json` applies
# BENCHMARK.json's regression bounds to two such files.
e2e:
	sh bench/run.sh -workload all -runs 3 -json .bench_build/e2e.json

e2e-compare:
	@if [ -z "$(OLD)" ] || [ -z "$(NEW)" ]; then \
		echo "usage: make e2e-compare OLD=old.json NEW=new.json"; exit 2; \
	fi
	sh bench/run.sh -compare $(OLD) $(NEW)

# Documentation references must resolve: every `DESIGN.md §N` citation
# in Go sources names a real section of DESIGN.md, every backticked
# repository path in a Markdown file names a real file or directory, and
# every backticked `pkg.Name` or `pkg.Type.Member` in DESIGN.md, README.md
# and docs/ whose pkg is an internal package (or protodsl) names an
# exported declaration, method or field that exists.
docscheck:
	$(GO) run ./internal/tools/docscheck

# One iteration per benchmark: a smoke pass that keeps every benchmark
# compiling and runnable without burning CI minutes. Use `make benchfull`
# for real numbers.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

benchfull:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# The tier-1 hot-path benchmark set, recorded as machine-readable JSON
# (BENCH_hotpath.json) so future PRs can diff the trajectory. CI uploads
# the file as an artifact on every run.
bench-json:
	$(GO) run ./cmd/benchjson -benchtime 2s -out BENCH_hotpath.json

# Regression guard: run the hot-path set fresh and fail on any >25%
# ns/op regression against the committed trajectory (or on a guarded
# benchmark going missing — renames must regenerate BENCH_hotpath.json).
# RTNetReusePort is recorded in the trajectory but not guarded: it is a
# shard-scaling diagnostic whose ns/op depends on host topology and
# scheduler contention (on a single-vCPU runner it swings tens of
# percent run to run), not a hot-path latency pin. benchdiff also
# downgrades the gate to advisory when the recorded CPU model differs
# from the runner's — though virtualised hosts reporting one generic
# CPU string can still alias distinct physical machines; if the gate
# flaps on identical-looking CPUs, regenerate the baseline on the
# runner class that enforces it.
bench-diff:
	$(GO) run ./cmd/benchjson -benchtime 2s -out .bench_fresh.json
	$(GO) run ./internal/tools/benchdiff -old BENCH_hotpath.json -new .bench_fresh.json -max-regress 25 \
		-match '^Benchmark(CompiledVsTreeWalk|AblationCodecPath|AblationInterpVsCodegen|AblationChecksums|RTNetLoopback|Sum8|Inet16|TimerChurn|AggregateInto|ObsCounterAdd|ObsHistObserve|ObsRingRecord|ObsGaugeSet|VerifyStates|SessionBeatTick|SessionGateData|SessionSnapshotAppend)'

# Allocation gate: the slot codec, the AOT-generated codec hot paths
# (AppendEncode / DecodeInto) and flat machine dispatch, the rtnet
# steady-state loops, the timing wheel's churn path, both substrates'
# in-place timer re-arm (netsim.Rearm on a Sim and an rtnet loop), the harness
# metrics merge, the obs write paths (counter add, histogram observe,
# ring-trace record) and the session steady state (heartbeat tick,
# established-peer data dispatch, snapshot append) must report
# 0 allocs/op. Regressions fail here, not in the narrative.
allocscheck:
	$(GO) run ./cmd/benchjson -bench 'AblationCodecPath/slot|AblationCodecPath/generated-append-encode|AblationCodecPath/generated-decode-into|AblationInterpVsCodegen/flat-machine|RTNetLoopback|TimerChurn/wheel|TimerRearm|AggregateInto|ObsCounterAdd|ObsHistObserve|ObsRingRecord|ObsGaugeSet|SessionBeatTick|SessionGateData|SessionSnapshotAppend' \
		-benchtime 30000x -require-zero 'slot|generated-append-encode|generated-decode-into|flat-machine|RTNetLoopback|TimerChurn/wheel|TimerRearm|AggregateInto|ObsCounterAdd|ObsHistObserve|ObsRingRecord|ObsGaugeSet|SessionBeatTick|SessionGateData|SessionSnapshotAppend' -out /dev/null

# Fuzz smoke: ~30s of native fuzzing per target against the committed
# hostile corpora (testdata/fuzz). Minimization is capped — on small
# runners the default 60s-per-input minimizer would eat the whole
# budget the moment anything interesting surfaces.
fuzz-smoke:
	$(GO) test ./internal/wire/ -run '^$$' -fuzz FuzzProgramDecode -fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/dsl/ -run '^$$' -fuzz FuzzParse -fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/verify/ -run '^$$' -fuzz FuzzStateCanon -fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/session/ -run '^$$' -fuzz FuzzSessionFrame -fuzztime 30s -fuzzminimizetime 10x
	$(GO) test ./internal/netsim/ -run '^$$' -fuzz FuzzEventOrder -fuzztime 30s -fuzzminimizetime 10x

lint: vet fmtcheck

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

fmtcheck:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

clean:
	$(GO) clean ./...
