GO ?= go

.PHONY: all build test race vet bench bench-json bench-gate clean test-faults test-resume test-fabric test-netchaos test-thermal test-batch fuzz-qp check

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep engine's concurrency guarantees run under the race detector;
# everything else gets the plain run (race-instrumenting the full MPC
# suite takes too long for a default target).
race:
	$(GO) test -race ./internal/runner/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# Machine-readable benchmark snapshot: the sweep-engine scaling benches,
# the co-simulation hot-path benches, and the fabric's /complete codec
# (one 8-record unit encoded, checksummed, decoded and verified), parsed
# into BENCH_sweep.json so regressions diff across commits. The
# telemetry pair (RunOnOff vs RunOnOffTelemetry) bounds the
# observability overhead. Each snapshot records this command. The second
# snapshot, BENCH_solver.json, covers the MPC solve path — the cold/warm
# pairs (QPInteriorPoint vs ...Warm, LUSolve120 vs LUSolveInto120) bound
# the workspace-reuse win, and the -benchmem allocs/op column pins the
# allocation-free hot path.
bench-json:
	{ $(GO) test -run '^$$' -bench 'Sweep16|SweepScalar|SweepBatch|CoSimOnOff' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'Forecast|RunOnOff' -benchmem ./internal/sim ; \
	  $(GO) test -run '^$$' -bench 'CompleteCodec' -benchmem ./internal/fabric ; } \
	| $(GO) run ./cmd/benchjson -o BENCH_sweep.json
	$(GO) test -run '^$$' -bench 'MPCSolveStep|QPInteriorPoint|QPStructured|SQPSolveWarm|LUSolve' -benchmem . \
	| $(GO) run ./cmd/benchjson -o BENCH_solver.json

# Solver-path regression gate: rerun the solver benches and fail (exit 1)
# when the ns/op of BenchmarkMPCSolveStep or its co-scheduling
# counterpart BenchmarkMPCSolveStepThermal regresses more than 15 %
# against the committed BENCH_solver.json — the backstop that keeps the
# structured backend's ≥10× win from eroding silently at either decision
# stride. On pass, the snapshot is rewritten in place so
# `git diff BENCH_solver.json` shows the drift. The 3 s benchtime
# matches how the committed snapshot was produced; short runs are too
# noisy to gate at 15 % on shared CI hardware.
#
# The second gate reruns the sweep benches and fails when the batched
# sweep throughput bench (BenchmarkSweepBatch, the fix for the
# non-scaling parallel sweep) regresses more than 35 % in ns/op — wider
# than the solver tolerance because whole-sweep wall-clock on shared
# runners swings far more than a single solve step. This gate only reads
# BENCH_sweep.json: the ledger also holds the sim and /complete codec
# benches, which it does not rerun, so `make bench-json` stays the one
# recipe that rewrites it.
bench-gate:
	$(GO) test -run '^$$' -bench 'MPCSolveStep|QPInteriorPoint|QPStructured|SQPSolveWarm|LUSolve' -benchmem -benchtime 3s . \
	| $(GO) run ./cmd/benchjson -gate BENCH_solver.json \
	  -gate-bench 'BenchmarkMPCSolveStep,BenchmarkMPCSolveStepThermal' -o BENCH_solver.json
	$(GO) test -run '^$$' -bench 'Sweep16|SweepScalar|SweepBatch|CoSimOnOff' -benchmem -benchtime 3s . \
	| $(GO) run ./cmd/benchjson -gate BENCH_sweep.json \
	  -gate-bench 'BenchmarkSweepBatch' -gate-tol 0.35 > /dev/null

# Fault-injection and observability conformance under the race detector:
# the injector and supervisor unit tests, the telemetry registry/trace
# suite, the fault-axis and telemetry worker-count determinism proofs,
# the golden manifest, and the closed-loop safety property / ladder
# golden. The long fault-conformance sweep (TestFaultConformance) is
# excluded via -short where it self-skips.
test-faults:
	$(GO) test -race ./internal/faults/... ./internal/control/... ./internal/sqp/... ./internal/telemetry/...
	$(GO) test -race -short -run 'Fault|Telemetry|GoldenManifest' ./internal/runner/...
	$(GO) test -race -run 'TestSupervised' ./internal/sim/...

# Crash-safety suite under the race detector: journal WAL round-trip,
# torn-tail tolerance, the SIGKILL kill-and-resume byte-identity proof,
# watchdog/retry/escalation, mid-job checkpoint resume, the same
# durability on batched units (every mode against one lane per unit, a
# batch interrupted and resumed, per-lane reruns of a failed batch), the
# sim-level checkpoint bit-exactness property, and the evbench exit-code
# contract —
# plus short fuzz smokes of the journal parser (the file a crashed
# process leaves behind is untrusted input) and of the coordinator's
# /complete decoder (so is a payload off the network).
test-resume:
	$(GO) test -race -run 'Journal|Watchdog|Retry|Backoff|Checkpoint|Escalation|Kill|Batch' ./internal/runner/...
	$(GO) test -run 'Checkpoint|Restore' ./internal/sim/...
	$(GO) test ./cmd/evbench/...
	$(GO) test -fuzz=FuzzParseJournal -fuzztime=10s ./internal/runner/
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeComplete$$' -fuzztime=10s ./internal/fabric/

# Distributed-fabric suite under the race detector: the sharding /
# lease / quarantine unit tests, the topology byte-identity proof
# (1 and 3 workers vs single-process), the chaos test (subprocess
# workers, SIGKILL one mid-run, restart the coordinator from its
# journal), and the evbench -serve/-join CLI round trip.
test-fabric:
	$(GO) test -race ./internal/fabric/...
	$(GO) test -run 'ServeJoin' ./cmd/evbench/

# Network-chaos suite under the race detector: the seeded fault
# transport/proxy unit tests, the transport-hardening regressions (body
# caps, payload checksums, idempotent completion, flap breaker, the
# per-call deadline that unsticks black-holed workers), the spill-store
# bounded-memory proof, and the chaos matrix — every seeded fault
# schedule must stitch byte-identical artifacts to a single-process
# run. The explicit -timeout leaves headroom over the injected delays
# and black-hole windows on slow shared runners.
test-netchaos:
	$(GO) test -race -timeout 10m ./internal/netchaos/...
	$(GO) test -race -timeout 10m -run 'NetChaos|Complete|FlapBreaker|CallDeadline|SpillStore|MemStore|DuplicateCompletion' ./internal/fabric/

# Cold-climate thermal suite: the battery thermal network and heat-pump
# unit tests, depot preconditioning, the calendar/cycle-stress aging
# model, the co-scheduling MPC extension (structured-vs-dense
# equivalence on the enlarged stage problem), and the sim-level thermal
# integration — end-to-end cold runs, checkpoint bit-exactness with
# thermal state, the bitwise trajectory golden, and the thermal batch
# lanes: mixed thermal/cabin-only batches and their telemetry against
# recorded digests, recorded thermal checkpoints resuming bit-exactly,
# and the pack-coupled RHS against the ode.Integrate oracle.
test-thermal:
	$(GO) test ./internal/thermal/... ./internal/charging/...
	$(GO) test -run 'Thermal|Calendar|CycleStress' ./internal/battery/... ./internal/core/...
	$(GO) test -run 'Thermal|PinnedDigests|RecordedCheckpoints|IntegrateLanesMatches' ./internal/sim/...
	$(GO) test -run 'Cold' ./internal/experiments/...

# Coverage-guided fuzzing of the QP interior-point solver: the dense
# 2-variable front door (FuzzSolve) and the stage-structured KKT backend
# (FuzzStageKKT — ill-conditioned, non-SPD, degenerate, and
# band-violating stage QPs; go test fuzzes one target per invocation, so
# the two run back to back).
fuzz-qp:
	$(GO) test -fuzz='^FuzzSolve$$' -fuzztime=1m ./internal/qp/
	$(GO) test -fuzz='^FuzzStageKKT$$' -fuzztime=1m ./internal/qp/

# Batched-execution suite: the batched-controller unit tests, the fused
# SoA integrator against the ode.Integrate/RK4 oracle, the sim-level
# lane-of-1 vs lane-of-N bit-equivalence properties against digests
# recorded from the pre-batch scalar step loop (controllers × cycles ×
# batch sizes, thermal and mixed lanes, fault injection, telemetry,
# checkpoint/resume on batch boundaries and from recorded checkpoints),
# and the pool's batch planning / sweep-equivalence tests and its
# batched durability tests (per-lane journal, records, checkpoints,
# retry, watchdog and cache) under the race detector.
test-batch:
	$(GO) test -run 'Batch' ./internal/control/...
	$(GO) test -run 'Batch|IntegrateLanes|PinnedDigests|RecordedCheckpoints' ./internal/sim/...
	$(GO) test -race -run 'Batch|PlanUnits' ./internal/runner/...

# Pre-merge gate: full build + vet + tests, fault, crash-safety,
# distributed-fabric, network-chaos, cold-climate thermal, and
# batched-execution suites, and short fuzz smokes of the QP solver, the
# journal parser, and the /complete decoder.
check: all test-faults test-resume test-fabric test-netchaos test-thermal test-batch
	$(GO) test -fuzz='^FuzzSolve$$' -fuzztime=10s ./internal/qp/
	$(GO) test -fuzz='^FuzzStageKKT$$' -fuzztime=10s ./internal/qp/
