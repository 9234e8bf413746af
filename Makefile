# Pre-merge checks for the READYS reproduction.
#
#   make check       — everything a PR must pass: build, vet, tests, decision-
#                      equivalence gate, race tests, observability smoke test,
#                      perf-regression gate, fleet, stream and gateway smoke
#                      tests
#   make equiv       — decision-equivalence gate: the incremental/serving
#                      decision paths must match the full-rebuild tape oracle
#                      bit for bit
#   make race        — just the race-detector runs (serving, agent core, RL,
#                      fleet, fault-injecting simulator, streaming arrivals)
#   make obs-smoke   — end-to-end telemetry/trace pipeline check: telemetry
#                      JSONL, sim trace, flight recorder, and a dispatcher +
#                      worker pair whose merged cross-process trace must
#                      link-validate
#   make chaos-smoke — single-seed fault-injection run through readys-sim
#                      (plan generation, kill/re-execution, strict validator)
#   make stream-smoke— tiny online-scheduling run through readys-stream
#                      (Poisson arrivals, faults mid-stream, strict union
#                      validation, trace checked by readys-obs-check)
#   make fleet-smoke — dispatcher + worker end-to-end check (train job,
#                      artifact verification, train → serve publish)
#   make gateway-smoke — shard-router end-to-end check: two replicas behind
#                      readys-gateway, a replica killed under concurrent load
#                      (failover, identical responses), and the client →
#                      gateway → replica trace link-validated
#   make bench       — hot-path benchmark snapshot (writes BENCH_<rev>.json)
#   make bench-smoke — fast readys-bench sanity run
#   make bench-compare — perf-regression gate: quick bench diffed against the
#                      committed $(BENCH_BASE); fails on a >$(BENCH_TOL)
#                      regression of any key metric (part of make check)
#   make bench-serve — serving-throughput benchmark
#   make serve       — run the scheduling daemon against ./models
#   make fleet       — run the fleet dispatcher, publishing into ./models

GO ?= go
OBS_TMP ?= /tmp/readys-obs-smoke
# Perf gate: the committed trajectory snapshot to diff against and the
# fractional regression tolerance (0.20 = a key metric may be up to 20% worse
# before the gate trips; raise via `make check BENCH_TOL=0.35` on known-slow
# machines).
BENCH_BASE ?= BENCH_273bd3e.json
BENCH_TOL ?= 0.20

.PHONY: check build vet test equiv race obs-smoke chaos-smoke stream-smoke fleet-smoke gateway-smoke bench bench-smoke bench-compare bench-serve serve fleet gateway

check: build vet test equiv race obs-smoke chaos-smoke stream-smoke fleet-smoke gateway-smoke bench-compare

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Decision-equivalence proofs, named explicitly so a failure reads as "the
# optimised decision path diverged from the oracle" rather than a generic
# test break: appended descendant features and the heap topological order vs
# their full-recompute oracles (bitwise), incremental state vs full rebuild
# (bitwise, incl. faults and streaming AddJob appends and fallbacks), the
# float64 serving engine vs the autograd tape (incl. idle-masked states),
# streams vs a from-scratch oracle policy (plus the no-silent-fallback counter
# check), and the training guard. These also run under `make test`; this
# target is the canonical gate. `go test -run` exits 0 with "no tests to run"
# when a pattern matches nothing, so each line goes through EQUIV_RUN, which
# fails unless at least one test ran.
EQUIV_RUN = out=$$($(GO) test -count=1 -v -run '$(1)' $(2)) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E '^(ok|FAIL|---)' ; \
	echo "$$out" | grep -q -- '^--- PASS' || { echo "equiv: -run '$(1)' selected no test in $(2)"; exit 1; }
equiv:
	@$(call EQUIV_RUN,TestDescendantSummary|TestTopoOrderMatchesSortOracle,./internal/taskgraph/)
	@$(call EQUIV_RUN,TestIncremental|TestServing,./internal/core/)
	@$(call EQUIV_RUN,TestStreamIncrementalIdentical|TestStreamArrivalsAppend,./internal/stream/)

# Concurrency-sensitive packages run under the race detector: internal/serve
# (registry, pool, handlers), internal/core (shared-agent inference),
# internal/rl (parallel batch rollouts), internal/fleet (dispatcher, leases, workers), internal/gateway
# (health prober, concurrent failover), internal/sim (fault injection under
# parallel rollouts), and internal/stream (stream rollouts share agents
# across workers).
race:
	$(GO) test -race ./internal/serve/... ./internal/core/... ./internal/rl/... ./internal/fleet/... ./internal/gateway/... ./internal/sim/... ./internal/stream/...

# End-to-end observability check. Phase 1 artifacts: train a tiny agent with
# -telemetry, simulate one DAG with -trace, assert both are valid and
# non-empty. Phase 2 artifacts: a streaming run's flight recorder summarized
# by readys-obs-check, and a real dispatcher + worker pair (fleet smoke)
# whose two per-process span exports are merged — both by the smoke itself
# and again through readys-obs-check -merge — and must pass cross-process
# parent-link validation (-links).
obs-smoke:
	rm -rf $(OBS_TMP) && mkdir -p $(OBS_TMP)
	$(GO) run ./cmd/readys-train -kind cholesky -T 2 -episodes 3 -quiet \
		-out $(OBS_TMP)/models -telemetry $(OBS_TMP)/train.jsonl
	$(GO) run ./cmd/readys-sim -kind cholesky -T 2 -policy mct \
		-trace $(OBS_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -jsonl $(OBS_TMP)/train.jsonl \
		-trace $(OBS_TMP)/trace.json
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy mct -faults -fault-rate 1 -seed 7 -quiet \
		-flight $(OBS_TMP)/flight.jsonl -metrics $(OBS_TMP)/metrics.prom > /dev/null
	$(GO) run ./cmd/readys-obs-check -flight $(OBS_TMP)/flight.jsonl
	$(GO) run ./cmd/readys-obs-check -flight $(OBS_TMP)/flight.jsonl -flight-kind decision
	$(GO) run ./cmd/readys-fleet -smoke -trace-out $(OBS_TMP)/fleet
	$(GO) run ./cmd/readys-obs-check -merge $(OBS_TMP)/fleet/remerged.json \
		$(OBS_TMP)/fleet/dispatcher.json $(OBS_TMP)/fleet/worker.json
	$(GO) run ./cmd/readys-obs-check -trace $(OBS_TMP)/fleet/remerged.json -links
	rm -rf $(OBS_TMP)

# Single-seed chaos check: a tiny DAG scheduled through readys-sim with fault
# injection on. Exercises plan generation, in-flight kills, re-execution and
# the strict fault-aware validator (readys-sim fails hard if any slice
# overlaps an outage or a duration leaves the timing envelope).
chaos-smoke:
	$(GO) run ./cmd/readys-sim -kind cholesky -T 3 -cpus 1 -gpus 1 -sigma 0.1 \
		-policy mct -faults -fault-rate 2 -seed 7 > /dev/null
	@echo chaos-smoke OK

# Online-scheduling smoke: a tiny mixed-family Poisson stream scheduled
# through readys-stream with faults firing mid-stream. Exercises arrivals on
# the persistent cluster, kills/re-execution across jobs and the strict union
# validator (readys-stream fails hard on an invalid schedule), then checks the
# emitted Chrome trace with readys-obs-check.
STREAM_TMP ?= /tmp/readys-stream-smoke
stream-smoke:
	rm -rf $(STREAM_TMP) && mkdir -p $(STREAM_TMP)
	$(GO) run ./cmd/readys-stream -rate 6 -jobs 6 -sigma 0.1 \
		-policy heft-per-job -faults -fault-rate 1 -seed 7 -quiet \
		-trace $(STREAM_TMP)/trace.json > /dev/null
	$(GO) run ./cmd/readys-obs-check -trace $(STREAM_TMP)/trace.json
	rm -rf $(STREAM_TMP)
	@echo stream-smoke OK

# Full perf snapshot: SpMM vs dense propagation, decisions/sec, training
# episodes/sec (sparse vs DenseProp ablation, workers 1 vs GOMAXPROCS).
# Writes BENCH_<rev>.json for committing alongside the code it measures.
bench:
	$(GO) run ./cmd/readys-bench

# Smoke variant of the same binary: tiny sizes, seconds not minutes, output
# discarded. Guards against the benchmark harness itself rotting.
bench-smoke:
	$(GO) run ./cmd/readys-bench -quick -out /tmp/readys-bench-smoke.json
	rm -f /tmp/readys-bench-smoke.json

# Perf-regression gate (subsumes bench-smoke in make check): the quick bench
# diffed row-by-row against the committed snapshot. Prints the per-metric
# delta table and exits non-zero when spmm ns/op, ns_per_decision, train
# eps/sec or stream jobs/sec regressed more than BENCH_TOL.
bench-compare:
	$(GO) run ./cmd/readys-bench -quick -compare $(BENCH_BASE) -tol $(BENCH_TOL)

bench-serve:
	$(GO) test -bench BenchmarkServeScheduleThroughput -benchtime 2s -run '^$$' ./internal/serve/

# End-to-end fleet check: an in-process dispatcher and worker run one tiny
# train job through the wire protocol, then the checkpoint artifact, history
# JSONL and the published train → serve copy are verified.
fleet-smoke:
	$(GO) run ./cmd/readys-fleet -smoke

# End-to-end gateway check: two in-process serve replicas behind
# readys-gateway. Phase 1 routes a concurrent burst by model hash, phase 2
# kills the owning replica and requires transparent failover with responses
# identical to the pre-kill run, phase 3 asserts the survivor counted the
# schedules it answered (readys_schedules_answered_total > 0), phase 4 exports client/gateway/replica span files whose
# merge must pass cross-process parent-link validation.
GW_TMP ?= /tmp/readys-gateway-smoke
gateway-smoke:
	rm -rf $(GW_TMP) && mkdir -p $(GW_TMP)
	$(GO) run ./cmd/readys-gateway -smoke -trace-out $(GW_TMP)
	$(GO) run ./cmd/readys-obs-check -merge $(GW_TMP)/merged.json \
		$(GW_TMP)/client.json $(GW_TMP)/gateway.json \
		$(GW_TMP)/replica1.json $(GW_TMP)/replica2.json
	$(GO) run ./cmd/readys-obs-check -trace $(GW_TMP)/merged.json -links
	rm -rf $(GW_TMP)
	@echo gateway-smoke OK

serve:
	$(GO) run ./cmd/readys-serve -addr :8080 -models models

fleet:
	$(GO) run ./cmd/readys-fleet -addr :9090 -dir fleet -publish models

# Front two local replicas started by hand, e.g.
#   make serve & $(GO) run ./cmd/readys-serve -addr :8081 -models models &
gateway:
	$(GO) run ./cmd/readys-gateway -addr :8090 -replicas http://127.0.0.1:8080,http://127.0.0.1:8081
