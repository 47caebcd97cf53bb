# Convenience wrappers around dune; `make ci` is the full local gate.

.PHONY: all build test lint lint-update lockdep-export bench-smoke bench-gate rs-smoke metrics-smoke cluster-smoke obs-smoke live-smoke adversary-smoke e2e-smoke ci clean

all: build

build:
	dune build

test:
	dune runtest

# Repo-invariant static analysis (bin/csm_lint.ml): per-file rules
# R1-R5 (determinism boundary, polymorphic comparison, mutex
# discipline, shared-state registry, decoder totality) plus the
# whole-program passes under --taint — interprocedural Byzantine-taint
# tracking R6-R8 and the static lock-order graph R9, cross-checked
# against lint/lock_order.expected.  Fails on any finding not
# justified in lint/baseline.json; the gate then holds the run to the
# committed wall-clock budget in bench/lint_baseline.json.
lint:
	dune exec bin/csm_lint.exe -- --root . --baseline lint/baseline.json \
	  --taint --bench-out /tmp/csm_ci_lint.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_lint.json \
	  --baseline bench/lint_baseline.json

# Refresh lint/baseline.json from the current findings, keeping
# existing reasons; new entries get a TODO reason to fill in.
lint-update:
	dune exec bin/csm_lint.exe -- --root . --baseline lint/baseline.json \
	  --taint --update-baseline

# Refresh lint/lock_order.expected from a real CSM_LOCKDEP=1 run: a
# loopback cluster (all node threads in one process) records every
# held->acquired pair, and the process dumps the observed graph on
# exit.  csm-lint's static R9 pass contradicts any static edge whose
# reverse order was recorded here.
lockdep-export:
	dune build bin/csm_cluster.exe
	CSM_LOCKDEP=1 CSM_LOCKDEP_EXPORT=lint/lock_order.expected \
	  ./_build/default/bin/csm_cluster.exe --transport loopback \
	  -n 4 -k 1 -d 1 -b 1 --rounds 3 --faults 1:lie
	@echo "lockdep-export: wrote lint/lock_order.expected"

bench-smoke:
	dune build @bench-smoke

# Regression gate over the smoke bench: determinism + ledger invariants
# and the op-count anchor in bench/baseline.json.  Every gate in this
# file is bin/bench_gate running the check list of one committed
# bench/*baseline.json.
bench-gate:
	dune exec bench/main.exe -- --smoke --out /tmp/csm_ci_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_bench.json \
	  --baseline bench/baseline.json

# Optimistic-decode fast-path smoke: regenerate the GF(2^8) rs bench
# (modes on = optimistic / off = Gao) and gate its determinism, exact
# warm decode op count and on-vs-off speedups against
# bench/rs_baseline.json.
rs-smoke:
	dune exec bench/main.exe -- --rs-smoke --out /tmp/csm_ci_rs_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_rs_bench.json \
	  --baseline bench/rs_baseline.json

# Drive the metrics registry end-to-end: a --metrics run must emit a
# well-formed Prometheus exposition with the per-node protocol signals.
metrics-smoke:
	CSM_TICKER=0 CSM_METRICS=/tmp/csm_metrics.prom \
	  dune exec bin/csm_run.exe -- --metrics --rounds 2 > /tmp/csm_metrics_stdout.txt
	grep -q '^csm_messages_total{' /tmp/csm_metrics.prom
	grep -q '^csm_round_latency_seconds_bucket{' /tmp/csm_metrics.prom
	grep -q '^csm_node_suspicion{' /tmp/csm_metrics.prom
	@echo "metrics-smoke: ok"

# Real-cluster smoke: 3 forked node processes over Unix-domain sockets,
# 2 rounds, one Byzantine node.  The drop run must still decode and
# match the single-process reference byte-for-byte; the corrupt run
# must detect every mangled frame (csm_transport_frame_errors_total in
# the exposition) and still verify.
cluster-smoke:
	dune exec bin/csm_cluster.exe -- --transport socket \
	  -n 3 -k 1 -d 1 -b 1 --rounds 2 --faults 1:drop
	CSM_METRICS=/tmp/csm_cluster_metrics.prom \
	  dune exec bin/csm_cluster.exe -- --transport socket \
	  -n 3 -k 1 -d 1 -b 1 --rounds 2 --faults 2:corrupt --expect-frame-errors
	grep -q '^csm_transport_frame_errors_total{' /tmp/csm_cluster_metrics.prom
	grep -q '^csm_messages_total{.*layer="transport"' /tmp/csm_cluster_metrics.prom
	@echo "cluster-smoke: ok"

# Cluster observability smoke: gate the allocation-overhead bench
# against bench/obs_baseline.json, then drive the whole causal pipeline
# end to end — a 4-process socket cluster with frame-v2 trace stamping
# whose merged Chrome trace must pair at least one cross-node
# send→recv flow, a forced csm-flightrec/1 dump, and a --replay of
# that dump proving the recorded rounds recompute byte-identically
# from the embedded seed.  A 300-round traced socket cluster must then
# deliver all five final snapshots (bundles=5/5): at that length each
# node's final snapshot outgrows the kernel's socket send buffer, so
# the step fails if a node exits before its last bytes are written.
obs-smoke:
	dune exec bench/main.exe -- --obs-smoke --out /tmp/csm_ci_obs_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_obs_bench.json \
	  --baseline bench/obs_baseline.json
	dune exec bin/csm_cluster.exe -- --transport socket \
	  -n 4 -k 1 -d 1 -b 1 --rounds 2 \
	  --flightrec --flightrec-out /tmp/csm_obs_flightrec.json \
	  --trace --trace-out /tmp/csm_obs_trace.json --expect-cross-flows 1
	dune exec bin/csm_cluster.exe -- --replay /tmp/csm_obs_flightrec.json
	grep -q '"ph":"s"' /tmp/csm_obs_trace.json
	grep -q '"ph":"f"' /tmp/csm_obs_trace.json
	dune exec bin/csm_cluster.exe -- --transport socket \
	  -n 4 -k 1 -d 1 -b 1 --rounds 300 \
	  --trace --trace-out /tmp/csm_obs_big_trace.json > /tmp/csm_obs_big.txt
	grep -q 'bundles=5/5' /tmp/csm_obs_big.txt
	@echo "obs-smoke: ok"

# Live streaming-telemetry smoke: gate the live bench (delta-merge
# determinism, scrape allocation, mid-run-scrape lambda agreement,
# the lie -> suspicion alert path) against bench/live_baseline.json,
# then drive the CLI end to end — a loopback cluster with one lying
# node streaming deltas every 10 ms whose report must embed the live
# windows document with the suspicion alert still firing.
# The bench binary runs directly (not under dune exec): the live gate
# times a streaming cluster run, and dune's parent process skews it
# badly on single-core hosts.
live-smoke:
	dune build bench/main.exe bin/bench_gate.exe bin/csm_cluster.exe
	./_build/default/bench/main.exe --live-smoke --out /tmp/csm_ci_live_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_live_bench.json \
	  --baseline bench/live_baseline.json
	CSM_TELEMETRY_INTERVAL=0.01 dune exec bin/csm_cluster.exe -- \
	  --transport loopback -n 4 -k 1 -d 1 -b 1 --rounds 20 \
	  --faults 1:lie --out /tmp/csm_ci_live_report.json
	grep -q '"schema":"csm-live-windows/1"' /tmp/csm_ci_live_report.json
	grep -q '"rule":"suspicion"' /tmp/csm_ci_live_report.json
	@echo "live-smoke: ok"

# Adversary-synthesis smoke: regenerate the Table-2 tightness
# certification (search at b = muN must find no violation, at
# b = muN + 1 must find a shrunk replayable witness, twice
# byte-identically at the same seed) and gate every boolean plus the
# searched budget/seed/schedule against bench/adversary_baseline.json.
# The committed counterexample fixture must also still replay
# byte-for-byte through the csm_adversary CLI.
adversary-smoke:
	dune exec bench/main.exe -- --adversary-smoke \
	  --out /tmp/csm_ci_adversary_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_adversary_bench.json \
	  --baseline bench/adversary_baseline.json
	dune exec bin/csm_adversary.exe -- \
	  --replay test/fixtures/adversary_decode.json
	@echo "adversary-smoke: ok"

# End-to-end cluster benchmark smoke (bench/e2e, see its README): short
# untraced runs of the fault-free loopback and socket workloads, one
# traced run of the lying loopback workload, and one untraced 16-node
# loopback run, the only CI run of the node runtime at N=16, where the
# round window keeps memory and round time flat.  Each run must exit 0:
# every round accepted by b+1 matching Outputs and equal to the
# single-process reference.  Timings are printed, never gated here.
e2e-smoke:
	bash bench/e2e/run.sh --workload lb8-honest --seconds 2 --trace 0
	bash bench/e2e/run.sh --workload sock4-honest --seconds 2 --trace 0
	bash bench/e2e/run.sh --workload lb8-lie --seconds 2 --trace
	bash bench/e2e/run.sh --workload lb16-honest --seconds 2 --trace 0
	@echo "e2e-smoke: ok"

# CI gate: type-check everything (tests and benches included), lint
# the repo against its invariants, regenerate the parallel smoke
# benchmark, run the test suite, then exercise the observability layer
# end-to-end — a CSM_TRACE'd demo run, a traced + gated smoke bench,
# and a metrics exposition check — so linting, tracing, metrics and
# the bench gate are driven on every commit; then every smoke target,
# ending with the end-to-end cluster benchmark.
ci:
	dune build @check @bench-smoke
	$(MAKE) lint
	dune runtest
	CSM_TRACE=/tmp/csm_ci_trace.json CSM_REPORT=/tmp/csm_ci_report.json \
	  CSM_TICKER=0 dune exec bin/csm_run.exe -- --trace --report --rounds 2
	CSM_TRACE=/tmp/csm_ci_bench_trace.json \
	  dune exec bench/main.exe -- --smoke --out /tmp/csm_ci_bench.json
	dune exec bin/bench_gate.exe -- --current /tmp/csm_ci_bench.json \
	  --baseline bench/baseline.json
	$(MAKE) rs-smoke
	$(MAKE) metrics-smoke
	$(MAKE) cluster-smoke
	$(MAKE) obs-smoke
	$(MAKE) live-smoke
	$(MAKE) adversary-smoke
	$(MAKE) e2e-smoke

clean:
	dune clean
