.PHONY: build test check chaos vet lint bench pool bench-pr4 bench-pr6 bench-pr7 bench-pr8 bench-pr9 obs scenarios codec wal

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# Static-analysis gate: vet + staticcheck (when installed) + the
# conduit API style check + gofmt -l; see scripts/check.sh -lint. Runs first in
# `make check`.
lint:
	./scripts/check.sh -lint

# The race-enabled gate used before merging; see scripts/check.sh.
# It also runs the benchmark harness's smoke test (benchmark/ is its
# own module, which `go test ./...` here does not see) and ends with
# the chaos gate, so `make check` covers all three.
check:
	./scripts/check.sh

# Chaos gate alone: repeated seeded fault-injection runs, the session
# pool tests and the cascade-equivalence sweep across deployments, with
# a seed-replay flaky classifier; see scripts/check.sh -chaos.
chaos:
	./scripts/check.sh -chaos

# Re-records the hot-path benchmark trajectory (BENCH_pr3.json), then
# fails if allocs/op on the sentinel benchmarks regressed against it;
# see scripts/bench.sh and EXPERIMENTS.md, "Benchmark trajectory".
bench:
	./scripts/bench.sh
	./scripts/check.sh -bench

# Elasticity gate alone: pool join/leave/kill, straggler re-dispatch,
# lane migration, and the Scatter/Gather close semantics under -race;
# see scripts/check.sh -pool. Part of `make check`.
pool:
	./scripts/check.sh -pool

# Re-records the skewed-cluster elasticity trajectory (BENCH_pr4.json):
# real sleep-worker static vs dynamic vs elastic runs; fails unless the
# dynamic composition completes at >= 1.3x the static one.
bench-pr4:
	./scripts/bench.sh -pr4

# Re-records the tracing-overhead trajectory (BENCH_pr6.json): the
# hot-path suite plus its tracer-enabled twins, with traced/untraced
# ns/op ratios; see EXPERIMENTS.md, "Tracing overhead".
bench-pr6:
	./scripts/bench.sh -pr6

# Workload-scenario gate alone: oracle equality for every catalog
# scenario under loopback/tcp/chaos/migration, the graph-shape fuzzer,
# the quantile/exposition round trip, the registry/rendezvous stress
# tests, and the reduced-scale soak — all under -race with WORKLOAD_SEED
# replay on failure; see scripts/check.sh -scenarios. Part of
# `make check`.
scenarios:
	./scripts/check.sh -scenarios

# Re-records the workload-scenario trajectory (BENCH_pr7.json):
# verified tokens/sec and p50/p95/p99 per scenario plus the
# 120-concurrent-graph soak; fails unless the soak held >= 100 graphs
# with zero failures; see EXPERIMENTS.md, "Scenario suite".
bench-pr7:
	./scripts/bench.sh -pr7

# Re-records the wire-compression trajectory (BENCH_pr8.json): logical
# tokens/sec and compression ratio per stream shape, loopback and
# emulated 1 Gbit/s wire; fails unless the compressed monotone stream
# moves >= 3x the raw twin's logical tokens/sec on the emulated wire;
# see EXPERIMENTS.md, "Compression trajectory".
bench-pr8:
	./scripts/bench.sh -pr8

# Wire-codec gate alone: block-codec round-trip identity, corruption
# rejection, the >= 4x monotone compression floor, the compressed-link
# integration tests, and a short native fuzz burst; see
# scripts/check.sh -codec. Part of `make check`.
codec:
	./scripts/check.sh -codec

# Durability gate alone: the WAL torture/fuzz suite, the durable-conduit
# restart tests, and the kill-restart scenario matrix (SIGKILL the
# producer twice, byte-identical replay) under -race with WORKLOAD_SEED
# replay on failure; see scripts/check.sh -wal. Part of `make check`.
wal:
	./scripts/check.sh -wal

# Re-records the durable-conduit trajectory (BENCH_pr9.json):
# journaling overhead vs the in-proc plane plus SIGKILL recovery times;
# fails unless the kill-restart run verified and the cost stayed
# <= 2.5x; see EXPERIMENTS.md, "Crash-restart trajectory".
bench-pr9:
	./scripts/bench.sh -pr9

# Observability gate alone: the tracing/telemetry suites under -race
# (including the multi-process metrics/dpntop/trace-merge smoke), then
# the disabled-tracing cost assertion against BENCH_pr6.json; see
# scripts/check.sh -obs.
obs:
	./scripts/check.sh -obs
