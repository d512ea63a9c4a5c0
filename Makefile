.PHONY: build test check chaos vet lint scenarios codec wal

build:
	go build ./...

# 120 s per package: a hang fails in two minutes, not go test's ten.
test:
	go test -timeout 120s ./...

vet:
	go vet ./...

# Static-analysis gate: vet + staticcheck (when installed) + the
# conduit API style check + gofmt -l; see scripts/check.sh -lint. Runs first in
# `make check`.
lint:
	./scripts/check.sh -lint

# The race-enabled gate used before merging; see scripts/check.sh.
# It also runs the benchmark harness's smoke test (benchmark/ is its
# own module, which `go test ./...` here does not see) and then every
# gate below, so `make check` covers them all.
check:
	./scripts/check.sh

# Chaos gate alone: repeated seeded fault-injection runs, the session
# pool tests and the cascade-equivalence sweep across deployments, with
# a seed-replay flaky classifier; see scripts/check.sh -chaos.
chaos:
	./scripts/check.sh -chaos

# Workload-scenario gate alone: oracle equality for every catalog
# scenario under loopback/tcp/chaos/migration, the graph-shape fuzzer,
# the quantile/exposition round trip, the registry/rendezvous stress
# tests, and the reduced-scale soak — all under -race with WORKLOAD_SEED
# replay on failure; see scripts/check.sh -scenarios. Part of
# `make check`.
scenarios:
	./scripts/check.sh -scenarios

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
