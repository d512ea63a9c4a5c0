#!/bin/sh
# Hot-path benchmark recorder: runs the Pipe/Token/Link micro-suite
# (bench_hotpath_test.go) with -benchmem -count=3 and writes the best
# run per benchmark into a BENCH_*.json trajectory file (see
# EXPERIMENTS.md, "Benchmark trajectory").
#
#   scripts/bench.sh              writes BENCH_pr3.json
#   scripts/bench.sh out.json     writes out.json
#   scripts/bench.sh -pr4 [out]   skewed-cluster elasticity scenario:
#                                 real sleep-worker static vs dynamic
#                                 vs elastic runs, written to
#                                 BENCH_pr4.json; fails unless dynamic
#                                 completes at >= 1.3x static.
#   scripts/bench.sh -pr6 [out]   tracing-overhead trajectory: the full
#                                 hot-path suite plus the Traced link
#                                 twins (tracer on, every-64th frame
#                                 sampled) and the mark primitive,
#                                 written to BENCH_pr6.json with a
#                                 tracing_overhead section holding the
#                                 traced/untraced ns/op ratios.
#   scripts/bench.sh -pr7 [out]   workload-scenario trajectory: the
#                                 measurement-scale scenario suite
#                                 (tokens/sec and p50/p95/p99 per
#                                 scenario) plus the many-client soak,
#                                 written to BENCH_pr7.json; fails
#                                 unless the soak sustained >= 100
#                                 concurrent graphs with 0 failures
#                                 and every scenario verified.
#   scripts/bench.sh -pr8 [out]   wire-compression trajectory: the
#                                 LinkTokens suite (logical tokens/sec
#                                 and compression ratio per stream
#                                 shape, loopback and emulated 1 Gbit/s
#                                 wire), written to BENCH_pr8.json;
#                                 fails unless the compressed monotone
#                                 int64 stream moves >= 3x the logical
#                                 tokens/sec of its raw twin on the
#                                 same emulated wire (the BENCH_pr3
#                                 raw-wire protocol's ceiling there).
#   scripts/bench.sh -pr9 [out]   durable-conduit trajectory: elements/
#                                 sec for the bench-scale stream-int64
#                                 scenario in-proc vs streamed through
#                                 a WAL-journaled conduit (fsync
#                                 batching on), plus SIGKILL recovery
#                                 times at gate scale, written to
#                                 BENCH_pr9.json; fails unless the
#                                 kill-restart run verified and the
#                                 journaling cost stayed <= 2.5x.
#
# Every record is stamped with the go version, GOMAXPROCS, host name,
# and CPU so trajectory entries are comparable across machines.
#
# The JSON is the machine-readable record scripts/check.sh -bench
# compares fresh runs against, so throughput/allocation regressions on
# the data plane fail the gate instead of landing silently.
set -eu

cd "$(dirname "$0")/.."

if [ "${1:-}" = "-pr4" ]; then
	out="${2:-BENCH_pr4.json}"
	echo "bench: go run ./cmd/dpnbench -pr4 -json > $out"
	go run ./cmd/dpnbench -pr4 -json > "$out"
	ok=$(awk -F: '/"dynamic_over_static"/ { gsub(/[ ,]/, "", $2); print ($2 + 0 >= 1.3) ? 1 : 0 }' "$out")
	ratio=$(awk -F: '/"dynamic_over_static"/ { gsub(/[ ,]/, "", $2); print $2 + 0 }' "$out")
	if [ "$ok" != "1" ]; then
		echo "bench: FAIL — dynamic_over_static = $ratio < 1.3 in $out"
		exit 1
	fi
	echo "bench: wrote $out (dynamic_over_static = $ratio)"
	exit 0
fi

if [ "${1:-}" = "-pr7" ]; then
	out="${2:-BENCH_pr7.json}"
	echo "bench: go run ./cmd/dpnbench -scenarios -json > $out"
	go run ./cmd/dpnbench -scenarios -json > "$out"
	graphs=$(awk -F: '/"concurrent_graphs"/ { gsub(/[ ,]/, "", $2); print $2 + 0 }' "$out")
	failures=$(awk -F: '/"failures"/ { gsub(/[ ,]/, "", $2); print $2 + 0 }' "$out")
	if [ "${graphs:-0}" -lt 100 ]; then
		echo "bench: FAIL — concurrent_graphs = ${graphs:-none} < 100 in $out"
		exit 1
	fi
	if [ "${failures:-1}" -ne 0 ]; then
		echo "bench: FAIL — soak failures = ${failures:-none} in $out"
		exit 1
	fi
	if grep -q '"ok": false' "$out"; then
		echo "bench: FAIL — a scenario failed oracle verification in $out"
		exit 1
	fi
	echo "bench: wrote $out ($graphs concurrent soak graphs, $failures failures)"
	exit 0
fi

if [ "${1:-}" = "-pr9" ]; then
	out="${2:-BENCH_pr9.json}"
	echo "bench: go run ./cmd/dpnbench -pr9 -json > $out"
	go run ./cmd/dpnbench -pr9 -json > "$out"
	cost=$(awk -F: '/"durable_over_loopback_cost"/ { gsub(/[ ,]/, "", $2); print $2 + 0 }' "$out")
	ok=$(awk -F: '/"durable_over_loopback_cost"/ { gsub(/[ ,]/, "", $2); print ($2 + 0 <= 2.5 && $2 + 0 > 0) ? 1 : 0 }' "$out")
	if [ "${ok:-0}" != "1" ]; then
		echo "bench: FAIL — durable_over_loopback_cost = ${cost:-none} > 2.5 in $out"
		exit 1
	fi
	if ! grep -q '"killrestart_ok": true' "$out"; then
		echo "bench: FAIL — kill-restart run did not verify in $out"
		exit 1
	fi
	echo "bench: wrote $out (durable conduit costs ${cost}x loopback, kill-restart verified)"
	exit 0
fi

# The default trajectory stays comparable across PRs, so the tracing
# benchmarks added later are skipped unless -pr6 asks for them, and the
# LinkTokens compression suite lives in its own -pr8 record.
overhead=0
compression=0
skip='Traced|PipeMarkTrace|LinkTokens'
pat='^(BenchmarkPipeWrite|BenchmarkPipeTransfer|BenchmarkPipeInstrumented|BenchmarkPipeMarkTrace|BenchmarkToken|BenchmarkLink)'
if [ "${1:-}" = "-pr6" ]; then
	out="${2:-BENCH_pr6.json}"
	overhead=1
	skip='LinkTokens'
elif [ "${1:-}" = "-pr8" ]; then
	out="${2:-BENCH_pr8.json}"
	compression=1
	skip=''
	pat='^BenchmarkLinkTokens'
else
	out="${1:-BENCH_pr3.json}"
fi
log=$(mktemp)
trap 'rm -f "$log"' EXIT

echo "bench: go test -run ^\$ -bench '$pat' -benchmem -count=3 ."
go test -run '^$' -bench "$pat" ${skip:+-skip "$skip"} -benchmem -count=3 -timeout 30m . | tee "$log"

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go version | awk '{print $3}')" \
	-v gmp="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 0)}" -v host="$(hostname 2>/dev/null || echo unknown)" \
	-v overhead="$overhead" -v compression="$compression" '
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { cpu = substr($0, 6) }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
	ns = ""; mbs = ""; bop = ""; aop = ""; tok = ""; xr = ""
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op")     ns  = $(i-1)
		if ($i == "MB/s")      mbs = $(i-1)
		if ($i == "B/op")      bop = $(i-1)
		if ($i == "allocs/op") aop = $(i-1)
		if ($i == "tokens/s")  tok = $(i-1)
		if ($i == "xratio")    xr  = $(i-1)
	}
	if (ns == "") next
	# keep the best (lowest ns/op) of the -count runs
	if (!(name in best_ns) || ns + 0 < best_ns[name] + 0) {
		if (!(name in best_ns)) order[++n] = name
		best_ns[name] = ns; best_mbs[name] = mbs
		best_bop[name] = bop; best_aop[name] = aop
		best_tok[name] = tok; best_xr[name] = xr
	}
}
END {
	printf "{\n  \"recorded\": \"%s\",\n  \"go\": \"%s\",\n", date, gover
	printf "  \"gomaxprocs\": %d,\n  \"host\": \"%s\",\n", gmp + 0, host
	printf "  \"os_arch\": \"%s/%s\",\n  \"cpu\": \"%s\",\n", goos, goarch, cpu
	printf "  \"benchmarks\": {\n"
	for (i = 1; i <= n; i++) {
		name = order[i]
		printf "    \"%s\": {\"ns_op\": %s", name, best_ns[name]
		if (best_mbs[name] != "") printf ", \"mb_s\": %s", best_mbs[name]
		if (best_tok[name] != "") printf ", \"tokens_s\": %s", best_tok[name]
		if (best_xr[name]  != "") printf ", \"xratio\": %s", best_xr[name]
		if (best_bop[name] != "") printf ", \"b_op\": %s", best_bop[name]
		if (best_aop[name] != "") printf ", \"allocs_op\": %s", best_aop[name]
		printf "}%s\n", (i < n ? "," : "")
	}
	printf "  }"
	if (overhead) {
		# Pair every benchmark with its Traced twin and record the
		# enabled-sampling cost as a ratio (1.00 = free).
		m = 0
		for (i = 1; i <= n; i++)
			if ((order[i] "Traced") in best_ns) pairs[++m] = order[i]
		printf ",\n  \"tracing_overhead\": {\n"
		for (j = 1; j <= m; j++) {
			base = pairs[j]
			printf "    \"%s\": {\"ns_op\": %s, \"traced_ns_op\": %s, \"ratio\": %.4f}%s\n", \
				base, best_ns[base], best_ns[base "Traced"], \
				best_ns[base "Traced"] / best_ns[base], (j < m ? "," : "")
		}
		printf "  }"
	}
	if (compression) {
		# The headline record: logical tokens/sec on the emulated
		# 1 Gbit/s wire, compressed vs the raw twin (the BENCH_pr3
		# wire protocol, which is pinned at wire-rate/8 tokens/sec
		# there), plus the achieved ratio per stream shape.
		cw = "BenchmarkLinkTokensWireMonotone"
		rw = "BenchmarkLinkTokensWireMonotoneRaw"
		printf ",\n  \"compression\": {\n"
		printf "    \"wire_rate_bytes_per_sec\": 125000000,\n"
		printf "    \"raw_wire_equiv_tokens_per_sec\": %s,\n", best_tok[rw]
		printf "    \"compressed_wire_tokens_per_sec\": %s,\n", best_tok[cw]
		printf "    \"tokens_per_sec_over_raw_wire\": %.4f,\n", best_tok[cw] / best_tok[rw]
		printf "    \"ratio_by_shape\": {\"monotone\": %s, \"random\": %s, \"float_walk\": %s}\n", \
			best_xr["BenchmarkLinkTokensMonotone"], best_xr["BenchmarkLinkTokensRandom"], \
			best_xr["BenchmarkLinkTokensFloatWalk"]
		printf "  }"
	}
	printf "\n}\n"
}' "$log" > "$out"

if [ "$compression" = "1" ]; then
	ratio=$(awk -F: '/"tokens_per_sec_over_raw_wire"/ { gsub(/[ ,]/, "", $2); print $2 + 0 }' "$out")
	ok=$(awk -F: '/"tokens_per_sec_over_raw_wire"/ { gsub(/[ ,]/, "", $2); print ($2 + 0 >= 3) ? 1 : 0 }' "$out")
	if [ "${ok:-0}" != "1" ]; then
		echo "bench: FAIL — tokens_per_sec_over_raw_wire = ${ratio:-none} < 3 in $out"
		exit 1
	fi
	echo "bench: wrote $out (compressed moves ${ratio}x the raw wire's logical tokens/sec)"
	exit 0
fi

echo "bench: wrote $out"
