#!/bin/sh
# Full pre-merge gate: vet, build everything, then run the whole test
# suite under the race detector. The observability layer is updated
# from every process goroutine, so -race is not optional here.
#
#   check.sh         vet + build + race-enabled test suite (120 s per
#                    package, so a hang fails fast), the
#                    deadlock-resolution, quiescence-wake (core,
#                    deadlock), wake-bookkeeping, cut,
#                    task-farm, parked-link, link-wait, multi-node
#                    monitor, scraped-tally, scrape-churn,
#                    golden-exposition, whole-or-nothing series,
#                    link-core, Redirect-race, durable reader-move,
#                    shared-session, permanent-partition, splice
#                    (stream, proclib, core, graphs), run-process
#                    (graphs, proclib, workload), window-slot and
#                    negative-key (workload), client-cache (server)
#                    and park-clock sampling (stream) tests x20 at
#                    GOMAXPROCS 1, 2 and 4, the benchmark
#                    harness's smoke test, then
#                    every gate below. Every gate is a count or a
#                    same-run check; none compares against a number
#                    recorded on another day.
#   check.sh -chaos  chaos gate: every test whose name contains
#                    "Chaos", "Mux", "CascadeEquivalence",
#                    "MoveAfterEOF" or "MixedPolicy" — fault injection,
#                    the broker's session pool, the stream-equivalence
#                    sweep across deployments (inproc = wire = wire
#                    without compression = rebind mid-stream, with the
#                    EOF in flight, after the EOF), and links whose
#                    ends differ in retry policy — runs three times
#                    under -race with a fresh fault schedule each run,
#                    after the reader-move tests have run, unmodified,
#                    with a retry policy on every test broker
#                    (DPN_TEST_POLICY=retry). On
#                    failure the logged seeds are replayed once, as
#                    for every seeded gate (see seed_gate below):
#                    CHAOS_SEED pins the fault schedule,
#                    WORKLOAD_SEED the topology and data; a second
#                    failure is reproducible — report it with those
#                    seeds — while a replay pass classifies the
#                    original failure as flaky.
#   check.sh -lint   static-analysis gate: go vet, staticcheck when the
#                    binary is on PATH (skipped with a notice otherwise
#                    — nothing is downloaded), a style check that
#                    the conduit package's API surface never says
#                    interface{} (spell it any), a check that no
#                    process library builds its own token codec over a
#                    port (ports own theirs: port.Tokens()), a check
#                    that netio holds its retry policy by value (no
#                    *Resilience: a nil policy was a second protocol),
#                    a check that the link core imports neither net
#                    nor sync nor time (it is the protocol alone; its
#                    driver owns sockets, goroutines and clocks), a
#                    check that only frames.go and handshake.go encode
#                    bytes in internal/netio (the wire format has one
#                    owner), a check that no binary under cmd/ links
#                    os/exec or testing (a server links only what a
#                    graph can run; harnesses and crash children live
#                    in _test.go files), a check that internal/meta
#                    has no go statement, time.NewTicker or
#                    time.AfterFunc (the farm has no second scheduler;
#                    its timing decisions are its lanes' results), a
#                    check that non-test internal/conduit names no
#                    dpn_conduit_* series (the data plane owns no
#                    telemetry; the network collects its channels), a
#                    check that non-test internal/stream calls time.Now
#                    or time.Since only in the park clock of
#                    instruments.go (a park reads no clock; one park in
#                    16 is timed), a check that non-test internal/netio
#                    makes no type assertion on a link's source or sink
#                    outside newLink (a link's ends are typed: what they
#                    carry is checked at compile time, and newLink alone
#                    looks for a journal's taps), and gofmt -l.
#   check.sh -scenarios
#                    workload-scenario gate: the seeded scenario suite
#                    (oracle equality under loopback/tcp/chaos/
#                    migration), the graph-shape fuzzer, the histogram
#                    quantile unit tests, the registry/rendezvous
#                    stress tests, and the reduced-scale soak, all
#                    under -race, with seed replay on failure.
#   check.sh -codec  wire-codec gate: the columnar block codec's
#                    round-trip identity, corruption-rejection, and
#                    compression-floor tests (>= 4x on monotone int64
#                    runs, raw fallback never worse than 1.02x), the
#                    compressed-link integration tests, plus a short
#                    native fuzz burst on the block decoder, the
#                    encoder against its byte-for-byte reference, and
#                    the token decode paths.
#   check.sh -wal    durability gate: the WAL torture suite (torn
#                    tails, flipped CRCs, zero-length segments,
#                    crash-during-truncation recovery) plus a native
#                    fuzz burst on the record framing, then the
#                    durable-conduit restart tests and the
#                    kill-restart scenario matrix (SIGKILL the
#                    producer twice, byte-identical replay) under
#                    -race, with seed replay on failure.
set -eu

cd "$(dirname "$0")/.."

# seed_gate NAME PATTERN COUNT runs every test matching PATTERN under
# -race, COUNT times, and exits with the verdict. A failing run is
# replayed once with the seeds it logged ("chaos seed N" pins a fault
# schedule through CHAOS_SEED, "workload seed N" a topology and its
# data through WORKLOAD_SEED): failing again makes it reproducible,
# passing makes the first failure flaky. Both verdicts fail the gate.
seed_gate() {
	name=$1 pat=$2 count=$3
	log=$(mktemp)
	trap 'rm -f "$log"' EXIT
	echo "$name gate: go test -race -run '$pat' -count=$count ./..."
	rc=0
	go test -race -run "$pat" -count="$count" -timeout 15m ./... >"$log" 2>&1 || rc=$?
	cat "$log"
	if [ "$rc" -eq 0 ]; then
		echo "$name gate: PASS"
		exit 0
	fi
	seed=$(grep -Eo 'chaos seed [0-9]+' "$log" | tail -n 1 | grep -Eo '[0-9]+' || true)
	wseed=$(grep -Eo 'workload seed -?[0-9]+' "$log" | tail -n 1 | grep -Eo '\-?[0-9]+' || true)
	if [ -z "$seed" ] && [ -z "$wseed" ]; then
		echo "$name gate: FAIL (no 'chaos seed N' or 'workload seed N' line logged; not replayable)"
		exit 1
	fi
	pkgs=$(grep -E '^(FAIL|---[ ]FAIL)' "$log" | grep -Eo '\bdpn/[a-z/]+' | sort -u || true)
	[ -n "$pkgs" ] || pkgs=./...
	echo "$name gate: FAIL — replaying with CHAOS_SEED=${seed:-unset} WORKLOAD_SEED=${wseed:-unset}: $pkgs"
	if CHAOS_SEED="$seed" WORKLOAD_SEED="$wseed" go test -race -run "$pat" -count=1 $pkgs; then
		echo "$name gate: FLAKY (seeds passed on replay; original failure did not reproduce)"
		exit 1
	fi
	echo "$name gate: REPRODUCIBLE — rerun with CHAOS_SEED=$seed WORKLOAD_SEED=$wseed to debug"
	exit 1
}

if [ "${1:-}" = "-chaos" ]; then
	# Beside the link-level fault schedules this sweeps the graph-shape
	# fuzzer's random topologies under fault injection
	# (TestGraphFuzzChaos), the session pool, and the stream-equivalence
	# sweep across deployments. First, the reader-move tests once more
	# exactly as written but with DefaultResilience on every test broker:
	# there is one link protocol, so a policy may change when a move
	# completes, never whether (MOVING used to overtake the opening RESUME
	# and hang them).
	echo "chaos gate: DPN_TEST_POLICY=retry go test -race -run '(Move|SecondHop)' -count=3 ./internal/netio ./internal/wire"
	if ! DPN_TEST_POLICY=retry go test -race -run '(Move|SecondHop)' -count=3 -timeout 10m ./internal/netio ./internal/wire; then
		echo "chaos gate: FAIL (reader moves under a retry policy)"
		exit 1
	fi
	seed_gate chaos '(Chaos|Mux|CascadeEquivalence|MoveAfterEOF|MixedPolicy)' 3
fi

if [ "${1:-}" = "-lint" ]; then
	fail=0
	echo "lint gate: go vet ./..."
	go vet ./... || fail=1
	if command -v staticcheck >/dev/null 2>&1; then
		echo "lint gate: staticcheck ./..."
		staticcheck ./... || fail=1
	else
		echo "lint gate: staticcheck not installed; skipping (install it locally to enable)"
	fi
	# The conduit layer is the one data-plane API every package builds
	# on; keep its surface on the modern spelling.
	if grep -n 'interface{}' internal/conduit/*.go; then
		echo "lint gate: interface{} in internal/conduit (use any)"
		fail=1
	fi
	# A channel end has exactly one codec, owned by the port
	# (DESIGN.md, "Port codecs"). A process that wraps its port in a
	# fresh token.NewReader/NewWriter pays an allocation per Step and
	# forks the path the allocation gates measure.
	if grep -rn --include='*.go' --exclude='*_test.go' -e 'token\.NewReader(' -e 'token\.NewWriter(' \
		internal/proclib internal/workload internal/meta internal/graphs; then
		echo "lint gate: token.NewReader/NewWriter in a process library (use port.Tokens())"
		fail=1
	fi
	# One link protocol (DESIGN.md, "What heals: one link protocol"): the retry
	# policy is a value every link holds, never a pointer whose nil-ness
	# selects a second protocol.
	if grep -rn --include='*.go' --exclude='*_test.go' '\*Resilience' internal/netio; then
		echo "lint gate: *Resilience in internal/netio (hold the policy by value)"
		fail=1
	fi
	# The link protocol is a pure state machine (DESIGN.md, "What heals"):
	# sockets, goroutines and clocks belong to its driver in link.go.
	if grep -nE '"(net|sync|time)(/[^"]*)?"' internal/netio/linkcore.go; then
		echo "lint gate: net, sync or time imported by internal/netio/linkcore.go (the driver's, not the core's)"
		fail=1
	fi
	# One owner of the wire format (DESIGN.md, "Session multiplexing"):
	# frames.go encodes every frame, handshake.go the handshake.
	if grep -ln '"encoding/binary"' $(ls internal/netio/*.go | grep -v -e '_test\.go$' -e '/frames\.go$' -e '/handshake\.go$'); then
		echo "lint gate: encoding/binary in internal/netio outside frames.go and handshake.go (the wire format's owners)"
		fail=1
	fi
	# The task farm is one network over a fixed lane set (DESIGN.md,
	# "Load balancing"): no second scheduler, and every decision that
	# depends on timing is a lane's result, never a clock of its own.
	if grep -nE '(^[[:space:]]*|[;{][[:space:]]*)go [[:alnum:]_(]|time\.(NewTicker|AfterFunc)' \
		$(ls internal/meta/*.go | grep -v '_test\.go$'); then
		echo "lint gate: a go statement, time.NewTicker or time.AfterFunc in internal/meta (the farm's timing is its lanes' results)"
		fail=1
	fi
	# One channel list, one series cap (DESIGN.md, "Observability"): the
	# network collects its channels' dpn_conduit_* series, so the data
	# plane names none. netio's dpn_conduit_link_* families live in netio.
	if grep -n '"dpn_conduit_' $(ls internal/conduit/*.go | grep -v '_test\.go$'); then
		echo "lint gate: a dpn_conduit_* series named in internal/conduit (the network collects its channels)"
		fail=1
	fi
	# A park reads no clock (DESIGN.md, "Observability"): the pipe's one
	# clock is the park clock in instruments.go, which only a timed park
	# reads, so a clock read on another path is a cost every park pays.
	if grep -nE 'time\.(Now|Since)\(' $(ls internal/stream/*.go | grep -v '_test\.go$') |
		grep -vE '^internal/stream/instruments\.go:[0-9]+:var (epoch = time\.Now\(\)|parkClock = func\(\) time\.Duration \{ return time\.Since\(epoch\) \})$'; then
		echo "lint gate: time.Now or time.Since in internal/stream outside the park clock (instruments.go's parkClock and its epoch)"
		fail=1
	fi
	# A link's ends are typed (DESIGN.md, "Conduit layering"): netio.Source
	# and netio.Sink declare what every end carries, so a wrapper that
	# drops a capability fails to compile. Only a journal's taps are
	# optional, and newLink looks for them once, when it builds the link.
	if awk '/^func /{fn=$0} /(^|[^[:alnum:]_])(src|dst)\)?\.\(/ && fn !~ /\) newLink\(/ {print FILENAME":"FNR": "$0; bad=1} END{exit !bad}' \
		$(ls internal/netio/*.go | grep -v '_test\.go$'); then
		echo "lint gate: a type assertion on a link's source or sink in internal/netio outside newLink (call the netio.Source/Sink method)"
		fail=1
	fi
	# A server's codebase is the process types a graph can ship
	# (DESIGN.md, "Dynamic code loading is not reproduced"): no binary
	# spawns processes or carries the test framework.
	if go list -deps ./cmd/... | grep -xE 'os/exec|testing'; then
		echo "lint gate: a binary under cmd/ links os/exec or testing (harnesses belong in _test.go files)"
		fail=1
	fi
	if unformatted=$(gofmt -l .) && [ -n "$unformatted" ]; then
		echo "$unformatted"
		echo "lint gate: files above are not gofmt-formatted"
		fail=1
	fi
	[ "$fail" -eq 0 ] && echo "lint gate: PASS" || echo "lint gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-scenarios" ]; then
	pat='(Scenario|Quantile|GraphFuzz|FuzzPlan|StreamOracle|SoakSmoke|RegistryConcurrent|RendezvousStorm)'
	seed_gate scenario "$pat" 1
fi

if [ "${1:-}" = "-codec" ]; then
	fail=0
	# Round-trip identity, the compression-ratio floor (>= 4x monotone
	# int64, raw fallback <= 1.02x), corruption rejection, and the
	# compressed-link integration tests — race-enabled, like everything
	# else that touches the link plane.
	pat='(Codec|CompressedLink|CompressionDisabled|IncompressibleStream|Float64Shape|CorruptCompressed|CascadeEquivalenceCompressedConduits)'
	echo "codec gate: go test -race -run '$pat' -count=1 ./..."
	go test -race -run "$pat" -count=1 -timeout 10m ./... || fail=1
	# A short native fuzz burst per decoder: arbitrary blocks must fail
	# clean (no panic, no over-read), our own blocks must round-trip,
	# and the int64 trial must emit the reference encoder's bytes.
	for target in FuzzDecodeBE FuzzCodecInt64RoundTrip FuzzCodecFloat64RoundTrip FuzzCodecInt64MatchesReference; do
		echo "codec gate: go test -run ^\$ -fuzz $target -fuzztime 5s ./internal/token/blocks/"
		go test -run '^$' -fuzz "$target" -fuzztime 5s ./internal/token/blocks/ || fail=1
	done
	echo "codec gate: go test -run ^\$ -fuzz FuzzReaderDecode -fuzztime 5s ./internal/token/"
	go test -run '^$' -fuzz FuzzReaderDecode -fuzztime 5s ./internal/token/ || fail=1
	[ "$fail" -eq 0 ] && echo "codec gate: PASS" || echo "codec gate: FAIL"
	exit "$fail"
fi

if [ "${1:-}" = "-wal" ]; then
	fail=0
	# The journal itself: torture recovery plus a short native fuzz
	# burst per target (arbitrary segment damage must fail clean; our
	# own framing must round-trip at every offset).
	echo "wal gate: go test -race ./internal/wal"
	go test -race -count=1 -timeout 10m ./internal/wal || fail=1
	for target in FuzzOpenAfterDamage FuzzRecordFraming; do
		echo "wal gate: go test -run ^\$ -fuzz $target -fuzztime 5s ./internal/wal"
		go test -run '^$' -fuzz "$target" -fuzztime 5s ./internal/wal || fail=1
	done
	[ "$fail" -eq 0 ] || { echo "wal gate: FAIL"; exit 1; }
	# The durable plane end to end: journaled bindings surviving
	# endpoint restarts, the crash-found link regressions, and the
	# kill-restart scenario matrix (a re-exec'd producer SIGKILLed
	# twice mid-stream, output byte-identical to the oracle).
	pat='(Durable|KillRestart|JournalDir|RebaseMidChunkCompressedReplay|BrokerCloseInterruptsReconnectBackoff|RateChargesOnlyWrittenBytes)'
	seed_gate wal "$pat" 1
fi

./scripts/check.sh -lint
set -x
go build ./...
go test -race -timeout 120s ./...
# A deadlock monitor without peers has no timer: it checks once as it
# starts, then only when the network signals quiescence (a process
# parking or exiting, a channel registering, a transport link parking
# or returning from a park, each while every process is blocked). A
# lost wake is therefore a hang, not a delay, and may show only under
# some core counts, so the tests that need a resolution run again, 20
# times at each of 1, 2, 4 — a monitor started after its network went
# quiescent (MonitorStartedAfterQuiescenceChecks, in the first list's
# Quiescence), a registration and a link's park and return each raising
# the wake (ChannelRegistrationSignalsQuiescence,
# LinkWaitSignalsQuiescence, in the second) — with the scheduling facts
# they rest on: the pipe's blocked/unblocked
# bookkeeping balances (WakeBookkeeping), a Hamming job's monitor
# passes stay within 3 x its resolutions + 10, the cut stops only
# streams nobody reads (Cut), and the task farm — its fixed lane set
# under a wake-only monitor and under seeded schedules that kill lanes
# mid-run, with its dpn_pool_* series pinned by a golden — stays
# determinate and never looks quiescent while a lane computes
# (Farm|Pool|Dynamic|Turnstile|Select). Across nodes, only the new
# names: a parked transport link is not a blocked process, so neither a
# node's monitor nor one that watches its peers acts while a process
# computes (LinkIsNotAProcess, CoordinatorIgnoresComputingConsumer), a
# monitor that sees one node makes no verdict while a process waits on
# a link (LocalMonitorLeavesLinkWaitUndecided). The network collects
# its own channels' series from the one channel list it keeps: a
# channel's scraped byte and occupancy series equal the bytes moved
# while two goroutines stream through it (ScrapedTallies), every
# scraped counter stays monotone and ends equal to the bytes and tokens
# moved while 1 000 channels are created, streamed through, finished
# and folded (ScrapeWhileChannelsComeAndGo), a fixed graph's
# dpn_conduit_* exposition matches its golden text, before and after
# its finished channel is folded (ConduitExpositionGolden), and a
# sieve that makes about as many channel names as the series cap
# exposes each name whole or not at all
# (SieveChannelSeriesWholeOrNothing). The link
# core's transitions and bug scripts hold (LinkCore), Redirect reads
# the peer a concurrent reader move rewrites under the handle's lock
# (RedirectDuringReaderMove), a reader whose inbound link is journaled
# moves while the link is parked on its full buffer
# (DurableMoveWithFullReaderBuffer), a peer that overruns its window is cut off
# within the inbox bound (OverrunningPeerIsCutOff), a stalled link
# does not stall its session (StalledLinkDoesNotStallItsSession), an
# accepted session is pooled before its read loop runs
# (MuxSessionSharedAcrossLinksBothDirections), a partition started
# at a point the stream cannot pass cascades the close
# (ChaosPrimesPermanentPartitionCascades), and a splice loses, repeats
# and reorders nothing: a pipe's continuation spliced on while its
# reader reads (SpliceConcurrentStress), a Cons splicing itself out
# (ConsSelfRemove, SpliceOutPreservesEveryElement,
# FibonacciWithSelfRemovingCons), and a cut that leaves a spliced
# Cons's stream to its live reader (CutLeavesSplicedConsStreamIntact).
# Run processes (proclib's Scale, Modulo, OrderedMerge, Sequence,
# Collect, Count move what is buffered in one step) keep the streams
# the element-at-a-time processes made: Hamming and the sieve stay
# determinate under perturbed capacities
# (HammingDeterminateUnderCapacityPerturbation,
# SieveDeterminateUnderCapacityPerturbation), the merge emits what an
# element merge emits (OrderedMergeProperty,
# OrderedMergeRunsMatchElementMerge), a limit moves exactly its count
# of elements (RunProcessesHonourElementLimits), and a merge or a
# bounded source moved mid-stream goes on where it stopped
# (MigrateOrderedMergeMidStream, MigrateSequenceMidStream). A window
# reduce resets a closed window's slot in place: a key reopens from
# zero, a flush skips the reset slots, and a reduce gob round-tripped
# with one open and one just-reset slot ends as the oracle does
# (WindowReduceSlotsResetOnClose, WindowReduceResumesAfterGobRoundTrip);
# a shard routes a negative key by its non-negative residue
# (ShardByKeyRoutesNegativeKeys). The park clock times the 1st, 17th,
# 33rd … park of a pipe and op and no other, each untimed park carrying
# the last measurement forward (ParkClockTimesOneParkIn16), and on a
# recorded Hamming run the sampled park histogram's p50 stays within a
# bucket of every park's (SampledParkClockTracksEveryPark). Two callers
# of one compute-server client read its cached broker address under
# the client's lock (BrokerAddrConcurrentCallers).
go test -race -count=20 -cpu 1,2,4 -run 'Deadlock|Quiescence|Artificial|Hamming|MaxCapacity|WakeBookkeeping|Cut|Farm|Pool|Dynamic|Turnstile|Select' \
	./internal/deadlock ./internal/graphs ./internal/stream ./internal/proclib ./internal/meta
go test -race -count=20 -cpu 1,2,4 -run 'TestLinkIsNotAProcess|TestLocalMonitorLeavesLinkWaitUndecided|TestCoordinatorIgnoresComputingConsumer|TestScrapedTalliesMatchBytesMoved|TestScrapeWhileChannelsComeAndGo|TestConduitExpositionGolden|TestSieveChannelSeriesWholeOrNothing|TestLinkCore|TestRedirectDuringReaderMove|TestOverrunningPeerIsCutOff|TestStalledLinkDoesNotStallItsSession|TestMuxSessionSharedAcrossLinksBothDirections|TestChaosPrimesPermanentPartitionCascades|TestSpliceConcurrentStress|TestConsSelfRemove|TestSpliceOutPreservesEveryElement|TestFibonacciWithSelfRemovingCons|TestCutLeavesSplicedConsStreamIntact|TestHammingDeterminateUnderCapacityPerturbation|TestSieveDeterminateUnderCapacityPerturbation|TestOrderedMergeProperty|TestOrderedMergeRunsMatchElementMerge|TestRunProcessesHonourElementLimits|TestMigrateOrderedMergeMidStream|TestMigrateSequenceMidStream|TestWindowReduceSlotsResetOnClose|TestWindowReduceResumesAfterGobRoundTrip|TestShardByKeyRoutesNegativeKeys|TestParkClockTimesOneParkIn16|TestSampledParkClockTracksEveryPark|TestBrokerAddrConcurrentCallers|TestChannelRegistrationSignalsQuiescence|TestLinkWaitSignalsQuiescence|TestDurableMoveWithFullReaderBuffer' \
	./internal/wire ./internal/server ./internal/conduit ./internal/netio ./internal/core ./internal/graphs ./internal/stream ./internal/proclib ./internal/workload
# The benchmark harness is its own module, invisible to ./... above;
# its smoke test is what catches a break of the API its adapter uses.
(cd benchmark && go test ./...)
set +x
./scripts/check.sh -codec
./scripts/check.sh -wal
./scripts/check.sh -chaos
./scripts/check.sh -scenarios
