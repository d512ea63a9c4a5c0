package graphs

import (
	"io"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/proclib"
	"dpn/internal/token"
	"dpn/internal/wire"
)

// Distributed chaos tests: the determinacy argument of the local
// capacity-perturbation tests (chaos_test.go), extended across the
// network. A Kahn network computes the same streams no matter how its
// links behave, so a seeded fault schedule on every connection —
// latency, drops, short writes, partitions — must leave the collected
// output byte-identical to a fault-free run, as long as the resilient
// links heal. When they cannot heal (a permanent partition), the links
// degrade by poisoning their channel ends and the §3.4 cascading close
// must terminate every process on both nodes with no goroutine left
// behind.
//
// Every test logs "chaos seed N"; rerun a failure exactly with
// CHAOS_SEED=N (scripts/check.sh -chaos does this automatically).

// chaosSeed returns the seed for a chaos test. CHAOS_SEED overrides
// the default so a logged failing schedule can be replayed exactly.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED: %v", err)
		}
		return v
	}
	return def
}

// chaosResilience returns test-speed link resilience: fast heartbeats
// and retries so partitions are detected and healed within a test run.
func chaosResilience(seed int64) netio.Resilience {
	return netio.Resilience{
		HeartbeatEvery: 30 * time.Millisecond,
		MissDeadline:   150 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       60 * time.Millisecond,
		LinkDeadline:   10 * time.Second,
		Seed:           seed,
	}
}

func newChaosNode(t *testing.T, inj *faults.Injector, res netio.Resilience) *wire.Node {
	t.Helper()
	n, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.Broker.SetFaults(inj)
	n.Broker.SetResilience(res)
	t.Cleanup(func() { n.Close() })
	return n
}

// pacedSeq writes From..From+N-1, sleeping Every between elements, so
// the cross-node stream stays live long enough for a mid-run partition
// to interleave with it. If Hold is set, it writes its first element
// and then waits for Hold to close, so a fault can start at a point
// the stream cannot pass. It never migrates, so it needs no gob
// registration.
type pacedSeq struct {
	From, N int64
	Every   time.Duration
	Hold    <-chan struct{}
	Out     *core.WritePort
	i       int64
}

func (s *pacedSeq) Step(env *core.Env) error {
	if s.i >= s.N {
		return io.EOF
	}
	if s.i == 1 && s.Hold != nil {
		<-s.Hold
	}
	if s.Every > 0 {
		time.Sleep(s.Every)
	}
	v := s.From + s.i
	s.i++
	return token.NewWriter(s.Out).WriteInt64(v)
}

// splitPrimes spawns the paced integer source (held at hold, if set;
// see pacedSeq) and the sieve on node a and returns the still-unspawned
// collector, ready for export to another node — the examples/primes
// graph cut at its output channel.
func splitPrimes(a *wire.Node, limit int64, pace time.Duration, hold <-chan struct{}) *proclib.Collect {
	src := a.Net.NewChannel("ints", 0)
	out := a.Net.NewChannel("primes", 0)
	a.Net.Spawn(&pacedSeq{From: 2, N: limit - 2, Every: pace, Hold: hold, Out: src.Writer()})
	a.Net.Spawn(&proclib.Sift{In: src.Reader(), Out: out.Writer()})
	return &proclib.Collect{In: out.Reader()}
}

// splitHamming wires the Figure 12 Hamming graph on node a — identical
// to Hamming() — but returns the collector unspawned for export. The
// graph is unbounded, so a distributed run needs a monitor that watches
// both nodes (§6.2) to grow channels.
func splitHamming(a *wire.Node, count int64, capacity int) *proclib.Collect {
	n := a.Net
	seed := n.NewChannel("seed", capacity)
	merged := n.NewChannel("merged", capacity)
	out := n.NewChannel("out", capacity)
	loop := n.NewChannel("loop", capacity)
	d2 := n.NewChannel("d2", capacity)
	d3 := n.NewChannel("d3", capacity)
	d5 := n.NewChannel("d5", capacity)
	s2 := n.NewChannel("s2", capacity)
	s3 := n.NewChannel("s3", capacity)
	s5 := n.NewChannel("s5", capacity)

	one := &proclib.Constant{Value: 1, Out: seed.Writer()}
	one.Iterations = 1
	n.Spawn(one)
	n.Spawn(&proclib.Cons{HeadIn: seed.Reader(), In: merged.Reader(), Out: out.Writer()})
	n.Spawn(&proclib.Duplicate{In: out.Reader(), Outs: []*core.WritePort{
		loop.Writer(), d2.Writer(),
	}})
	n.Spawn(&proclib.Duplicate{In: d2.Reader(), Outs: []*core.WritePort{
		d3.Writer(), d5.Writer(),
	}})
	n.Spawn(&proclib.Scale{Factor: 2, In: d3.Reader(), Out: s2.Writer()})
	n.Spawn(&proclib.Scale{Factor: 3, In: d5.Reader(), Out: s3.Writer()})
	d5b := n.NewChannel("d5b", capacity)
	sinkIn := n.NewChannel("sinkIn", capacity)
	n.Spawn(&proclib.Duplicate{In: loop.Reader(), Outs: []*core.WritePort{
		d5b.Writer(), sinkIn.Writer(),
	}})
	n.Spawn(&proclib.Scale{Factor: 5, In: d5b.Reader(), Out: s5.Writer()})
	n.Spawn(&proclib.OrderedMerge{
		Ins: []*core.ReadPort{s2.Reader(), s3.Reader(), s5.Reader()},
		Out: merged.Writer(),
	})
	sink := &proclib.Collect{In: sinkIn.Reader()}
	sink.Iterations = count
	return sink
}

func findSink(t *testing.T, procs []any) *proclib.Collect {
	t.Helper()
	for _, p := range procs {
		if c, ok := p.(*proclib.Collect); ok {
			return c
		}
	}
	t.Fatal("collector did not survive the move")
	return nil
}

func waitNetChaos(t *testing.T, n *core.Network, what string, timeout time.Duration, mustClean bool) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			if mustClean {
				t.Fatalf("%s: %v", what, err)
			}
			t.Logf("%s terminated with: %v", what, err)
		}
	case <-time.After(timeout):
		t.Fatalf("%s did not terminate under chaos", what)
	}
}

// exportSink ships the collector from a to b and spawns it there.
func exportSink(t *testing.T, a, b *wire.Node, sink *proclib.Collect) *proclib.Collect {
	t.Helper()
	parcel, err := wire.Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := wire.Import(b, parcel)
	if err != nil {
		t.Fatal(err)
	}
	remote := findSink(t, procs)
	for _, p := range procs {
		b.Net.Spawn(p)
	}
	return remote
}

// linkSeries sums the nodes' dpn_conduit_link_<event>_total counter.
func linkSeries(event string, nodes ...*wire.Node) (n int64) {
	for _, nd := range nodes {
		n += nd.Obs().Registry().Counter("dpn_conduit_link_" + event + "_total").Value()
	}
	return n
}

// partitionWhenFlowing starts a partition once payload has crossed to
// b, so the outage interleaves with an established, active link, and
// then closes release, letting the source held there (splitPrimes) run
// on into the outage.
func partitionWhenFlowing(b *wire.Node, inj *faults.Injector, d time.Duration, release chan struct{}) {
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for b.Broker.BytesIn() < 8 && time.Now().Before(deadline) {
			time.Sleep(500 * time.Microsecond)
		}
		inj.PartitionNow(d)
		close(release)
	}()
}

// The headline acceptance scenario: primes across two nodes, a 500ms
// stall partition mid-stream. The link must detect the outage via
// missed heartbeats, reconnect after the heal, resynchronize with the
// RESUME handshake, and deliver output byte-identical to a fault-free
// run.
func TestChaosPrimesPartitionHealsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	seed := chaosSeed(t, 42)
	t.Logf("chaos seed %d", seed)
	const limit = 150
	want := primesRef(limit)

	inj := faults.New(faults.Config{Seed: seed, Stall: true})
	res := chaosResilience(seed)
	a := newChaosNode(t, inj, res)
	b := newChaosNode(t, inj, res)

	hold := make(chan struct{})
	sink := splitPrimes(a, limit, 2*time.Millisecond, hold)
	remote := exportSink(t, a, b, sink)
	partitionWhenFlowing(b, inj, 500*time.Millisecond, hold)

	waitNetChaos(t, a.Net, "origin node", 60*time.Second, true)
	waitNetChaos(t, b.Net, "remote node", 60*time.Second, true)
	if got := remote.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos run diverged from the fault-free output:\n got %v\nwant %v", got, want)
	}
	if inj.Injected() == 0 {
		t.Fatal("fault injector never fired; the partition missed the stream")
	}
	if heals := linkSeries("partition_heal", a, b); heals == 0 {
		t.Fatal("stream completed without a link reconnect; partition was not exercised")
	}
	t.Logf("injected=%d heals=%d misses=%d retries=%d", inj.Injected(),
		linkSeries("partition_heal", a, b),
		linkSeries("heartbeat_miss", a, b),
		linkSeries("retries", a, b))
}

// The degrade half of the acceptance scenario: the same split run with
// a partition that never heals. The links must exhaust LinkDeadline,
// poison their channel ends, and let the §3.4 cascading close stop
// every process on both nodes — no hang, no leaked goroutine — with
// the delivered output a strict prefix of the fault-free stream.
func TestChaosPrimesPermanentPartitionCascades(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	seed := chaosSeed(t, 43)
	t.Logf("chaos seed %d", seed)
	const limit = 150
	want := primesRef(limit)

	baseline := runtime.NumGoroutine()
	inj := faults.New(faults.Config{Seed: seed, Stall: true})
	res := chaosResilience(seed)
	res.LinkDeadline = 700 * time.Millisecond
	a := newChaosNode(t, inj, res)
	b := newChaosNode(t, inj, res)

	hold := make(chan struct{})
	sink := splitPrimes(a, limit, time.Millisecond, hold)
	remote := exportSink(t, a, b, sink)
	partitionWhenFlowing(b, inj, 0, hold) // never heals

	waitNetChaos(t, a.Net, "origin node", 30*time.Second, false)
	waitNetChaos(t, b.Net, "remote node", 30*time.Second, false)

	got := remote.Values()
	if len(got) == 0 || len(got) > len(want) || !reflect.DeepEqual(got, want[:len(got)]) {
		t.Fatalf("degraded output is not a non-empty prefix of the fault-free stream: %v", got)
	}
	// A degrading link closes its channel end, which starts the cascade,
	// before it counts the failure: the networks can finish first.
	deadline := time.Now().Add(10 * time.Second)
	for linkSeries("failures", a, b) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("network terminated without any link degrading")
		}
		time.Sleep(time.Millisecond)
	}
	// Everything must wind down: link goroutines, heartbeats, processes.
	a.Close()
	b.Close()
	if !goroutineSettled(baseline) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked after cascading close: %d -> %d\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	}
}

// runChaosPrimes runs one seeded randomized fault schedule over the
// split primes graph and requires byte-identical output.
func runChaosPrimes(t *testing.T, seed int64, cfg faults.Config) {
	t.Helper()
	t.Logf("chaos seed %d", seed)
	const limit = 120
	want := primesRef(limit)
	inj := faults.New(cfg)
	res := chaosResilience(seed)
	a := newChaosNode(t, inj, res)
	b := newChaosNode(t, inj, res)
	sink := splitPrimes(a, limit, 200*time.Microsecond, nil)
	remote := exportSink(t, a, b, sink)
	waitNetChaos(t, a.Net, "origin node", 60*time.Second, true)
	waitNetChaos(t, b.Net, "remote node", 60*time.Second, true)
	if got := remote.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d diverged from the fault-free output:\n got %v\nwant %v", seed, got, want)
	}
	t.Logf("injected=%d heals=%d", inj.Injected(),
		linkSeries("partition_heal", a, b))
}

// Property-style determinacy sweep: N seeded schedules of drops, short
// writes, latency, and jitter over the distributed primes graph. Every
// schedule must produce the identical stream.
func TestChaosPrimesManySchedules(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	base := chaosSeed(t, 200)
	for trial := int64(0); trial < 3; trial++ {
		seed := base + trial
		cfg := faults.Config{
			Seed:       seed,
			Latency:    time.Duration(trial) * 100 * time.Microsecond,
			Jitter:     200 * time.Microsecond,
			Drop:       0.01 + 0.02*float64(trial),
			ShortWrite: 0.01 * float64(trial),
		}
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosPrimes(t, seed, cfg)
		})
	}
}

// runChaosHamming runs the distributed Hamming graph — unbounded, so
// it artificially deadlocks until the §6.2 distributed detection grows
// channels — under one seeded fault schedule, with a monitor on a
// watching b as its peer throughout.
func runChaosHamming(t *testing.T, seed int64, cfg faults.Config) {
	t.Helper()
	t.Logf("chaos seed %d", seed)
	const count = 80
	want := hammingRef(count)
	inj := faults.New(cfg)
	res := chaosResilience(seed)
	a := newChaosNode(t, inj, res)
	b := newChaosNode(t, inj, res)
	sink := splitHamming(a, count, 16)
	remote := exportSink(t, a, b, sink)

	mon := deadlock.New(a.Net, 4*time.Millisecond, b)
	mon.Start()
	defer mon.Stop()

	waitNetChaos(t, a.Net, "origin node", 120*time.Second, true)
	waitNetChaos(t, b.Net, "remote node", 120*time.Second, true)
	if got := remote.Values(); !reflect.DeepEqual(got, want[:len(want)]) {
		t.Fatalf("seed %d diverged from the fault-free output:\n got %v\nwant %v", seed, got, want)
	}
	if mon.Resolutions() == 0 {
		t.Fatal("expected the monitor to grow at least one channel")
	}
	t.Logf("resolutions=%d injected=%d heals=%d", mon.Resolutions(),
		inj.Injected(), linkSeries("partition_heal", a, b))
}

// Distributed determinacy for the Hamming graph: seeded fault
// schedules with a monitor that watches both nodes keeping the
// unbounded graph alive.
func TestChaosHammingDistributedCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	base := chaosSeed(t, 300)
	for trial := int64(0); trial < 2; trial++ {
		seed := base + trial
		cfg := faults.Config{
			Seed:    seed,
			Latency: 100 * time.Microsecond,
			Jitter:  200 * time.Microsecond,
			Drop:    0.02 * float64(trial),
		}
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			runChaosHamming(t, seed, cfg)
		})
	}
}
