package workload

// The scenario suite: seeded, self-checking graphs built from the
// package's stages and the process library — the streaming pipeline, a
// dynamically reconfiguring sieve, a seed-replayable graph-shape fuzzer
// (fuzz_test.go), a many-client soak against shared compute servers
// (soak_test.go) and a kill-restart harness (killrestart_test.go).
// Parameterized Dataflow and AstraKahn are the blueprint (PAPERS.md).
//
// Every scenario carries a single-threaded oracle, and check asserts
// the merged output is byte-identical to it under each deployment — the
// cascade-equivalence property of the conduit layer, extended from one
// channel to whole workload graphs. Tokens are fixed-width encodings,
// so int64-slice equality is byte equality on the wire.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/wire"
)

// deployment selects how a scenario's graph is spread over nodes.
type deployment string

const (
	// deployLoopback runs the whole graph on one network: every conduit
	// stays unbound (the zero-cost in-proc plane).
	deployLoopback deployment = "loopback"
	// deployTCP exports the scenario's cut to a second node before
	// execution, so the cut channels cross real broker links.
	deployTCP deployment = "tcp"
	// deployChaos is deployTCP with a seeded fault injector (latency, drops,
	// short writes) on both brokers; resilient links must heal.
	deployChaos deployment = "chaos"
	// deployMigration is deployTCP plus a live mid-stream migration of the
	// collector to a third node once it has made progress.
	deployMigration deployment = "migration"
)

// deployments lists every deployment, in verification order.
var deployments = []deployment{deployLoopback, deployTCP, deployChaos, deployMigration}

// graph is what a scenario build produces. Build spawns the graph's
// upstream processes on the origin network directly; Cut holds the
// not-yet-spawned tail (ending in Tail) that distributed deployments
// ship to another node and deployLoopback spawns locally.
type graph struct {
	Cut  []any
	Tail *collector
}

// scenario is one seeded, self-checking workload.
type scenario struct {
	Name string
	// Build wires the graph into n, spawning everything except the
	// processes it returns in graph.Cut. pace throttles the graph's
	// sources (0 = full speed) so chaos and migration deployments
	// reliably overlap a live stream.
	Build func(seed int64, pace time.Duration, n *core.Network) *graph
	// Oracle computes the expected merged output single-threaded.
	Oracle func(seed int64) []int64
}

// collector is the scenario tail: it collects the merged int64 output.
// Vals is exported so the collected prefix survives a migration; the
// atomic mirror lets drivers poll progress on a live process without
// racing (the capCollect pattern from the cascade-equivalence test).
type collector struct {
	In   *core.ReadPort
	Vals []int64

	seen atomic.Int64
}

// Step implements core.Stepper.
func (c *collector) Step(env *core.Env) error {
	v, err := c.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	c.Vals = append(c.Vals, v)
	c.seen.Store(int64(len(c.Vals)))
	return nil
}

// progress reports how many elements the collector has seen; safe to
// call while the collector runs.
func (c *collector) progress() int64 { return c.seen.Load() }

func init() {
	gob.Register(&collector{})
}

// runOptions tune a deployment run.
type runOptions struct {
	// Pace throttles scenario sources (passed through to Build).
	Pace time.Duration
	// ChaosSeed seeds the fault schedule of the chaos deployment.
	ChaosSeed int64
	// MigrateAfter is the collector progress (elements) the deployMigration
	// deployment waits for before moving it; default 1.
	MigrateAfter int64
	// Timeout bounds each network's termination; default 60s.
	Timeout time.Duration
	// Stats, when non-nil, receives measurements from the run.
	Stats *runStats
	// KillAt lists collector progress marks (elements) at which the
	// deployKillRestart deployment SIGKILLs and restarts the child; check
	// defaults it to a quarter and half of the oracle length.
	KillAt []int64
	// KRDir is the WAL root for the killrestart deployment's durable
	// conduit (default: a fresh temp dir, removed afterwards).
	KRDir string
}

// runStats are measurements harvested from a run's origin node.
type runStats struct {
	Elapsed time.Duration
	// Tokens is the total dpn_conduit_tokens_total over the origin
	// network's channels (loopback counts every hop; distributed
	// deployments count the origin-side hops).
	Tokens int64
	// Recoveries, for the killrestart deployment, records the time from
	// each child restart to the first element the dead incarnation had
	// not already delivered.
	Recoveries []time.Duration
}

// runScenario executes the scenario under the given deployment and returns the
// collected merged output.
func runScenario(sc scenario, seed int64, d deployment, opt runOptions) ([]int64, error) {
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	start := time.Now()
	vals, origin, err := deploy(sc, seed, d, opt, timeout)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", sc.Name, d, err)
	}
	if opt.Stats != nil {
		opt.Stats.Elapsed = time.Since(start)
		opt.Stats.Tokens = scopeTokens(origin)
	}
	return vals, nil
}

func deploy(sc scenario, seed int64, d deployment, opt runOptions, timeout time.Duration) ([]int64, *core.Network, error) {
	switch d {
	case deployKillRestart:
		vals, err := runKillRestart(sc, seed, opt, timeout)
		return vals, nil, err

	case deployLoopback:
		n := core.NewNetwork()
		g := sc.Build(seed, opt.Pace, n)
		for _, p := range g.Cut {
			n.Spawn(p)
		}
		if err := waitNet(n, "loopback network", timeout); err != nil {
			return nil, nil, err
		}
		return g.Tail.Vals, n, nil

	case deployTCP, deployChaos:
		a, err := newNode()
		if err != nil {
			return nil, nil, err
		}
		defer a.Close()
		b, err := newNode()
		if err != nil {
			return nil, nil, err
		}
		defer b.Close()
		if d == deployChaos {
			chaosify(a, opt.ChaosSeed)
			chaosify(b, opt.ChaosSeed+1)
		}
		g := sc.Build(seed, opt.Pace, a.Net)
		procs, col, err := shipCut(a, b, g.Cut)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range procs {
			b.Net.Spawn(p)
		}
		if err := waitNet(a.Net, "origin node", timeout); err != nil {
			return nil, nil, err
		}
		if err := waitNet(b.Net, "cut node", timeout); err != nil {
			return nil, nil, err
		}
		return col.Vals, a.Net, nil

	case deployMigration:
		a, err := newNode()
		if err != nil {
			return nil, nil, err
		}
		defer a.Close()
		b, err := newNode()
		if err != nil {
			return nil, nil, err
		}
		defer b.Close()
		c, err := newNode()
		if err != nil {
			return nil, nil, err
		}
		defer c.Close()
		g := sc.Build(seed, opt.Pace, a.Net)
		procs, colB, err := shipCut(a, b, g.Cut)
		if err != nil {
			return nil, nil, err
		}
		var h *core.Proc
		for _, p := range procs {
			pr := b.Net.Spawn(p)
			if p == any(colB) {
				h = pr
			}
		}
		after := opt.MigrateAfter
		if after <= 0 {
			after = 1
		}
		deadline := time.Now().Add(timeout)
		for colB.progress() < after {
			if time.Now().After(deadline) {
				return nil, nil, fmt.Errorf("collector made no progress before migration (at %d, want %d)", colB.progress(), after)
			}
			time.Sleep(200 * time.Microsecond)
		}
		p2, err := wire.Migrate(b, c.Broker.Addr(), h)
		if err != nil {
			return nil, nil, fmt.Errorf("migrate: %w", err)
		}
		shipped, err := ship(p2)
		if err != nil {
			return nil, nil, err
		}
		procsC, err := wire.Import(c, shipped)
		if err != nil {
			return nil, nil, fmt.Errorf("import after migrate: %w", err)
		}
		colC := findCollector(procsC)
		if colC == nil {
			return nil, nil, fmt.Errorf("migrated parcel has no collector")
		}
		for _, p := range procsC {
			c.Net.Spawn(p)
		}
		if err := waitNet(a.Net, "origin node", timeout); err != nil {
			return nil, nil, err
		}
		if err := waitNet(b.Net, "old collector node", timeout); err != nil {
			return nil, nil, err
		}
		if err := waitNet(c.Net, "new collector node", timeout); err != nil {
			return nil, nil, err
		}
		return colC.Vals, a.Net, nil
	}
	return nil, nil, fmt.Errorf("unknown deployment %q", d)
}

// check runs the scenario under the deployment and asserts the merged
// output is identical to the single-threaded oracle.
func check(sc scenario, seed int64, d deployment, opt runOptions) error {
	want := sc.Oracle(seed)
	if opt.MigrateAfter <= 0 {
		opt.MigrateAfter = int64(len(want) / 4)
	}
	if d == deployKillRestart && len(opt.KillAt) == 0 {
		opt.KillAt = []int64{int64(len(want) / 4), int64(len(want) / 2)}
	}
	got, err := runScenario(sc, seed, d, opt)
	if err != nil {
		return err
	}
	if err := equal(got, want); err != nil {
		return fmt.Errorf("%s/%s (seed %d): %w", sc.Name, d, seed, err)
	}
	return nil
}

func equal(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("output diverged from oracle: %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("output diverged from oracle at element %d: %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// shipCut exports the cut to node b through a gob round trip (as the
// compute-server RPC would) and returns the imported processes plus
// the collector among them.
func shipCut(a, b *wire.Node, cut []any) ([]any, *collector, error) {
	parcel, err := wire.Export(a, b.Broker.Addr(), cut...)
	if err != nil {
		return nil, nil, fmt.Errorf("export: %w", err)
	}
	shipped, err := ship(parcel)
	if err != nil {
		return nil, nil, err
	}
	procs, err := wire.Import(b, shipped)
	if err != nil {
		return nil, nil, fmt.Errorf("import: %w", err)
	}
	col := findCollector(procs)
	if col == nil {
		return nil, nil, fmt.Errorf("cut has no collector")
	}
	return procs, col, nil
}

func ship(p *wire.Parcel) (*wire.Parcel, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("parcel encode: %w", err)
	}
	var out wire.Parcel
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, fmt.Errorf("parcel decode: %w", err)
	}
	return &out, nil
}

func findCollector(procs []any) *collector {
	for _, p := range procs {
		if c, ok := p.(*collector); ok {
			return c
		}
	}
	return nil
}

func newNode() (*wire.Node, error) {
	return wire.NewLocalNode("127.0.0.1:0")
}

// chaosify installs a seeded fault schedule and test-speed resilience
// on the node's broker (the chaos-gate configuration: every link sees
// latency, drops, and short writes, and must heal).
func chaosify(n *wire.Node, seed int64) {
	n.Broker.SetFaults(faults.New(faults.Config{
		Seed:       seed,
		Latency:    200 * time.Microsecond,
		Jitter:     300 * time.Microsecond,
		Drop:       0.02,
		ShortWrite: 0.05,
	}))
	n.Broker.SetResilience(netio.Resilience{
		HeartbeatEvery: 30 * time.Millisecond,
		MissDeadline:   150 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       60 * time.Millisecond,
		LinkDeadline:   10 * time.Second,
		Seed:           seed,
	})
}

func waitNet(n *core.Network, what string, d time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		return nil
	case <-time.After(d):
		return fmt.Errorf("%s did not terminate within %v", what, d)
	}
}

// scopeTokens sums dpn_conduit_tokens_total over a network's scope.
func scopeTokens(n *core.Network) int64 {
	if n == nil {
		return 0
	}
	var total int64
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_conduit_tokens_total" {
			total += s.Value
		}
	}
	return total
}

// catalog returns the standard scenario suite at gate scale: small
// enough that the full deployment × scenario matrix runs under -race
// in the -scenarios gate, large enough that windows close, flushes
// interleave, and the sieve reconfigures continuously.
func catalog(fuzzSeed int64) []scenario {
	return []scenario{
		streaming("stream-int64", streamSpec{records: 1200, keys: 12, window: 4, shards: 3, batch: 32}),
		streaming("stream-float64", streamSpec{records: 1000, keys: 10, window: 5, shards: 2, batch: 24, float: true}),
		sieve(true),
		newFuzzPlan(fuzzSeed).asScenario(),
	}
}

// workloadSeed returns the suite seed. WORKLOAD_SEED overrides the
// default so a logged failing run can be replayed exactly (the
// -scenarios gate does this automatically, like the chaos gate).
func workloadSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := def
	if s := os.Getenv("WORKLOAD_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("WORKLOAD_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("workload seed %d", seed)
	return seed
}

// settled polls until the goroutine count returns to the baseline
// (plus slack for runtime helpers), failing the test otherwise.
func settled(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// deployOptions picks per-deployment pacing: distributed deployments
// throttle the sources so faults and migrations overlap a live
// stream; loopback and tcp run full speed.
func deployOptions(d deployment, seed int64) runOptions {
	switch d {
	case deployChaos:
		return runOptions{Pace: 200 * time.Microsecond, ChaosSeed: seed}
	case deployMigration:
		return runOptions{Pace: 2 * time.Millisecond}
	default:
		return runOptions{}
	}
}

// TestScenarioOracleEquivalence is the tentpole property: every
// catalog scenario's merged output is byte-identical to its
// single-threaded oracle under loopback, tcp, chaos-injected, and
// mid-migration deployments.
func TestScenarioOracleEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed scenario matrix in -short mode")
	}
	base := workloadSeed(t, 2003)
	for _, sc := range catalog(base) {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, d := range deployments {
				if err := check(sc, base, d, deployOptions(d, base)); err != nil {
					t.Fatalf("replay with WORKLOAD_SEED=%d: %v", base, err)
				}
			}
		})
	}
}

// TestScenarioOraclesAreDeterministic: the oracle itself must be a
// pure function of the seed — the suite's ground truth.
func TestScenarioOraclesAreDeterministic(t *testing.T) {
	seed := workloadSeed(t, 77)
	for _, sc := range catalog(seed) {
		a, b := sc.Oracle(seed), sc.Oracle(seed)
		if err := equal(a, b); err != nil {
			t.Fatalf("%s oracle is not deterministic: %v", sc.Name, err)
		}
		if len(a) == 0 {
			t.Fatalf("%s oracle is empty", sc.Name)
		}
	}
}

// TestStreamOracleShape pins structural invariants of the streaming
// oracle: triples, window-close tags strictly increasing, flush
// entries last and key-sorted.
func TestStreamOracleShape(t *testing.T) {
	spec := streamSpec{records: 500, keys: 7, window: 3, shards: 2, batch: 16}
	out := streamOracle(spec, workloadSeed(t, 5))
	if len(out)%3 != 0 {
		t.Fatalf("oracle length %d is not a multiple of 3", len(out))
	}
	lastTag, lastFlushKey := int64(-1), int64(-1)
	inFlush := false
	for i := 0; i < len(out); i += 3 {
		tag, key := out[i], out[i+1]
		if tag == flushTag {
			inFlush = true
			if key <= lastFlushKey {
				t.Fatalf("flush keys not ascending at %d", i)
			}
			lastFlushKey = key
			continue
		}
		if inFlush {
			t.Fatalf("window close after flush at %d", i)
		}
		if tag <= lastTag {
			t.Fatalf("window-close tags not ascending at %d", i)
		}
		lastTag = tag
	}
}

// TestScenarioLoopbackStats: runScenario must report tokens and elapsed time
// when asked.
func TestScenarioLoopbackStats(t *testing.T) {
	seed := workloadSeed(t, 11)
	sc := catalog(seed)[0]
	var st runStats
	got, err := runScenario(sc, seed, deployLoopback, runOptions{Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || st.Tokens <= 0 || st.Elapsed <= 0 {
		t.Fatalf("stats not populated: %d elements, %d tokens, %v", len(got), st.Tokens, st.Elapsed)
	}
	if st.Tokens < int64(len(got)) {
		t.Fatalf("token count %d below collected elements %d", st.Tokens, len(got))
	}
}
