// Package workload grows the evaluation surface beyond the paper's
// RSA-factorization demo into a regression-gated scenario suite
// (Parameterized Dataflow and AstraKahn are the blueprint — see
// PAPERS.md): a windowed keyed streaming-analytics pipeline, a
// dynamically reconfiguring sieve, a seed-replayable graph-shape
// fuzzer, and a many-client soak driver that runs hundreds of
// concurrent graphs against a shared compute-server node set.
//
// Every scenario is seeded and self-checking: it carries a
// single-threaded oracle, and Check asserts the merged output is
// byte-identical to the oracle under each Deployment — the cascade-
// equivalence property of the conduit layer, extended from one channel
// to whole workload graphs. Tokens are fixed-width encodings, so
// int64-slice equality is byte equality on the wire.
package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync/atomic"
	"time"

	"dpn/internal/core"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/wire"
)

// Deployment selects how a scenario's graph is spread over nodes.
type Deployment string

const (
	// Loopback runs the whole graph on one network: every conduit
	// stays unbound (the zero-cost in-proc plane).
	Loopback Deployment = "loopback"
	// TCP exports the scenario's cut to a second node before
	// execution, so the cut channels cross real broker links.
	TCP Deployment = "tcp"
	// Chaos is TCP with a seeded fault injector (latency, drops,
	// short writes) on both brokers; resilient links must heal.
	Chaos Deployment = "chaos"
	// Migration is TCP plus a live mid-stream migration of the
	// collector to a third node once it has made progress.
	Migration Deployment = "migration"
)

// Deployments lists every deployment, in verification order.
var Deployments = []Deployment{Loopback, TCP, Chaos, Migration}

// Graph is what a scenario build produces. Build spawns the graph's
// upstream processes on the origin network directly; Cut holds the
// not-yet-spawned tail (ending in Tail) that distributed deployments
// ship to another node and Loopback spawns locally.
type Graph struct {
	Cut  []any
	Tail *Collector
}

// Scenario is one seeded, self-checking workload.
type Scenario struct {
	Name string
	// Build wires the graph into n, spawning everything except the
	// processes it returns in Graph.Cut. pace throttles the graph's
	// sources (0 = full speed) so chaos and migration deployments
	// reliably overlap a live stream.
	Build func(seed int64, pace time.Duration, n *core.Network) *Graph
	// Oracle computes the expected merged output single-threaded.
	Oracle func(seed int64) []int64
}

// Collector is the scenario tail: it collects the merged int64 output.
// Vals is exported so the collected prefix survives a migration; the
// atomic mirror lets drivers poll progress on a live process without
// racing (the capCollect pattern from the cascade-equivalence test).
type Collector struct {
	In   *core.ReadPort
	Vals []int64

	progress atomic.Int64
}

// Step implements core.Stepper.
func (c *Collector) Step(env *core.Env) error {
	v, err := c.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	c.Vals = append(c.Vals, v)
	c.progress.Store(int64(len(c.Vals)))
	return nil
}

// Progress reports how many elements the collector has seen; safe to
// call while the collector runs.
func (c *Collector) Progress() int64 { return c.progress.Load() }

func init() {
	gob.Register(&Collector{})
}

// RunOptions tune a deployment run.
type RunOptions struct {
	// Pace throttles scenario sources (passed through to Build).
	Pace time.Duration
	// ChaosSeed seeds the fault schedule of the Chaos deployment.
	ChaosSeed int64
	// MigrateAfter is the collector progress (elements) the Migration
	// deployment waits for before moving it; default 1.
	MigrateAfter int64
	// Timeout bounds each network's termination; default 60s.
	Timeout time.Duration
	// Stats, when non-nil, receives measurements from the run.
	Stats *RunStats
	// KillAt lists collector progress marks (elements) at which the
	// KillRestart deployment SIGKILLs and restarts the child; Check
	// defaults it to a quarter and half of the oracle length.
	KillAt []int64
	// KRDir is the WAL root for the KillRestart deployment's durable
	// conduit (default: a fresh temp dir, removed afterwards).
	KRDir string
}

// RunStats are measurements harvested from a run's origin node.
type RunStats struct {
	Elapsed time.Duration
	// Tokens is the total dpn_conduit_tokens_total over the origin
	// network's channels (loopback counts every hop; distributed
	// deployments count the origin-side hops).
	Tokens int64
	// Recoveries, for the KillRestart deployment, records the time from
	// each child restart to the first element the dead incarnation had
	// not already delivered.
	Recoveries []time.Duration
}

// Run executes the scenario under the given deployment and returns the
// collected merged output.
func Run(sc Scenario, seed int64, d Deployment, opt RunOptions) ([]int64, error) {
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = 60 * time.Second
	}
	start := time.Now()
	vals, origin, err := run(sc, seed, d, opt, timeout)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", sc.Name, d, err)
	}
	if opt.Stats != nil {
		opt.Stats.Elapsed = time.Since(start)
		opt.Stats.Tokens = scopeTokens(origin)
	}
	return vals, nil
}

func run(sc Scenario, seed int64, d Deployment, opt RunOptions, timeout time.Duration) ([]int64, *core.Network, error) {
	switch d {
	case KillRestart:
		vals, err := runKillRestart(sc, seed, opt, timeout)
		return vals, nil, err

	case Loopback:
		n := core.NewNetwork()
		g := sc.Build(seed, opt.Pace, n)
		for _, p := range g.Cut {
			n.Spawn(p)
		}
		if err := waitNet(n, "loopback network", timeout); err != nil {
			return nil, nil, err
		}
		return g.Tail.Vals, n, nil

	case TCP, Chaos:
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
		if d == Chaos {
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

	case Migration:
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
		for colB.Progress() < after {
			if time.Now().After(deadline) {
				return nil, nil, fmt.Errorf("collector made no progress before migration (at %d, want %d)", colB.Progress(), after)
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

// Check runs the scenario under the deployment and asserts the merged
// output is identical to the single-threaded oracle.
func Check(sc Scenario, seed int64, d Deployment, opt RunOptions) error {
	want := sc.Oracle(seed)
	if opt.MigrateAfter <= 0 {
		opt.MigrateAfter = int64(len(want) / 4)
	}
	if d == KillRestart && len(opt.KillAt) == 0 {
		opt.KillAt = []int64{int64(len(want) / 4), int64(len(want) / 2)}
	}
	got, err := Run(sc, seed, d, opt)
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
func shipCut(a, b *wire.Node, cut []any) ([]any, *Collector, error) {
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

func findCollector(procs []any) *Collector {
	for _, p := range procs {
		if c, ok := p.(*Collector); ok {
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
