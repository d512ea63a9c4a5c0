package workload

import (
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/meta"
	"dpn/internal/obs"
	"dpn/internal/server"
	"dpn/internal/wire"
)

// The soak driver runs many concurrent graphs against one shared
// compute-server node set — the many-clients-few-servers shape the
// paper's compute-server model is built for (§4). Half the graphs are
// streaming pipelines whose shard/reduce/merge cut is shipped to a
// server via the RPC client (the generator and collector stay
// client-side, like the paper's RSA demo keeps its consumer at home);
// the other half are task farms stressing the scheduler. Every
// graph is seeded and verified against its oracle, and the report's
// latency percentiles come from the graphs' histograms
// (Registry.Samples → Sample.Quantile), the series an operator
// scraping /metrics reads.

// soakConfig parameterizes runSoak. Zero fields take defaults.
type soakConfig struct {
	Graphs  int // concurrent graphs, split between families (default 120)
	Servers int // shared compute servers (default 3)

	// Stream family scale (per graph).
	Records int64 // default 1500
	Keys    int64 // default 8
	Window  int64 // default 4
	Shards  int   // default 2
	Batch   int   // default 64

	// Pool family scale (per graph).
	Tasks int64 // default 48
	Lanes int   // default 3
	Spin  int   // splitmix rounds per task (default 400)

	Seed    int64
	Timeout time.Duration // per-graph termination bound (default 90s)
}

func (c soakConfig) withDefaults() soakConfig {
	def := func(p *int, v int) {
		if *p <= 0 {
			*p = v
		}
	}
	def64 := func(p *int64, v int64) {
		if *p <= 0 {
			*p = v
		}
	}
	def(&c.Graphs, 120)
	def(&c.Servers, 3)
	def64(&c.Records, 1500)
	def64(&c.Keys, 8)
	def64(&c.Window, 4)
	def(&c.Shards, 2)
	def(&c.Batch, 64)
	def64(&c.Tasks, 48)
	def(&c.Lanes, 3)
	def(&c.Spin, 400)
	if c.Timeout <= 0 {
		c.Timeout = 90 * time.Second
	}
	return c
}

// soakFamily reports one graph family's share of the soak.
type soakFamily struct {
	Name   string
	Graphs int
	Tokens int64
	// Per-graph wall-time percentiles, in seconds, from the
	// dpn_workload_graph_seconds histogram, read back through the
	// exposition path.
	P50 float64
	P95 float64
	P99 float64
}

// soakReport is runSoak's result: failures, throughput and the latency
// percentiles read back through the exposition path.
type soakReport struct {
	Graphs   int // run concurrently
	Servers  int
	Failures int
	Elapsed  float64 // seconds
	Tokens   int64
	// TokensPerSec is the sustained aggregate rate: every
	// dpn_conduit_tokens_total hop across client nodes, servers, and
	// pool networks over the soak's wall time.
	TokensPerSec float64

	Stream soakFamily
	Pool   soakFamily

	// Task latency percentiles, in seconds, from dpn_pool_latency_seconds
	// {stage="total"} aggregated over every pool graph (intake to
	// in-order emission).
	TaskP50 float64
	TaskP95 float64
	TaskP99 float64

	// ConduitWaitSeconds sums dpn_conduit_wait_ns_total (reader+writer
	// blocked time) across all scopes; WaitShare divides it by
	// cumulative graph-seconds — the backpressure signal, reported as a
	// share because the source metric is a counter, not a histogram.
	// Many channels block in parallel within one graph, so the share
	// can exceed 1.
	ConduitWaitSeconds float64
	WaitShare          float64

	Errors []string
}

// soakVal is the expected result value of pool task idx.
func soakVal(seed, idx int64, spin int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(idx)
	for i := 0; i < spin; i++ {
		x = splitmix(x)
	}
	return int64(x >> 1)
}

// soakSource produces the pool family's task stream (§5.1 producer
// task): N independent soakWork units.
type soakSource struct {
	Seed int64
	N    int64
	Spin int

	next int64
}

// Run implements meta.Task.
func (s *soakSource) Run() (meta.Task, error) {
	if s.next >= s.N {
		return nil, nil
	}
	t := &soakWork{Seed: s.Seed, Idx: s.next, Spin: s.Spin}
	s.next++
	return t, nil
}

// soakWork is one unit of pool work: a fixed splitmix spin, so service
// time is nonzero and deterministic.
type soakWork struct {
	Seed, Idx int64
	Spin      int
}

// Run implements meta.Task.
func (w *soakWork) Run() (meta.Task, error) {
	return &soakResult{Idx: w.Idx, V: soakVal(w.Seed, w.Idx, w.Spin)}, nil
}

// soakResult carries a finished task's index and value back to the
// consumer, which verifies both.
type soakResult struct {
	Idx, V int64
}

// Run implements meta.Task.
func (r *soakResult) Run() (meta.Task, error) { return nil, nil }

func init() {
	gob.Register(&soakSource{})
	gob.Register(&soakWork{})
	gob.Register(&soakResult{})
}

// soakState is the shared accumulator the per-graph goroutines feed.
type soakState struct {
	scope      *obs.Scope
	streamHist *obs.Histogram
	poolHist   *obs.Histogram

	tokens     atomic.Int64 // stream-family client-node tokens
	waitNs     atomic.Int64 // stream-family client-node blocked ns
	poolTokens atomic.Int64 // pool-family network tokens
	poolWaitNs atomic.Int64 // pool-family network blocked ns

	mu       sync.Mutex
	failures int
	errs     []string
	taskLat  obs.Sample // dpn_pool_latency_seconds{stage="total"}, summed over pool graphs
}

func (st *soakState) fail(err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failures++
	if len(st.errs) < 8 {
		st.errs = append(st.errs, err.Error())
	}
}

// runSoak stands up a registry plus cfg.Servers compute servers, runs
// cfg.Graphs verified graphs against them concurrently, and reports
// sustained throughput and latency percentiles. Setup errors return an
// error; per-graph failures are counted in the report.
func runSoak(cfg soakConfig) (*soakReport, error) {
	cfg = cfg.withDefaults()

	st := &soakState{scope: obs.NewScope()}
	st.scope.SetNode("soak")
	reg := st.scope.Registry()
	reg.Help("dpn_workload_graph_seconds",
		"Whole-graph wall time in the soak driver, by family (stream|pool).")
	st.streamHist = reg.Histogram("dpn_workload_graph_seconds", nil, obs.L("family", "stream"))
	st.poolHist = reg.Histogram("dpn_workload_graph_seconds", nil, obs.L("family", "pool"))

	registry, err := server.NewRegistry("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak registry: %w", err)
	}
	defer registry.Close()

	servers := make([]*server.Server, 0, cfg.Servers)
	defer func() {
		for _, sv := range servers {
			sv.Close()
		}
	}()
	for i := 0; i < cfg.Servers; i++ {
		sv, err := server.New(fmt.Sprintf("soak%d", i), "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("soak server %d: %w", i, err)
		}
		servers = append(servers, sv)
		if err := server.Register(registry.Addr(), sv.Name(), sv.Addr()); err != nil {
			return nil, fmt.Errorf("register %s: %w", sv.Name(), err)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.Graphs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				st.runStreamGraph(cfg, g, registry.Addr())
			} else {
				st.runPoolGraph(cfg, g)
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Servers and pool networks account their own hops; add them to the
	// client-side totals harvested per stream graph.
	tokens := st.tokens.Load()
	waitNs := st.waitNs.Load()
	for _, sv := range servers {
		tokens += sumSamples(sv.Node().Obs(), "dpn_conduit_tokens_total")
		waitNs += sumSamples(sv.Node().Obs(), "dpn_conduit_wait_ns_total")
	}
	tokens += st.poolTokens.Load()
	waitNs += st.poolWaitNs.Load()

	// Percentiles come from the histograms /metrics exposes: the soak
	// scope's graph times and the pool graphs' summed task latencies.
	samples := st.scope.Registry().Samples()
	streamQ := findHistogram(samples, "dpn_workload_graph_seconds", "family", "stream")
	poolQ := findHistogram(samples, "dpn_workload_graph_seconds", "family", "pool")
	taskQ := st.taskLat

	graphSeconds := streamQ.Sum + poolQ.Sum
	rep := &soakReport{
		Graphs:  cfg.Graphs,
		Servers: cfg.Servers,
		Elapsed: elapsed.Seconds(),
		Tokens:  tokens,
		TaskP50: taskQ.Quantile(0.50),
		TaskP95: taskQ.Quantile(0.95),
		TaskP99: taskQ.Quantile(0.99),
		Stream: soakFamily{
			Name:   "stream",
			Graphs: (cfg.Graphs + 1) / 2,
			Tokens: st.tokens.Load(),
			P50:    streamQ.Quantile(0.50),
			P95:    streamQ.Quantile(0.95),
			P99:    streamQ.Quantile(0.99),
		},
		Pool: soakFamily{
			Name:   "pool",
			Graphs: cfg.Graphs / 2,
			Tokens: st.poolTokens.Load(),
			P50:    poolQ.Quantile(0.50),
			P95:    poolQ.Quantile(0.95),
			P99:    poolQ.Quantile(0.99),
		},
		ConduitWaitSeconds: float64(waitNs) / 1e9,
	}
	if elapsed > 0 {
		rep.TokensPerSec = float64(tokens) / elapsed.Seconds()
	}
	if graphSeconds > 0 {
		rep.WaitShare = float64(waitNs) / 1e9 / graphSeconds
	}
	st.mu.Lock()
	rep.Failures = st.failures
	rep.Errors = st.errs
	st.mu.Unlock()
	return rep, nil
}

// runStreamGraph runs one stream-family graph: rendezvous with a
// server through the registry, ship the shard/reduce/merge cut there,
// keep the generator and collector local, and verify against the
// sequential oracle.
func (st *soakState) runStreamGraph(cfg soakConfig, g int, registryAddr string) {
	name := fmt.Sprintf("soak%d", g%cfg.Servers)
	addr, err := server.Lookup(registryAddr, name)
	if err != nil {
		st.fail(fmt.Errorf("graph %d: lookup %s: %w", g, name, err))
		return
	}
	client, err := server.Dial(addr)
	if err != nil {
		st.fail(fmt.Errorf("graph %d: dial %s: %w", g, name, err))
		return
	}
	defer client.Close()
	node, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		st.fail(fmt.Errorf("graph %d: node: %w", g, err))
		return
	}
	defer node.Close()

	spec := streamSpec{
		records: cfg.Records, keys: cfg.Keys, window: cfg.Window,
		shards: cfg.Shards, batch: cfg.Batch, float: g%4 == 2,
	}
	seed := cfg.Seed + int64(g)
	gen, shard, reduces, merge, tail := buildStream(node.Net, spec, seed, 0)
	node.Net.Spawn(gen)
	node.Net.Spawn(tail)

	begin := time.Now()
	cut := append([]any{any(shard)}, reduces...)
	cut = append(cut, merge)
	if _, err := client.RunProcs(node, cut...); err != nil {
		st.fail(fmt.Errorf("graph %d: run cut on %s: %w", g, name, err))
		return
	}
	if err := waitNet(node.Net, fmt.Sprintf("stream graph %d", g), cfg.Timeout); err != nil {
		st.fail(err)
		return
	}
	st.streamHist.Observe(time.Since(begin).Seconds())
	st.tokens.Add(sumSamples(node.Obs(), "dpn_conduit_tokens_total"))
	st.waitNs.Add(sumSamples(node.Obs(), "dpn_conduit_wait_ns_total"))
	if err := equal(tail.Vals, streamOracle(spec, seed)); err != nil {
		st.fail(fmt.Errorf("graph %d (seed %d): %w", g, seed, err))
	}
}

// runPoolGraph runs one pool-family graph: a task farm on a network of
// its own, whose token, wait and task-latency series it adds to the
// soak's totals. The consumer hook verifies value and in-order emission
// (§5 determinacy).
func (st *soakState) runPoolGraph(cfg soakConfig, g int) {
	seed := cfg.Seed + int64(g)
	n := core.NewNetwork()
	e := meta.NewDynamic(n, &soakSource{Seed: seed, N: cfg.Tasks, Spin: cfg.Spin}, cfg.Lanes, 1<<12)
	var bad atomic.Int64
	var nextIdx atomic.Int64
	e.Consumer.SetOnResult(func(ran, _ meta.Task) {
		r, ok := ran.(*soakResult)
		if !ok || r.Idx != nextIdx.Load() || r.V != soakVal(seed, r.Idx, cfg.Spin) {
			bad.Add(1)
			return
		}
		nextIdx.Add(1)
	})
	begin := time.Now()
	e.Spawn(n)
	if err := waitNet(n, fmt.Sprintf("pool graph %d", g), cfg.Timeout); err != nil {
		st.fail(err)
		return
	}
	st.poolHist.Observe(time.Since(begin).Seconds())
	st.poolTokens.Add(sumSamples(n.Obs(), "dpn_conduit_tokens_total"))
	st.poolWaitNs.Add(sumSamples(n.Obs(), "dpn_conduit_wait_ns_total"))
	st.addTaskLatency(findHistogram(n.Obs().Registry().Samples(), "dpn_pool_latency_seconds", "stage", "total"))
	if got := e.Consumer.Consumed(); got != cfg.Tasks || bad.Load() != 0 {
		st.fail(fmt.Errorf("pool graph %d (seed %d): consumed %d of %d, %d bad results",
			g, seed, got, cfg.Tasks, bad.Load()))
	}
}

// addTaskLatency adds one pool graph's task-latency histogram to the
// soak's; every graph's histogram has the registry's default buckets.
func (st *soakState) addTaskLatency(h obs.Sample) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.taskLat.Buckets == nil {
		st.taskLat = h
		st.taskLat.Buckets = slices.Clone(h.Buckets)
		return
	}
	st.taskLat.Sum += h.Sum
	st.taskLat.Count += h.Count
	for i, b := range h.Buckets {
		st.taskLat.Buckets[i].Count += b.Count
	}
}

// sumSamples totals a counter family across a scope's registry.
func sumSamples(s *obs.Scope, name string) int64 {
	var total int64
	for _, sm := range s.Registry().Samples() {
		if sm.Name == name {
			total += sm.Value
		}
	}
	return total
}

// findHistogram locates a parsed histogram sample by name and one
// identifying label; a zero Sample (whose Quantile is NaN) when absent.
func findHistogram(samples []obs.Sample, name, key, value string) obs.Sample {
	for _, s := range samples {
		if s.Name != name || s.Kind != obs.KindHistogram {
			continue
		}
		for _, l := range s.Labels {
			if l.Key == key && l.Value == value {
				return s
			}
		}
	}
	return obs.Sample{}
}

// TestSoakSmoke runs the many-client soak at gate scale: a few dozen
// concurrent graphs against two shared servers, every graph verified
// against its oracle, percentiles readable from the shared histograms.
// SOAK_GRAPHS scales it up for manual soaks (SOAK_GRAPHS=120 is the
// full configuration).
func TestSoakSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("soak in -short mode")
	}
	graphs := 24
	if s := os.Getenv("SOAK_GRAPHS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("SOAK_GRAPHS: %v", err)
		}
		graphs = v
	}
	baseline := runtime.NumGoroutine()
	rep, err := runSoak(soakConfig{
		Graphs:  graphs,
		Servers: 2,
		Records: 600,
		Tasks:   24,
		Seed:    workloadSeed(t, 4242),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("soak: %d graphs, %.0f tokens/sec, stream p95 %.4fs, task p95 %.4fs, wait share %.3f",
		rep.Graphs, rep.TokensPerSec, rep.Stream.P95, rep.TaskP95, rep.WaitShare)
	if rep.Failures != 0 {
		t.Fatalf("soak failures: %d: %v", rep.Failures, rep.Errors)
	}
	if rep.Graphs != graphs {
		t.Fatalf("report graphs = %d, want %d", rep.Graphs, graphs)
	}
	if rep.Tokens <= 0 || rep.TokensPerSec <= 0 {
		t.Fatalf("no throughput recorded: %+v", rep)
	}
	// Percentiles must come back finite and ordered through the
	// exposition path for both families and the pool's task latency.
	for _, q := range []struct {
		name          string
		p50, p95, p99 float64
	}{
		{"stream", rep.Stream.P50, rep.Stream.P95, rep.Stream.P99},
		{"pool", rep.Pool.P50, rep.Pool.P95, rep.Pool.P99},
		{"task", rep.TaskP50, rep.TaskP95, rep.TaskP99},
	} {
		if !(q.p50 > 0) || !(q.p95 >= q.p50) || !(q.p99 >= q.p95) {
			t.Fatalf("%s percentiles malformed: p50=%v p95=%v p99=%v", q.name, q.p50, q.p95, q.p99)
		}
	}
	if rep.ConduitWaitSeconds < 0 || rep.WaitShare < 0 {
		t.Fatalf("negative wait accounting: %+v", rep)
	}
	settled(t, baseline)
}
