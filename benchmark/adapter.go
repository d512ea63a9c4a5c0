package main

// adapter.go is the only file of the harness that imports the program
// (dpn/internal/...). Everything the benchmark asks of dpn goes through
// the functions below; README.md lists the program functions they call.
// That list is the API a later change must keep, or change in a
// benchmark issue of its own first.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/factor"
	"dpn/internal/graphs"
	"dpn/internal/meta"
	"dpn/internal/obs"
	"dpn/internal/proclib"
	"dpn/internal/server"
	"dpn/internal/stream"
	"dpn/internal/token"
	"dpn/internal/token/blocks"
	"dpn/internal/wal"
	"dpn/internal/wire"
	dpnwl "dpn/internal/workload"
)

// traceSampleEvery is the program's own causal-trace sampling rate in
// traced runs: every 64th outbound DATA frame carries a TRACE frame.
const traceSampleEvery = 64

// ---------------------------------------------------------------------
// Harness processes that run inside the program's networks. They are
// shipped to compute servers like any user process, so their exported
// fields are what gob moves; results come back through in-process state
// keyed by run id, because both ends live in this one process.

// sinkState is the home-side view of one HashSink.
type sinkState struct {
	first chan struct{} // closed once the first batch is folded
	done  chan struct{} // closed when the sink process stops
	pace  *pacing       // nil in a saturate job

	once    sync.Once
	hash    uint64
	tokens  int64
	busy    time.Duration // time inside ReadInt64s
	firstAt time.Time
	latency []float64 // ms per paced batch, timed from its due time
}

var (
	sinkStates sync.Map // run id → *sinkState
	runIDs     atomic.Int64
)

func newSinkState(pace *pacing) (int64, *sinkState) {
	id := runIDs.Add(1)
	st := &sinkState{first: make(chan struct{}), done: make(chan struct{}), pace: pace}
	sinkStates.Store(id, st)
	return id, st
}

// HashSink is bulk-wire's consumer: it folds every token into a running
// hash that the harness checks against the generator's.
type HashSink struct {
	In  *core.ReadPort
	Run int64

	st  *sinkState
	rd  *token.Reader
	buf []int64
}

// Step implements core.Stepper.
func (s *HashSink) Step(*core.Env) error {
	if s.st == nil {
		v, ok := sinkStates.Load(s.Run)
		if !ok {
			return fmt.Errorf("benchmark: no sink state for run %d", s.Run)
		}
		s.st = v.(*sinkState)
		s.rd = token.NewReader(s.In)
		s.buf = make([]int64, bulkBatch)
	}
	st := s.st
	t0 := time.Now()
	n, err := s.rd.ReadInt64s(s.buf)
	if err != nil {
		return err
	}
	now := time.Now()
	st.busy += now.Sub(t0)
	st.hash = foldHash(st.hash, s.buf[:n])
	before := st.tokens
	st.tokens += int64(n)
	st.once.Do(func() {
		st.firstAt = now
		close(st.first)
	})
	if p := st.pace; p != nil {
		for k := before / int64(p.size); k < st.tokens/int64(p.size); k++ {
			st.latency = append(st.latency, p.since(k, now))
		}
	}
	return nil
}

// OnStop implements core.Stopper.
func (s *HashSink) OnStop(*core.Env) {
	if s.st != nil {
		close(s.st.done)
	}
}

// batchSource and batchSink are the two spawned processes of the
// core.channel ladder rung.
type batchSource struct {
	Out     *core.WritePort
	pool    [][]int64
	batches int
	i       int
	w       *token.Writer
}

func (s *batchSource) Step(*core.Env) error {
	if s.i >= s.batches {
		return io.EOF
	}
	if s.w == nil {
		s.w = token.NewWriter(s.Out)
	}
	err := s.w.WriteInt64s(s.pool[s.i%len(s.pool)])
	s.i++
	return err
}

type batchSink struct {
	In   *core.ReadPort
	hash uint64
	rd   *token.Reader
	buf  []int64
}

func (s *batchSink) Step(*core.Env) error {
	if s.rd == nil {
		s.rd = token.NewReader(s.In)
		s.buf = make([]int64, bulkBatch)
	}
	n, err := s.rd.ReadInt64s(s.buf)
	if err != nil {
		return err
	}
	s.hash = foldHash(s.hash, s.buf[:n])
	return nil
}

// nopSource, nopWork and nopResult are zero-compute tasks: what is left
// when they run through meta or a server call is the framework's own
// cost per task.
type nopSource struct {
	N    int64
	next int64
}

func (s *nopSource) Run() (meta.Task, error) {
	if s.next >= s.N {
		return nil, nil
	}
	s.next++
	return &NopWork{Index: s.next - 1}, nil
}

type NopWork struct{ Index int64 }

func (w *NopWork) Run() (meta.Task, error) { return &NopResult{Index: w.Index}, nil }

type NopResult struct{ Index int64 }

func (r *NopResult) Run() (meta.Task, error) { return nil, nil }

func init() {
	gob.Register(&HashSink{})
	gob.Register(&NopWork{})
	gob.Register(&NopResult{})
}

// ---------------------------------------------------------------------
// Cluster: the nodes a workload's rounds share. All nodes live in this
// process and talk over real 127.0.0.1 TCP; every data link between two
// of them is a stream of the one mux session of that peer pair.

type cluster struct {
	traced   bool
	registry *server.Registry
	client   *wire.Node
	servers  []*server.Server
	rpcs     []*server.Client
	brokers  []string // servers' broker addresses, by index

	mu      sync.Mutex
	retired []sample // counts of networks that lived for one job only
}

// observe switches the program's own tracing on a node: its event
// tracer, and the broker's sampler that tags every 64th DATA frame.
func observe(n *wire.Node, traced bool) {
	if traced {
		n.Obs().Tracer().Enable()
		n.Broker.SetTraceSampling(traceSampleEvery)
	} else {
		n.Obs().Tracer().Disable()
		n.Broker.SetTraceSampling(0)
	}
}

// nodes lists the cluster's nodes, the client first.
func (c *cluster) nodes() []*wire.Node {
	if c.client == nil {
		return nil
	}
	out := []*wire.Node{c.client}
	for _, sv := range c.servers {
		out = append(out, sv.Node())
	}
	return out
}

// setTraced switches the program's tracing for the jobs that follow.
func (c *cluster) setTraced(on bool) {
	c.traced = on
	for _, n := range c.nodes() {
		observe(n, on)
	}
}

// liveStreams reports the client's open mux sessions and the streams
// they carry right now.
func (c *cluster) liveStreams() (sessions, streams int64) {
	if c.client == nil {
		return 0, 0
	}
	return c.client.Broker.MuxSessions(), c.client.Broker.MuxStreams()
}

// newCluster listens (registry, client node, servers), then dials
// (registry lookup, RPC dial, broker address) — the set-up a user of
// the compute-server model pays before a graph can be shipped.
func newCluster(servers int, traced bool, sc scope) (*cluster, error) {
	c := &cluster{traced: traced}
	if servers == 0 {
		return c, nil
	}
	sp := sc.begin("listen")
	var err error
	if c.registry, err = server.NewRegistry("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if c.client, err = wire.NewLocalNode("127.0.0.1:0"); err != nil {
		c.close()
		return nil, fmt.Errorf("client node: %w", err)
	}
	c.client.SetTransport(conduit.NewMux(c.client.Broker, nil))
	for i := 0; i < servers; i++ {
		name := fmt.Sprintf("bench%d", i)
		sv, err := server.New(name, "127.0.0.1:0", "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, fmt.Errorf("server %d: %w", i, err)
		}
		c.servers = append(c.servers, sv)
		sv.Node().SetTransport(conduit.NewMux(sv.Node().Broker, nil))
		if err := server.Register(c.registry.Addr(), name, sv.Addr()); err != nil {
			c.close()
			return nil, fmt.Errorf("register %s: %w", name, err)
		}
	}
	for _, n := range c.nodes() {
		// No cap on per-channel series, so every channel is counted.
		n.Obs().Registry().SetSeriesLimit(0)
	}
	c.setTraced(traced)
	sc.end(sp)

	sp = sc.begin("dial")
	defer sc.end(sp)
	for i := range c.servers {
		addr, err := server.Lookup(c.registry.Addr(), fmt.Sprintf("bench%d", i))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("lookup: %w", err)
		}
		cl, err := server.Dial(addr)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		c.rpcs = append(c.rpcs, cl)
		broker, err := cl.BrokerAddr()
		if err != nil {
			c.close()
			return nil, fmt.Errorf("broker address of %s: %w", addr, err)
		}
		c.brokers = append(c.brokers, broker)
	}
	return c, nil
}

func (c *cluster) close() {
	for _, cl := range c.rpcs {
		cl.Close()
	}
	for _, sv := range c.servers {
		sv.Close()
	}
	if c.client != nil {
		c.client.Close()
	}
	if c.registry != nil {
		c.registry.Close()
	}
}

// ship exports procs from the client node to server i and spawns them
// there, recording export, ship and (traced) import spans.
func (c *cluster) ship(i int, sc scope, procs ...any) error {
	sp := sc.begin("export")
	parcel, err := wire.Export(c.client, c.brokers[i], procs...)
	sc.end(sp)
	if err != nil {
		return fmt.Errorf("export: %w", err)
	}
	sp = sc.begin("ship")
	_, err = c.rpcs[i].RunParcel(parcel)
	sc.end(sp)
	if err != nil {
		return fmt.Errorf("run parcel: %w", err)
	}
	if sc.rec != nil {
		// The server's own trace ring says how long the import took: from
		// the "run" RPC event to the wire "import" event that follows it.
		if d := lastImport(c.servers[i].Node().TraceEvents()); d > 0 {
			end := time.Now()
			sc.under(sp).add("import", end.Add(-d), end)
		}
	}
	return nil
}

func lastImport(events []obs.Event) time.Duration {
	for i := len(events) - 1; i >= 0; i-- {
		if events[i].Type != obs.EvMigrate || events[i].Detail != "import" {
			continue
		}
		for j := i - 1; j >= 0; j-- {
			if events[j].Type == obs.EvRPC && events[j].Name == "run" {
				return time.Duration(events[i].TS - events[j].TS)
			}
		}
	}
	return 0
}

// awaitLinks waits until the client's mux sessions to n servers are up:
// handshake done, a stream can carry data.
func (c *cluster) awaitLinks(n int64, sc scope) {
	sp := sc.begin("link_ready")
	defer sc.end(sp)
	deadline := time.Now().Add(5 * time.Second)
	for c.client.Broker.MuxSessions() < n && time.Now().Before(deadline) {
		time.Sleep(20 * time.Microsecond)
	}
}

// settle waits for every process of the job to have stopped, so the
// next job starts on idle nodes.
func (c *cluster) settle(timeout time.Duration) error {
	for _, n := range c.nodes() {
		if err := waitNet(n.Net, timeout); err != nil {
			return err
		}
	}
	return nil
}

func waitNet(n *core.Network, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		return fmt.Errorf("network did not terminate within %v", timeout)
	}
}

// ---------------------------------------------------------------------
// bulk-wire

const (
	bulkBatch    = 4096    // tokens per WriteInt64s in the saturate phase
	bulkPool     = 256     // distinct batches cycled through (8 MiB)
	bulkChanCap  = 1 << 18 // channel capacity = the link's credit window
	bulkPaceSize = 64      // tokens per paced batch
)

type bulkWire struct {
	pool       [][]int64
	pacePool   [][]int64
	batches    int    // per saturate round
	want       uint64 // hash of a saturate round
	oracleNsOp float64
}

func (w *bulkWire) name() string          { return "bulk-wire" }
func (w *bulkWire) cutChannels() []string { return []string{"bw.data"} }

func (w *bulkWire) prepare(seed int64, div int) error {
	w.pool = walkBatches(seed, bulkPool, bulkBatch)
	w.pacePool = walkBatches(seed+1, bulkPool, bulkPaceSize)
	w.batches = max(sizes.bulkBatches/div, 8)
	start := time.Now()
	w.want = walkHash(w.pool, w.batches)
	w.oracleNsOp = float64(time.Since(start).Nanoseconds()) / float64(w.batches*bulkBatch)
	return nil
}

func (w *bulkWire) baseline() float64 { return w.oracleNsOp }

func (w *bulkWire) open(traced bool, rec *recorder) (*cluster, jobResult) {
	sc := rec.scope("setup")
	defer sc.done()
	c, err := newCluster(1, traced, sc)
	if err != nil {
		return nil, jobResult{err: err}
	}
	return c, w.job(c, w.pool, 1, walkHash(w.pool, 1), nil, sc)
}

func (w *bulkWire) round(c *cluster, rec *recorder) jobResult {
	sc := rec.scope("round")
	defer sc.done()
	return w.job(c, w.pool, w.batches, w.want, nil, sc)
}

func (w *bulkWire) paced(c *cluster, d time.Duration, rec *recorder) jobResult {
	sc := rec.scope("paced")
	defer sc.done()
	period := sizes.bulkPacePeriod
	n := int(d / period)
	return w.job(c, w.pacePool, n, walkHash(w.pacePool, n), &pacing{period: period, size: bulkPaceSize}, sc)
}

// job moves n batches drawn round-robin from pool over one channel
// whose reader has been shipped to the compute server; want is the hash
// the sink must arrive at.
func (w *bulkWire) job(c *cluster, pool [][]int64, n int, want uint64, pace *pacing, sc scope) (res jobResult) {
	sp := sc.begin("build")
	ch := c.client.Net.NewChannel("bw.data", bulkChanCap)
	id, st := newSinkState(pace)
	defer sinkStates.Delete(id)
	sink := &HashSink{In: ch.Reader(), Run: id}
	sc.end(sp)

	if err := c.ship(0, sc, sink); err != nil {
		ch.Writer().Close()
		return jobResult{err: err}
	}
	c.awaitLinks(1, sc)

	out := ch.Writer()
	wr := token.NewWriter(out)
	sp = sc.begin("first_op")
	start := time.Now()
	if pace != nil {
		pace.t0 = start
	}
	var srcBusy time.Duration
	for k := 0; k < n; k++ {
		if pace != nil {
			res.genLate = append(res.genLate, pace.wait(int64(k)))
		}
		t0 := time.Now()
		err := wr.WriteInt64s(pool[k%len(pool)])
		srcBusy += time.Since(t0)
		if err != nil {
			out.Close()
			return jobResult{err: fmt.Errorf("bulk-wire write: %w", err)}
		}
		if k == 0 {
			<-st.first
			sc.end(sp)
		}
	}
	out.Close()
	<-st.done
	res.wall = time.Since(start)
	res.firstOp = st.firstAt
	res.ops = st.tokens
	res.latency = st.latency
	res.srcBusy, res.sinkBusy = srcBusy, st.busy
	if sent := int64(n) * int64(len(pool[0])); st.tokens != sent {
		res.err = fmt.Errorf("bulk-wire: sink saw %d tokens, %d were sent", st.tokens, sent)
	} else if st.hash != want {
		res.err = fmt.Errorf("bulk-wire: sink hash %#x, generator's is %#x", st.hash, want)
	}
	sc.add("harness.src_write", start, start.Add(srcBusy))
	sc.add("harness.sink_read", start, start.Add(st.busy))
	if err := c.settle(settleTimeout); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// ---------------------------------------------------------------------
// stream-analytics

const (
	streamChanCap   = 1 << 14
	streamGenBatch  = 512 // records per WriteInt64s in the saturate phase
	streamSetupRecs = 4 * streamKeys * streamWindow
)

type streamAnalytics struct {
	seed       int64
	pairs      []int64 // saturate round input
	want       []int64 // its oracle
	setupPairs []int64
	setupWant  []int64
	oracleNsOp float64
}

func (w *streamAnalytics) name() string { return "stream-analytics" }
func (w *streamAnalytics) cutChannels() []string {
	return []string{"sa.pairs", "sa.merged"}
}

func (w *streamAnalytics) prepare(seed int64, div int) error {
	w.seed = seed
	n := max(sizes.streamRecords/div, streamSetupRecs)
	w.pairs = streamPairs(seed, n)
	start := time.Now()
	w.want = streamOracle(w.pairs)
	w.oracleNsOp = float64(time.Since(start).Nanoseconds()) / float64(n)
	w.setupPairs = w.pairs[:2*streamSetupRecs]
	w.setupWant = streamOracle(w.setupPairs)
	return nil
}

func (w *streamAnalytics) baseline() float64 { return w.oracleNsOp }

func (w *streamAnalytics) open(traced bool, rec *recorder) (*cluster, jobResult) {
	sc := rec.scope("setup")
	defer sc.done()
	c, err := newCluster(1, traced, sc)
	if err != nil {
		return nil, jobResult{err: err}
	}
	return c, w.job(c, w.setupPairs, w.setupWant, streamGenBatch, nil, sc)
}

func (w *streamAnalytics) round(c *cluster, rec *recorder) jobResult {
	sc := rec.scope("round")
	defer sc.done()
	return w.job(c, w.pairs, w.want, streamGenBatch, nil, sc)
}

func (w *streamAnalytics) paced(c *cluster, d time.Duration, rec *recorder) jobResult {
	sc := rec.scope("paced")
	defer sc.done()
	period := time.Millisecond
	perBatch := sizes.streamPaceRate / 1000
	batches := int(d / period)
	pairs := streamPairs(w.seed+1, batches*perBatch)
	return w.job(c, pairs, streamOracle(pairs), perBatch, &pacing{period: period, size: perBatch}, sc)
}

// job feeds pairs to the pipeline in batches of genBatch records and
// checks every output triple against want as it arrives. The generator
// and the collector stay on the client node; shard, reduces and merge
// run on the compute server, so the pair stream and the merged stream
// cross the wire.
func (w *streamAnalytics) job(c *cluster, pairs, want []int64, genBatch int, pace *pacing, sc scope) (res jobResult) {
	sp := sc.begin("build")
	in, merged, cut := streamCut(c.client.Net)
	sc.end(sp)

	if err := c.ship(0, sc, cut...); err != nil {
		in.Writer().Close()
		merged.Reader().Close()
		return jobResult{err: err}
	}
	c.awaitLinks(1, sc)

	sp = sc.begin("first_op")
	start := time.Now()
	if pace != nil {
		pace.t0 = start
	}
	collected := make(chan collectResult, 1)
	go func() { collected <- collect(merged.Reader(), want, pace, func() { sc.end(sp) }) }()

	out := in.Writer()
	wr := token.NewWriter(out)
	var srcBusy time.Duration
	for k, off := int64(0), 0; off < len(pairs); k, off = k+1, off+2*genBatch {
		if pace != nil {
			res.genLate = append(res.genLate, pace.wait(k))
		}
		t0 := time.Now()
		err := wr.WriteInt64s(pairs[off:min(off+2*genBatch, len(pairs))])
		srcBusy += time.Since(t0)
		if err != nil {
			out.Close()
			<-collected
			return jobResult{err: fmt.Errorf("stream-analytics write: %w", err)}
		}
	}
	out.Close()
	got := <-collected
	res.wall = time.Since(start)
	res.firstOp = got.firstAt
	res.ops = int64(len(pairs) / 2)
	res.latency = got.latency
	res.srcBusy, res.sinkBusy = srcBusy, got.busy
	res.err = got.err
	sc.add("harness.src_write", start, start.Add(srcBusy))
	sc.add("harness.sink_read", start, start.Add(got.busy))
	if err := c.settle(settleTimeout); err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// streamCut builds the stream-analytics pipeline in net and returns
// its two ends, which stay put, and the cut that is shipped: shard,
// reduces and merge, with the eight channels between them.
func streamCut(net *core.Network) (in, merged *core.Channel, cut []any) {
	in = net.NewChannel("sa.pairs", streamChanCap)
	shard := &dpnwl.ShardByKey{In: in.Reader()}
	merge := &dpnwl.MergeByTag{}
	cut = []any{shard}
	for s := 0; s < streamShards; s++ {
		byKey := net.NewChannel(fmt.Sprintf("sa.shard%d", s), streamChanCap)
		windows := net.NewChannel(fmt.Sprintf("sa.win%d", s), streamChanCap)
		shard.Outs = append(shard.Outs, byKey.Writer())
		cut = append(cut, &dpnwl.WindowReduce{In: byKey.Reader(), Out: windows.Writer(), Window: streamWindow})
		merge.Ins = append(merge.Ins, windows.Reader())
	}
	merged = net.NewChannel("sa.merged", streamChanCap)
	merge.Out = merged.Writer()
	return in, merged, append(cut, merge)
}

type collectResult struct {
	firstAt time.Time
	busy    time.Duration
	latency []float64
	err     error
}

// collect is the batch collector: it reads the merged triples, checks
// each element against the oracle in stream order and, in a paced job,
// times each closed window from the due time of the record that closed
// it.
func collect(in *core.ReadPort, want []int64, pace *pacing, onFirst func()) (res collectResult) {
	defer in.Close()
	rd := token.NewReader(in)
	buf := make([]int64, 3*1024)
	pos := 0
	for {
		t0 := time.Now()
		n, err := rd.ReadInt64s(buf)
		now := time.Now()
		if err != nil {
			if !core.IsTermination(err) {
				res.err = fmt.Errorf("stream-analytics read: %w", err)
			} else if pos != len(want) && res.err == nil {
				res.err = fmt.Errorf("stream-analytics: output ended after %d elements, oracle has %d", pos, len(want))
			}
			return res
		}
		res.busy += now.Sub(t0)
		for i, v := range buf[:n] {
			p := pos + i
			if p >= len(want) || v != want[p] {
				if res.err == nil {
					res.err = fmt.Errorf("stream-analytics: output element %d is %d, oracle disagrees", p, v)
				}
				continue
			}
			if p%3 != 2 {
				continue
			}
			if res.firstAt.IsZero() {
				res.firstAt = now
				onFirst()
			}
			if tag := want[p-2]; pace != nil && tag != flushTag {
				res.latency = append(res.latency, pace.since(tag/int64(pace.size), now))
			}
		}
		pos += n
	}
}

// ---------------------------------------------------------------------
// figure-graphs

type figureGraphs struct {
	fib, ham, sieve []int64 // oracles
	hamReps         int
	oracleNsOp      float64
}

func (w *figureGraphs) name() string          { return "figure-graphs" }
func (w *figureGraphs) cutChannels() []string { return nil }

func (w *figureGraphs) prepare(_ int64, div int) error {
	// The figure graphs take no input: the seed does not change them.
	start := time.Now()
	w.fib = fibonacci(sizes.fibCount)
	w.ham = hamming(max(sizes.hammingCount/div, 64))
	w.sieve = primes(max(sizes.sieveCount/min(div, 8), 16))
	w.hamReps = max(sizes.hammingReps/div, 8)
	ops := len(w.fib) + len(w.ham) + len(w.sieve)
	w.oracleNsOp = float64(time.Since(start).Nanoseconds()) / float64(ops)
	return nil
}

func (w *figureGraphs) baseline() float64 { return w.oracleNsOp }

func (w *figureGraphs) open(traced bool, rec *recorder) (*cluster, jobResult) {
	sc := rec.scope("setup")
	defer sc.done()
	c, _ := newCluster(0, traced, sc)
	// Set-up of a local graph is build + spawn: the clock stops when the
	// first element reaches the sink.
	b := sc.begin("build")
	n := c.network()
	sink := graphs.Hamming(n, int64(len(w.ham)), sizes.hammingCap)
	mon := deadlock.New(n, sizes.deadlockPoll)
	mon.Start()
	sc.end(b)
	f := sc.begin("first_op")
	for len(sink.Values()) == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	res := jobResult{firstOp: time.Now()}
	sc.end(f)
	res.err = waitNet(n, settleTimeout)
	mon.Stop()
	if res.err == nil {
		res.err = equalInt64s("hamming", sink.Values(), w.ham)
	}
	c.retire(n)
	return c, res
}

// network returns a fresh network for one graph job.
func (c *cluster) network() *core.Network {
	n := core.NewNetwork()
	n.Obs().Registry().SetSeriesLimit(0)
	if c.traced {
		n.Obs().Tracer().Enable()
	}
	return n
}

// retire keeps a finished one-job network's counts for the scrape.
func (c *cluster) retire(n *core.Network) {
	if !c.traced {
		return
	}
	s := scrapeScope("graph", n.Obs())
	c.mu.Lock()
	c.retired = append(c.retired, s...)
	c.mu.Unlock()
}

// round runs the paper's example graphs, each in a fresh network with
// no sockets: Fibonacci once, Hamming hamReps times under a deadlock
// monitor, the recursive sieve once.
func (w *figureGraphs) round(c *cluster, rec *recorder) (res jobResult) {
	sc := rec.scope("round")
	defer sc.done()
	start := time.Now()
	fail := func(err error) {
		if err != nil && res.err == nil {
			res.err = err
		}
	}

	j := sc.begin("fibonacci")
	n := c.network()
	fib := graphs.Fibonacci(n, int64(len(w.fib)), false)
	fail(waitNet(n, settleTimeout))
	fail(equalInt64s("fibonacci", fib.Values(), w.fib))
	sc.end(j)
	c.retire(n)
	res.ops += int64(len(w.fib))

	for i := 0; i < w.hamReps && res.err == nil; i++ {
		j := sc.begin("hamming")
		t0 := time.Now()
		n := c.network()
		ham := graphs.Hamming(n, int64(len(w.ham)), sizes.hammingCap)
		mon := deadlock.New(n, sizes.deadlockPoll)
		mon.Start()
		fail(waitNet(n, settleTimeout))
		mon.Stop()
		fail(equalInt64s("hamming", ham.Values(), w.ham))
		res.latency = append(res.latency, float64(time.Since(t0))/1e6)
		sc.end(j)
		c.retire(n)
		res.ops += int64(len(w.ham))
	}

	j = sc.begin("sieve")
	n = c.network()
	sieve := graphs.SieveFirstN(n, int64(len(w.sieve)), graphs.SieveRecursive)
	fail(waitNet(n, settleTimeout))
	fail(equalInt64s("sieve", sieve.Values(), w.sieve))
	sc.end(j)
	c.retire(n)
	res.ops += int64(len(w.sieve))

	res.wall = time.Since(start)
	return res
}

// ---------------------------------------------------------------------
// task-farm

type taskFarm struct {
	key, setupKey *factor.Key
	tasks         int64
	oracleNsOp    float64
}

const (
	farmBits       = 256
	farmBatch      = 256
	farmSetupTasks = 4
)

func (w *taskFarm) name() string { return "task-farm" }
func (w *taskFarm) servers() int { return min(2, runtime.GOMAXPROCS(0)) }
func (w *taskFarm) workers() int { return runtime.GOMAXPROCS(0) }
func (w *taskFarm) cutChannels() []string {
	// The channels NewDynamic creates around each shipped worker.
	var names []string
	for i := 0; i < w.workers(); i++ {
		names = append(names, fmt.Sprintf("task%d", i), fmt.Sprintf("result%d", i))
	}
	return names
}

func (w *taskFarm) prepare(seed int64, div int) error {
	w.tasks = int64(max(sizes.farmTasks/div, 16))
	rnd := rand.New(rand.NewSource(seed))
	w.key = weakKey(rnd, w.tasks-1)
	w.setupKey = weakKey(rnd, farmSetupTasks-1)
	return nil
}

// weakKey builds a seeded instance of the paper's experiment: a prime P
// of farmBits bits and N = P·(P+D), with D placed in the middle of task
// target's batch exactly as factor.GenerateWeakKey places it. P is drawn
// from the band whose top four bits are 1110: a task is 256 big-integer
// square roots of 4N+D², and math/big's Newton iteration takes 7 to 10
// steps depending on the leading byte of P (the count changes at 0x91,
// 0xdb and 0xfd; the band lies inside the 8-step range). With P anywhere
// in its bit length the cost of a task varies by a third from seed to
// seed, and the workload would measure the key, not the program.
func weakKey(rnd *rand.Rand, target int64) *factor.Key {
	band := new(big.Int).Lsh(big.NewInt(1), farmBits-4) // width of the band
	lo := new(big.Int).Mul(band, big.NewInt(0b1110))    // its lower edge
	p := new(big.Int).Add(lo, new(big.Int).Rand(rnd, band))
	p.SetBit(p, 0, 1)
	for !p.ProbablyPrime(20) {
		p.Add(p, big.NewInt(2))
	}
	d := 2 * (farmBatch*target + farmBatch/2)
	q := new(big.Int).Add(p, big.NewInt(d))
	return &factor.Key{N: new(big.Int).Mul(p, q), P: p, Q: q, D: d}
}

// baseline runs the paper's sequential row (Table 1): the task run
// methods invoked directly, no process network, over a sample of the
// search space.
func (w *taskFarm) baseline() float64 {
	if w.oracleNsOp == 0 {
		sample := max(w.tasks/10, 8)
		start := time.Now()
		_, n, err := factor.RunSequential(&factor.SearchSpace{N: w.key.N, Batch: farmBatch, MaxTasks: sample})
		if err != nil || n == 0 {
			return 0
		}
		w.oracleNsOp = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return w.oracleNsOp
}

func (w *taskFarm) open(traced bool, rec *recorder) (*cluster, jobResult) {
	sc := rec.scope("setup")
	defer sc.done()
	c, err := newCluster(w.servers(), traced, sc)
	if err != nil {
		return nil, jobResult{err: err}
	}
	return c, w.job(c, w.setupKey, farmSetupTasks, sc)
}

func (w *taskFarm) round(c *cluster, rec *recorder) jobResult {
	sc := rec.scope("round")
	defer sc.done()
	return w.job(c, w.key, w.tasks, sc)
}

// timedSource wraps the producer task to stamp each emitted task.
type timedSource struct {
	inner *factor.SearchSpace
	emit  []atomic.Int64 // ns since t0, by task index
	t0    time.Time
}

func (s *timedSource) Run() (meta.Task, error) {
	idx := s.inner.Next
	t, err := s.inner.Run()
	if t != nil && idx < int64(len(s.emit)) {
		s.emit[idx].Store(int64(time.Since(s.t0)))
	}
	return t, err
}

// job is the paper's evaluation: the dynamically balanced composition
// on the client node, its generic Workers shipped to the compute
// servers, searching for a planted factor at the last task.
func (w *taskFarm) job(c *cluster, key *factor.Key, tasks int64, sc scope) (res jobResult) {
	sp := sc.begin("build")
	src := &timedSource{
		inner: &factor.SearchSpace{N: key.N, Batch: farmBatch, MaxTasks: tasks},
		emit:  make([]atomic.Int64, tasks),
	}
	dyn := meta.NewDynamic(c.client.Net, src, w.workers(), 0)
	var (
		next    int64
		found   *big.Int
		bad     error
		firstAt time.Time
		first   = sc.begin("first_op")
	)
	latency := make([]float64, 0, tasks)
	dyn.Consumer.SetOnResult(func(ran, _ meta.Task) {
		now := time.Now()
		r, ok := ran.(*factor.Result)
		switch {
		case !ok:
			bad = fmt.Errorf("task-farm: consumer ran a %T", ran)
			return
		case r.Index != next:
			if bad == nil {
				bad = fmt.Errorf("task-farm: result %d consumed when %d was next", r.Index, next)
			}
			return
		}
		if next == 0 {
			firstAt = now
			sc.end(first)
		}
		next++
		latency = append(latency, float64(now.Sub(src.t0)-time.Duration(src.emit[r.Index].Load()))/1e6)
		if r.Found {
			found = r.P
		}
	})
	sc.end(sp)

	for i, wk := range dyn.Workers {
		if err := c.ship(i%len(c.servers), sc, wk); err != nil {
			return jobResult{err: err} // the caller tears the nodes down
		}
	}
	c.awaitLinks(int64(len(c.servers)), sc)

	start := time.Now()
	src.t0 = start
	n := c.client.Net
	n.Spawn(dyn.Producer)
	n.Spawn(dyn.Direct)
	n.Spawn(dyn.Turnstile)
	n.Spawn(dyn.IndexCons)
	n.Spawn(dyn.Select)
	n.Spawn(dyn.Consumer)
	err := c.settle(settleTimeout)
	res.wall = time.Since(start)
	res.firstOp = firstAt
	res.ops = next
	res.latency = latency
	switch {
	case err != nil:
		res.err = err
	case bad != nil:
		res.err = bad
	case next != tasks:
		res.err = fmt.Errorf("task-farm: %d results consumed, %d tasks planned", next, tasks)
	case found == nil || found.Cmp(key.P) != 0:
		res.err = fmt.Errorf("task-farm: found factor %v, planted %v", found, key.P)
	}
	return res
}

// ---------------------------------------------------------------------
// Counts: the program's own registries, scraped from outside.

// scrapeScope snapshots one scope's series under canonical names only;
// the dpn_channel_* / dpn_link_* aliases repeat them and are skipped.
func scrapeScope(node string, s *obs.Scope) []sample {
	var out []sample
	for _, sm := range s.Registry().Samples() {
		if strings.HasPrefix(sm.Name, "dpn_channel_") || strings.HasPrefix(sm.Name, "dpn_link_") {
			continue
		}
		row := sample{Node: node, Name: sm.Name, Labels: make(map[string]string, len(sm.Labels)), Value: float64(sm.Value)}
		for _, l := range sm.Labels {
			row.Labels[l.Key] = l.Value
		}
		if sm.Kind == obs.KindHistogram {
			row.Value = float64(sm.Count)
			row.Sum = sm.Sum
		}
		out = append(out, row)
	}
	return out
}

// scrape snapshots every node of the cluster plus the retired one-job
// networks.
func (c *cluster) scrape() []sample {
	c.mu.Lock()
	out := append([]sample(nil), c.retired...)
	c.mu.Unlock()
	if c.client != nil {
		out = append(out, scrapeScope("client", c.client.Obs())...)
	}
	for i, sv := range c.servers {
		out = append(out, scrapeScope(fmt.Sprintf("server%d", i), sv.Node().Obs())...)
	}
	return out
}

// writeMergedTrace writes the program's own sampled trace, all nodes
// merged and clock-aligned, beside the harness's spans.
func (c *cluster) writeMergedTrace(path string) error {
	if c.client == nil {
		return nil
	}
	nodes := []obs.NodeTrace{{Node: "client", Events: c.client.TraceEvents()}}
	for i, cl := range c.rpcs {
		ev, err := cl.TraceEvents()
		if err != nil {
			return fmt.Errorf("trace of server %d: %w", i, err)
		}
		nodes = append(nodes, obs.NodeTrace{Node: fmt.Sprintf("server%d", i), Events: ev})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteMergedTrace(f, nodes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------
// Ladder: each module's public API driven in isolation on the
// workloads' data shapes.

// pumpConduits writes n batches into entry and folds what comes out of
// exit; the two are one conduit's ends for an in-proc hop, or belong to
// two conduits bound through a transport. The entry is closed only
// after every token has arrived: a direct TCP link that is closed
// while ACKs are still coming back can lose its tail (see README.md,
// "Found while building this").
func pumpConduits(entry io.WriteCloser, exit io.Reader, d *ladderData, n int) error {
	pool := d.pool
	want, wantHash := int64(n)*int64(len(pool[0])), d.wantHash(n)
	done := make(chan error, 1)
	arrived := make(chan struct{})
	var got int64
	var h uint64
	go func() {
		rd := token.NewReader(exit)
		buf := make([]int64, bulkBatch)
		for {
			k, err := rd.ReadInt64s(buf)
			if err != nil {
				if core.IsTermination(err) {
					err = nil
				}
				done <- err
				return
			}
			h = foldHash(h, buf[:k])
			if got += int64(k); got == want {
				close(arrived)
			}
		}
	}()
	wr := token.NewWriter(entry)
	for i := 0; i < n; i++ {
		if err := wr.WriteInt64s(pool[i%len(pool)]); err != nil {
			entry.Close()
			<-done
			return err
		}
	}
	select {
	case <-arrived:
		entry.Close()
	case err := <-done:
		entry.Close()
		return fmt.Errorf("stream ended after %d tokens of %d: %v", got, want, err)
	}
	if err := <-done; err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("delivered %d tokens of %d", got, want)
	}
	if h != wantHash {
		return fmt.Errorf("hash %#x after %d tokens, want %#x", h, got, wantHash)
	}
	return nil
}

// nodePair is two fresh local nodes for the link rungs, on direct TCP
// or with the mux transport, block compression on or off.
func nodePair(mux, compress bool) (a, b *wire.Node, err error) {
	if a, err = wire.NewLocalNode("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if b, err = wire.NewLocalNode("127.0.0.1:0"); err != nil {
		a.Close()
		return nil, nil, err
	}
	for _, n := range []*wire.Node{a, b} {
		n.Broker.SetCompression(compress)
		if mux {
			n.SetTransport(conduit.NewMux(n.Broker, nil))
		}
	}
	return a, b, nil
}

// binding is what a bound-conduit rung pumps through: the transport
// halves of the sending and the receiving side.
type binding struct {
	out, in  conduit.Transport
	addr     string // where in dials out; "" when both halves serve
	newToken func() string
	extra    func() map[string]float64 // counts read after the last run
	close    func()
}

// boundRung pumps batches through two conduits joined by a transport:
// the sending conduit's sink is bound to b.out, the receiving conduit's
// source to b.in.
func boundRung(name string, bind func() (binding, error)) rung {
	return rung{name: name, unit: "ns_per_token", batch: bulkBatch, hashed: true, open: func(d *ladderData) (openRung, error) {
		b, err := bind()
		if err != nil {
			return openRung{}, err
		}
		run := func(n int) error {
			src := conduit.New("ladder.src", bulkChanCap)
			dst := conduit.New("ladder.dst", bulkChanCap)
			tok := b.newToken()
			lo, err := src.BindSink(b.out, conduit.Endpoint{Token: tok}, bulkChanCap)
			if err != nil {
				return err
			}
			li, err := dst.BindSource(b.in, conduit.Endpoint{Addr: b.addr, Token: tok})
			if err != nil {
				return err
			}
			if err := pumpConduits(src.Entry(), dst.Exit(), d, n/bulkBatch); err != nil {
				return err
			}
			if err := lo.Wait(); err != nil {
				return err
			}
			return li.Wait()
		}
		return openRung{run: run, extra: b.extra, close: b.close}, nil
	}}
}

// linkRung binds through a fresh pair of local nodes: direct TCP or a
// mux session, block compression on or off, optionally journaled to a
// WAL with real fsyncs.
func linkRung(name string, mux, compress, durable bool) rung {
	return boundRung(name, func() (binding, error) {
		a, b, err := nodePair(mux, compress)
		if err != nil {
			return binding{}, err
		}
		bd := binding{
			out: a.Transport(), in: b.Transport(),
			addr: a.Broker.Addr(), newToken: a.Broker.NewToken,
			close: func() { a.Close(); b.Close() },
		}
		if !durable {
			return bd, nil
		}
		dir, err := os.MkdirTemp(scratchDir(), "wal-")
		if err != nil {
			bd.close()
			return binding{}, err
		}
		bd.out = conduit.Durable{Inner: bd.out, Dir: filepath.Join(dir, "a"), Obs: a.Obs()}
		bd.in = conduit.Durable{Inner: bd.in, Dir: filepath.Join(dir, "b"), Obs: b.Obs()}
		bd.close = func() { a.Close(); b.Close(); os.RemoveAll(dir) }
		bd.extra = func() map[string]float64 {
			m := map[string]float64{}
			for _, s := range append(scrapeScope("a", a.Obs()), scrapeScope("b", b.Obs())...) {
				switch s.Name {
				case "dpn_wal_appended_bytes_total":
					m["wal.appended_bytes"] += s.Value
				case "dpn_wal_fsync_seconds":
					m["wal.fsyncs"] += s.Value
				}
			}
			return m
		}
		return bd, nil
	})
}

// pingPong passes one 8-byte token back and forth between two
// goroutines through a pair of pipes; each call of run moves n tokens
// there and n back, so a hand-off costs elapsed/2n. fresh selects the
// codec use proclib makes: a new Reader and Writer per element.
func pingPong(name string, codec, fresh bool) rung {
	return rung{name: name, unit: "ns_per_token", batch: 2, open: func(*ladderData) (openRung, error) {
		run := func(n int) error {
			ping, pong := stream.NewPipe(0), stream.NewPipe(0)
			errc := make(chan error, 1)
			go func() { errc <- echo(ping, pong, n, codec, fresh) }()
			err := volley(ping, pong, n, codec, fresh)
			ping.CloseWrite()
			if e := <-errc; err == nil {
				err = e
			}
			return err
		}
		return openRung{run: run}, nil
	}}
}

func volley(ping, pong *stream.Pipe, n int, codec, fresh bool) error {
	var b [8]byte
	w, r := token.NewWriter(ping), token.NewReader(pong)
	for i := 0; i < n/2; i++ {
		switch {
		case !codec:
			if _, err := ping.Write(b[:]); err != nil {
				return err
			}
			if _, err := io.ReadFull(pong.ReadEnd(), b[:]); err != nil {
				return err
			}
		default:
			if fresh {
				w, r = token.NewWriter(ping), token.NewReader(pong)
			}
			if err := w.WriteInt64(int64(i)); err != nil {
				return err
			}
			if v, err := r.ReadInt64(); err != nil || v != int64(i) {
				return fmt.Errorf("echo of %d came back as %d: %v", i, v, err)
			}
		}
	}
	return nil
}

func echo(ping, pong *stream.Pipe, n int, codec, fresh bool) error {
	defer pong.CloseWrite()
	var b [8]byte
	w, r := token.NewWriter(pong), token.NewReader(ping)
	for i := 0; i < n/2; i++ {
		switch {
		case !codec:
			if _, err := io.ReadFull(ping.ReadEnd(), b[:]); err != nil {
				return err
			}
			if _, err := pong.Write(b[:]); err != nil {
				return err
			}
		default:
			if fresh {
				w, r = token.NewWriter(pong), token.NewReader(ping)
			}
			v, err := r.ReadInt64()
			if err != nil {
				return err
			}
			if err := w.WriteInt64(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// ladderRungs lists every rung in the order the ladder runs them;
// ladderBranches in metrics.go says which rung lies beneath which.
func ladderRungs() []rung {
	simple := func(name, unit string, batch int, run func(d *ladderData, n int) error) rung {
		return rung{name: name, unit: unit, batch: batch, open: func(d *ladderData) (openRung, error) {
			return openRung{run: func(n int) error { return run(d, n) }}, nil
		}}
	}
	hashed := func(r rung) rung {
		r.hashed = true
		return r
	}
	return []rung{
		// Batch branch: 4096-token random-walk batches.
		simple("stream.pipe", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			p := stream.NewPipe(bulkChanCap)
			done := make(chan int64, 1)
			go func() {
				buf := make([]byte, 8*bulkBatch)
				var got int64
				for {
					k, err := p.Read(buf)
					got += int64(k)
					if err != nil {
						done <- got
						return
					}
				}
			}()
			for i := 0; i < n/bulkBatch; i++ {
				if _, err := p.Write(d.raw); err != nil {
					return err
				}
			}
			p.CloseWrite()
			if got := <-done; got != int64(n/bulkBatch)*int64(len(d.raw)) {
				return fmt.Errorf("pipe delivered %d bytes", got)
			}
			return nil
		}),
		hashed(simple("token.batch", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			p := stream.NewPipe(bulkChanCap)
			return pumpConduits(p.WriteEnd(), p.ReadEnd(), d, n/bulkBatch)
		})),
		hashed(simple("core.channel", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			net := core.NewNetwork()
			ch := net.NewChannel("ladder.ch", bulkChanCap)
			net.Spawn(&batchSource{Out: ch.Writer(), pool: d.pool, batches: n / bulkBatch})
			sink := &batchSink{In: ch.Reader()}
			net.Spawn(sink)
			if err := net.Wait(); err != nil {
				return err
			}
			if want := d.wantHash(n / bulkBatch); sink.hash != want {
				return fmt.Errorf("core.channel: hash %#x, want %#x", sink.hash, want)
			}
			return nil
		})),
		boundRung("conduit.loopback", func() (binding, error) {
			lb := conduit.NewLoopback()
			var seq atomic.Int64
			return binding{out: lb, in: lb, newToken: func() string { return fmt.Sprint("lb", seq.Add(1)) }}, nil
		}),
		linkRung("netio.link_raw", false, false, false),
		linkRung("netio.link", false, true, false),
		linkRung("mux.link", true, true, false),
		linkRung("conduit.durable", true, true, true),
		{name: "wire.relay", unit: "ns_per_token", batch: bulkBatch, hashed: true, open: func(d *ladderData) (openRung, error) {
			// The exported two-node graph, i.e. bulk-wire's own job.
			c, err := newCluster(1, false, scope{})
			if err != nil {
				return openRung{}, err
			}
			w := &bulkWire{}
			run := func(n int) error {
				return w.job(c, d.pool, n/bulkBatch, d.wantHash(n/bulkBatch), nil, scope{}).err
			}
			return openRung{run: run, close: c.close}, nil
		}},

		// Per-element branch: one 8-byte token per call.
		pingPong("stream.handoff", false, false),
		pingPong("token.single", true, true),
		simple("proclib.hop", "ns_per_token", 2, func(_ *ladderData, n int) error {
			// Sequence → Scale → Collect: n elements over two hops, so a
			// run of n/2 elements makes n hops.
			net := core.NewNetwork()
			a, b := net.NewChannel("a", 0), net.NewChannel("b", 0)
			seq := &proclib.Sequence{From: 1, Out: a.Writer()}
			seq.Iterations = int64(n / 2)
			net.Spawn(seq)
			net.Spawn(&proclib.Scale{Factor: 3, In: a.Reader(), Out: b.Writer()})
			sink := &proclib.Count{In: b.Reader()}
			net.Spawn(sink)
			if err := net.Wait(); err != nil {
				return err
			}
			if sink.N() != int64(n/2) {
				return fmt.Errorf("proclib.hop: %d elements arrived", sink.N())
			}
			return nil
		}),

		// Per-message branch: one task object per op.
		simple("token.object", "ns_per_op", 1, func(d *ladderData, n int) error {
			p := stream.NewPipe(1 << 16)
			w, r := token.NewWriter(p), token.NewReader(p)
			var in meta.Task = &factor.SearchTask{N: d.modulus, Index: 7, D0: 3584, Count: farmBatch}
			for i := 0; i < n; i++ {
				if err := w.WriteObject(&in); err != nil {
					return err
				}
				var out meta.Task
				if err := r.ReadObject(&out); err != nil {
					return err
				}
				if out.(*factor.SearchTask).Index != 7 {
					return errors.New("token.object: task changed in the round trip")
				}
			}
			return nil
		}),
		simple("meta.dispatch", "ns_per_op", 1, func(_ *ladderData, n int) error {
			net := core.NewNetwork()
			dyn := meta.NewDynamic(net, &nopSource{N: int64(n)}, runtime.GOMAXPROCS(0), 0)
			dyn.Spawn(net)
			if err := net.Wait(); err != nil {
				return err
			}
			if got := dyn.Consumer.Consumed(); got != int64(n) {
				return fmt.Errorf("meta.dispatch: %d of %d tasks consumed", got, n)
			}
			return nil
		}),
		{name: "server.call", unit: "ns_per_op", batch: 1, open: func(*ladderData) (openRung, error) {
			sv, err := server.New("ladder", "127.0.0.1:0", "127.0.0.1:0")
			if err != nil {
				return openRung{}, err
			}
			cl, err := server.Dial(sv.Addr())
			if err != nil {
				sv.Close()
				return openRung{}, err
			}
			run := func(n int) error {
				for i := 0; i < n; i++ {
					r, err := cl.Call(&NopWork{Index: int64(i)})
					if err != nil {
						return err
					}
					if r.(*NopResult).Index != int64(i) {
						return errors.New("server.call: wrong result")
					}
				}
				return nil
			}
			return openRung{run: run, close: func() { cl.Close(); sv.Close() }}, nil
		}},

		// Stand-alone rungs.
		simple("blocks.encode", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			var enc blocks.Encoder
			for i := 0; i < n/bulkBatch; i++ {
				out, ok := enc.EncodeBE(d.block[:0], d.raw, blocks.ShapeInt64, len(d.raw)-len(d.raw)/8)
				if !ok {
					return errors.New("blocks.encode: the random walk did not pack")
				}
				d.block = out
			}
			return nil
		}),
		simple("blocks.decode", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			for i := 0; i < n/bulkBatch; i++ {
				out, err := blocks.DecodeBE(d.decoded[:0], d.block, len(d.raw))
				if err != nil {
					return err
				}
				d.decoded = out
			}
			if !bytes.Equal(d.decoded, d.raw) {
				return errors.New("blocks.decode: round trip changed the bytes")
			}
			return nil
		}),
		simple("blocks.refuse", "ns_per_token", bulkBatch, func(d *ladderData, n int) error {
			var enc blocks.Encoder
			for i := 0; i < n/bulkBatch; i++ {
				if _, ok := enc.EncodeBE(d.block[:0], d.noise, blocks.ShapeInt64, len(d.noise)-len(d.noise)/8); ok {
					return errors.New("blocks.refuse: random data packed")
				}
			}
			return nil
		}),
		{name: "wal.append_sync", unit: "us_per_op", batch: 1, open: func(d *ladderData) (openRung, error) {
			dir, err := os.MkdirTemp(scratchDir(), "walrung-")
			if err != nil {
				return openRung{}, err
			}
			log, err := wal.Open(dir, wal.Options{})
			if err != nil {
				os.RemoveAll(dir)
				return openRung{}, err
			}
			var fsyncMs []float64
			run := func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := log.Append(d.raw); err != nil {
						return err
					}
					t0 := time.Now()
					if err := log.Sync(); err != nil {
						return err
					}
					fsyncMs = append(fsyncMs, float64(time.Since(t0))/1e6)
				}
				_, err := log.Truncate(log.End())
				return err
			}
			extra := func() map[string]float64 { return map[string]float64{"wal.fsync_ms_p50": median(fsyncMs)} }
			return openRung{run: run, extra: extra, close: func() { log.Close(); os.RemoveAll(dir) }}, nil
		}},
		simple("core.spawn", "us_per_op", 1, func(_ *ladderData, n int) error {
			net := core.NewNetwork()
			for i := 0; i < n; i++ {
				ch := net.NewChannel("spawn", 0)
				one := &proclib.Constant{Value: 1, Out: ch.Writer()}
				one.Iterations = 1
				sink := &proclib.Count{In: ch.Reader()}
				net.Spawn(one)
				net.Spawn(sink)
				if err := net.Wait(); err != nil {
					return err
				}
			}
			return nil
		}),
		{name: "wire.export_import", unit: "us_per_op", batch: 1, open: func(*ladderData) (openRung, error) {
			a, b, err := nodePair(true, true)
			if err != nil {
				return openRung{}, err
			}
			run := func(n int) error {
				for i := 0; i < n; i++ {
					if err := exportImportCut(a, b); err != nil {
						return err
					}
				}
				return nil
			}
			return openRung{run: run, close: func() { a.Close(); b.Close() }}, nil
		}},
	}
}

// exportImportCut exports the stream-analytics cut from a, ships it
// through gob as the compute-server RPC would, imports it on b, and
// then lets the never-started graph terminate through its closed ends.
func exportImportCut(a, b *wire.Node) error {
	in, merged, cut := streamCut(a.Net)
	parcel, err := wire.Export(a, b.Broker.Addr(), cut...)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(parcel); err != nil {
		return err
	}
	var shipped wire.Parcel
	if err := gob.NewDecoder(&buf).Decode(&shipped); err != nil {
		return err
	}
	procs, err := wire.Import(b, &shipped)
	if err != nil {
		return err
	}
	// Run the imported graph on an empty input so every link closes by
	// the cascade rather than being abandoned.
	for _, p := range procs {
		b.Net.Spawn(p)
	}
	in.Writer().Close()
	if _, err := io.Copy(io.Discard, merged.Reader()); err != nil && !core.IsTermination(err) {
		return err
	}
	merged.Reader().Close()
	return waitNet(b.Net, settleTimeout)
}

// newLadderData builds the inputs the rungs share.
func newLadderData(seed int64) (*ladderData, error) {
	d := &ladderData{pool: walkBatches(seed, bulkPool, bulkBatch), hashes: make(map[int]uint64)}
	d.raw = make([]byte, 0, 8*bulkBatch)
	for _, v := range d.pool[0] {
		d.raw = token.AppendInt64(d.raw, v)
	}
	d.noise = make([]byte, 8*bulkBatch)
	rand.New(rand.NewSource(seed)).Read(d.noise)
	d.block = make([]byte, 0, len(d.raw))
	d.decoded = make([]byte, 0, len(d.raw))
	d.modulus = weakKey(rand.New(rand.NewSource(seed)), 1).N
	var enc blocks.Encoder
	packed, ok := enc.EncodeBE(nil, d.raw, blocks.ShapeInt64, len(d.raw))
	if !ok {
		return nil, errors.New("ladder: the random walk did not pack")
	}
	d.block = append(d.block, packed...)
	d.ratio = float64(len(d.raw)) / float64(len(packed))
	return d, nil
}

// ladderData is what the rungs run on: the bulk-wire batch pool, one
// batch as raw big-endian bytes, the same size of random bytes, and a
// task modulus.
type ladderData struct {
	pool    [][]int64
	hashes  map[int]uint64 // walkHash(pool, batches), by batches
	raw     []byte
	noise   []byte
	block   []byte
	decoded []byte
	modulus *big.Int
	ratio   float64
}

// wantHash is the hash a far end must arrive at after the given number
// of batches. It is remembered, and timeRung asks for it before the
// clock starts, so that computing the expectation is not timed.
func (d *ladderData) wantHash(batches int) uint64 {
	h, ok := d.hashes[batches]
	if !ok {
		h = walkHash(d.pool, batches)
		d.hashes[batches] = h
	}
	return h
}
