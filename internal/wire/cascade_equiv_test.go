package wire

import (
	"encoding/gob"
	"io"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/obs"
	"dpn/internal/token"
)

// The close-cascade equivalence property (satellite of the conduit
// refactor): a Kahn graph must compute the identical stream whether its
// channel is a bare in-proc conduit, a wire-bound conduit, or a conduit
// whose transport is rebound mid-stream by a live migration — and the
// §3.4 cascade must terminate the graph the same way in all three
// deployments, in both directions (producer EOF flowing down, consumer
// close flowing up).

// lcgSource emits a deterministic pseudorandom int64 sequence, paced so
// mid-stream migrations reliably land mid-stream. Iterations <= 0 runs
// until the consumer's close poisons the output (the upward cascade is
// then the only way the process can stop).
type lcgSource struct {
	core.Iterative
	Out   *core.WritePort
	State int64
}

func (s *lcgSource) Step(env *core.Env) error {
	time.Sleep(50 * time.Microsecond)
	s.State = s.State*6364136223846793005 + 1442695040888963407
	return token.NewWriter(s.Out).WriteInt64(s.State)
}

// capCollect collects int64 elements. With Limit > 0 it closes its
// input after Limit elements (triggering the upward cascade); with
// Limit == 0 it reads until the producer's EOF reaches it (the downward
// cascade). Vals is exported so the collected prefix survives a
// migration; the atomic mirror lets the test poll progress on a live
// process without racing. With HoldAt > 0 it stops reading after that
// many elements for as long as collectHold is set, idling at step
// boundaries, so a test can let the rest of the stream (and its EOF)
// pile up behind a live reader before migrating it.
type capCollect struct {
	In     *core.ReadPort
	Limit  int
	HoldAt int
	Vals   []int64

	progress atomic.Int64
}

var collectHold atomic.Bool

func (c *capCollect) Step(env *core.Env) error {
	if c.Limit > 0 && len(c.Vals) >= c.Limit {
		c.In.Close()
		return io.EOF
	}
	if c.HoldAt > 0 && len(c.Vals) >= c.HoldAt && collectHold.Load() {
		time.Sleep(200 * time.Microsecond)
		return nil
	}
	v, err := token.NewReader(c.In).ReadInt64()
	if err != nil {
		return err
	}
	c.Vals = append(c.Vals, v)
	c.progress.Store(int64(len(c.Vals)))
	return nil
}

func init() {
	gob.Register(&lcgSource{})
	gob.Register(&capCollect{})
}

// cascadeCase fixes one cascade direction. iterations > 0 with
// limit == 0 exercises the downward cascade (producer finishes, EOF
// drains to the consumer); iterations <= 0 with limit > 0 exercises the
// upward cascade (consumer closes, ErrReadClosed poisons the producer).
type cascadeCase struct {
	name       string
	iterations int64
	limit      int
	want       int // expected element count
}

var cascadeCases = []cascadeCase{
	{name: "producer-eof", iterations: 120, limit: 0, want: 120},
	{name: "consumer-close", iterations: 0, limit: 120, want: 120},
}

func newCollector(cc cascadeCase, in *core.ReadPort) *capCollect {
	return &capCollect{In: in, Limit: cc.limit}
}

func newSource(cc cascadeCase, out *core.WritePort) *lcgSource {
	s := &lcgSource{Out: out, State: 42}
	s.Iterations = cc.iterations
	return s
}

// runInproc runs the graph on one node: the conduit stays unbound.
func runInproc(t *testing.T, cc cascadeCase) []int64 {
	t.Helper()
	a := newTestNode(t)
	ch := a.Net.NewChannel("eq", 256)
	col := newCollector(cc, ch.Reader())
	a.Net.Spawn(newSource(cc, ch.Writer()))
	a.Net.Spawn(col)
	waitNet(t, a.Net, "inproc network")
	return col.Vals
}

// runWire exports the collector before execution: the conduit's sink
// is rebound to the node's network transport and the cascade crosses
// the wire.
func runWire(t *testing.T, cc cascadeCase) []int64 {
	t.Helper()
	a := newTestNode(t)
	b := newTestNode(t)
	ch := a.Net.NewChannel("eq", 256)
	src := newSource(cc, ch.Writer())
	parcel, err := Export(a, b.Broker.Addr(), newCollector(cc, ch.Reader()))
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	col, ok := procs[0].(*capCollect)
	if !ok {
		t.Fatalf("imported %T", procs[0])
	}
	b.Net.Spawn(col)
	a.Net.Spawn(src)
	waitNet(t, a.Net, "producer node")
	waitNet(t, b.Net, "consumer node")
	return col.Vals
}

// When runWireRebind migrates the collector, relative to the producer's
// EOF. The paper's promise (§4.2–4.3) is that a channel end can move at
// any time, so the sweep moves the reader at each point where the link
// under it is in a different state.
const (
	moveMidStream    = "mid-stream"    // the producer is still running
	moveEOFSent      = "eof-sent"      // its EOF is on the wire: in flight, or just delivered
	moveEOFConfirmed = "eof-confirmed" // the reader host confirmed the EOF: the link is over
)

// framesSent reads a node's outbound frame counter for one kind.
func framesSent(n *Node, kind string) int64 {
	return n.Obs().Registry().Counter("dpn_broker_frames_total",
		obs.L("dir", "out"), obs.L("kind", kind)).Value()
}

// runWireRebind additionally migrates the running collector B→C once a
// quarter of the stream has flowed and the link has reached moveAt: the
// reader-side rebind drains the conduit at a fence, ships the leftover,
// and resumes on a fresh link — or, when the stream already ended at B,
// moves what is left as the local channel it has become.
func runWireRebind(t *testing.T, cc cascadeCase, moveAt string) []int64 {
	t.Helper()
	a := newTestNode(t)
	b := newTestNode(t)
	c := newTestNode(t)
	capacity := 256
	col := newCollector(cc, nil)
	if moveAt != moveMidStream {
		// The collector stops a quarter in, and the channel is roomy enough
		// for the producer to finish regardless.
		capacity = 8 * cc.want
		col.HoldAt = cc.want / 4
		collectHold.Store(true)
		defer collectHold.Store(false)
	}
	ch := a.Net.NewChannel("eq", capacity)
	col.In = ch.Reader()
	src := newSource(cc, ch.Writer())
	parcel, err := Export(a, b.Broker.Addr(), col)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	colB := procs[0].(*capCollect)
	h := b.Net.Spawn(colB)
	a.Net.Spawn(src)

	deadline := time.Now().Add(10 * time.Second)
	for colB.progress.Load() < int64(cc.want/4) {
		if time.Now().After(deadline) {
			t.Fatal("collector made no progress before migration")
		}
		time.Sleep(time.Millisecond)
	}
	switch moveAt {
	case moveEOFSent:
		waitFor(t, "producer host sends EOF", func() bool { return framesSent(a, "eof") > 0 })
	case moveEOFConfirmed:
		waitFor(t, "consumer host confirms EOF", func() bool { return framesSent(b, "bye") > 0 })
	}
	p2, err := Migrate(b, c.Broker.Addr(), h)
	if err != nil {
		t.Fatal(err)
	}
	if n := colB.progress.Load(); n == 0 || n >= int64(cc.want) {
		t.Fatalf("migration did not land mid-stream: %d elements", n)
	}
	procsC, err := Import(c, ship(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	colC := procsC[0].(*capCollect)
	collectHold.Store(false)
	c.Net.Spawn(colC)
	waitNet(t, a.Net, "producer node")
	waitNet(t, b.Net, "old consumer node")
	waitNet(t, c.Net, "new consumer node")
	// Nothing may be left behind: a stranded move parks a stream (or a
	// link watcher) on some node for good.
	for _, n := range []*Node{a, b, c} {
		n := n
		waitFor(t, "every link stream closes", func() bool { return n.Broker.MuxStreams() == 0 })
		waitFor(t, "every link watcher exits", func() bool { return watcherCount(n) == 0 })
	}
	return colC.Vals
}

// --- Compressed-conduit equivalence (PR 8) ---------------------------
//
// The wire compressor must be invisible to the computed stream: a
// batched monotone producer — the shape that actually compresses, and
// the shape that stamps the int64 hint — must yield the identical
// element sequence whether the conduit is in-proc (never compressed),
// wire-bound (compressed), wire-bound under chaos faults with replayed
// chunks re-sealed after every reconnect, or rebound mid-stream by a
// live migration whose SealAndDrain races sealed blocks in flight.

// batchSource emits monotone int64 runs through the batch path, so
// every link chunk is compressible and shape-hinted.
type batchSource struct {
	core.Iterative
	Out  *core.WritePort
	Next int64
}

func (s *batchSource) Step(env *core.Env) error {
	time.Sleep(50 * time.Microsecond)
	var vals [64]int64
	for i := range vals {
		vals[i] = s.Next
		s.Next++
	}
	return token.NewWriter(s.Out).WriteInt64s(vals[:])
}

// batchCollect drains int64 elements with the batch read path until
// the producer's EOF cascades down.
type batchCollect struct {
	In   *core.ReadPort
	Vals []int64

	progress atomic.Int64
}

func (c *batchCollect) Step(env *core.Env) error {
	var buf [256]int64
	n, err := token.NewReader(c.In).ReadInt64s(buf[:])
	if n > 0 {
		c.Vals = append(c.Vals, buf[:n]...)
		c.progress.Store(int64(len(c.Vals)))
	}
	return err
}

func init() {
	gob.Register(&batchSource{})
	gob.Register(&batchCollect{})
}

const batchEqSteps = 100 // 64 elements per step

func batchEqWant() []int64 {
	want := make([]int64, batchEqSteps*64)
	for i := range want {
		want[i] = int64(i)
	}
	return want
}

func newBatchSource() *batchSource {
	s := &batchSource{}
	s.Iterations = batchEqSteps
	return s
}

// dataCSent reads a node's outbound DATA-C frame counter — the
// evidence that compression actually engaged on its links.
func dataCSent(n *Node) int64 {
	return n.Obs().Registry().Counter("dpn_broker_frames_total",
		obs.L("dir", "out"), obs.L("kind", "data-c")).Value()
}

// runBatchWire runs the batched graph across a wire-bound conduit
// between two prepared nodes and returns the collected stream.
func runBatchWire(t *testing.T, a, b *Node) []int64 {
	t.Helper()
	ch := a.Net.NewChannel("ceq", 256)
	src := newBatchSource()
	src.Out = ch.Writer()
	parcel, err := Export(a, b.Broker.Addr(), &batchCollect{In: ch.Reader()})
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	col := procs[0].(*batchCollect)
	b.Net.Spawn(col)
	a.Net.Spawn(src)
	waitNet(t, a.Net, "producer node")
	waitNet(t, b.Net, "consumer node")
	return col.Vals
}

// runBatchWireRebind migrates the running collector B→C mid-stream, so
// SealAndDrain fences the compressed-bound conduit with sealed blocks
// in flight.
func runBatchWireRebind(t *testing.T, a, b, c *Node) []int64 {
	t.Helper()
	ch := a.Net.NewChannel("ceq", 256)
	src := newBatchSource()
	src.Out = ch.Writer()
	parcel, err := Export(a, b.Broker.Addr(), &batchCollect{In: ch.Reader()})
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	colB := procs[0].(*batchCollect)
	h := b.Net.Spawn(colB)
	a.Net.Spawn(src)

	want := batchEqSteps * 64
	deadline := time.Now().Add(10 * time.Second)
	for colB.progress.Load() < int64(want/4) {
		if time.Now().After(deadline) {
			t.Fatal("collector made no progress before migration")
		}
		time.Sleep(time.Millisecond)
	}
	p2, err := Migrate(b, c.Broker.Addr(), h)
	if err != nil {
		t.Fatal(err)
	}
	if n := colB.progress.Load(); n == 0 || n >= int64(want) {
		t.Fatalf("migration did not land mid-stream: %d elements", n)
	}
	procsC, err := Import(c, ship(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	colC := procsC[0].(*batchCollect)
	c.Net.Spawn(colC)
	waitNet(t, a.Net, "producer node")
	waitNet(t, b.Net, "old consumer node")
	waitNet(t, c.Net, "new consumer node")
	return colC.Vals
}

func TestCascadeEquivalenceCompressedConduits(t *testing.T) {
	want := batchEqWant()

	// In-proc: the loopback plane must stay untouched by compression.
	a0 := newTestNode(t)
	ch := a0.Net.NewChannel("ceq", 256)
	src := newBatchSource()
	src.Out = ch.Writer()
	col := &batchCollect{In: ch.Reader()}
	a0.Net.Spawn(src)
	a0.Net.Spawn(col)
	waitNet(t, a0.Net, "inproc network")
	if !reflect.DeepEqual(col.Vals, want) {
		t.Fatalf("inproc collected %d elements, want %d", len(col.Vals), len(want))
	}
	if n := dataCSent(a0); n != 0 {
		t.Fatalf("in-proc deployment sent %d DATA-C frames", n)
	}

	// Wire: identical stream, compression demonstrably engaged, and
	// exactly one session per peer pair underneath.
	a, b := newTestNode(t), newTestNode(t)
	if got := runBatchWire(t, a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("wire deployment diverged: %d elements", len(got))
	}
	if dataCSent(a) == 0 {
		t.Fatal("wire deployment never compressed a frame")
	}
	if a.Broker.MuxSessions() != 1 || b.Broker.MuxSessions() != 1 {
		t.Fatalf("wire deployment sessions: a=%d b=%d, want 1 and 1",
			a.Broker.MuxSessions(), b.Broker.MuxSessions())
	}

	// Wire with compression disabled on the sender: the element stream
	// must again be identical, proving the codec is pure transport.
	ap, bp := newTestNode(t), newTestNode(t)
	ap.Broker.SetCompression(false)
	if got := runBatchWire(t, ap, bp); !reflect.DeepEqual(got, want) {
		t.Fatalf("compression-off deployment diverged: %d elements", len(got))
	}
	if n := dataCSent(ap); n != 0 {
		t.Fatalf("compression-off sender sent %d DATA-C frames", n)
	}

	// Mid-stream migration: the fence drains and the rebind lands on a
	// fresh virtual stream (and a fresh session toward the new host)
	// with sealed blocks in flight.
	ma, mb, mc := newTestNode(t), newTestNode(t), newTestNode(t)
	if got := runBatchWireRebind(t, ma, mb, mc); !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-stream rebind diverged: %d elements", len(got))
	}
	if dataCSent(ma) == 0 {
		t.Fatal("rebind deployment never compressed a frame")
	}
	if ma.Broker.MuxSessions() != 2 || mc.Broker.MuxSessions() != 1 {
		t.Fatalf("rebind deployment sessions: a=%d c=%d, want 2 (toward B and C) and 1",
			ma.Broker.MuxSessions(), mc.Broker.MuxSessions())
	}
}

// TestCascadeEquivalenceCompressedChaos reruns the compressed wire and
// mid-rebind deployments under seeded latency/jitter fault injection
// with resilient links: reconnects replay unacked chunks, which are
// re-sealed per connection, and the stream must still be
// element-identical. Runs under the -chaos gate; replay a failure with
// CHAOS_SEED.
func TestCascadeEquivalenceCompressedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	seed := chaosWireSeed(t, 4242)
	t.Logf("chaos seed %d", seed)
	inj := faults.New(faults.Config{
		Seed:    seed,
		Latency: 200 * time.Microsecond,
		Jitter:  300 * time.Microsecond,
	})
	res := netio.Resilience{
		HeartbeatEvery: 30 * time.Millisecond,
		MissDeadline:   500 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       60 * time.Millisecond,
		LinkDeadline:   10 * time.Second,
		Seed:           seed,
	}
	want := batchEqWant()

	a, b := newChaosWireNode(t, inj, res), newChaosWireNode(t, inj, res)
	if got := runBatchWire(t, a, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos wire deployment diverged: %d elements", len(got))
	}
	if dataCSent(a) == 0 {
		t.Fatal("chaos wire deployment never compressed a frame")
	}

	ma, mb, mc := newChaosWireNode(t, inj, res), newChaosWireNode(t, inj, res), newChaosWireNode(t, inj, res)
	if got := runBatchWireRebind(t, ma, mb, mc); !reflect.DeepEqual(got, want) {
		t.Fatalf("chaos mid-rebind deployment diverged: %d elements", len(got))
	}
}

func TestCascadeEquivalenceAcrossTransports(t *testing.T) {
	for _, cc := range cascadeCases {
		cc := cc
		t.Run(cc.name, func(t *testing.T) {
			inproc := runInproc(t, cc)
			if len(inproc) != cc.want {
				t.Fatalf("inproc collected %d elements, want %d", len(inproc), cc.want)
			}
			wired := runWire(t, cc)
			if !reflect.DeepEqual(wired, inproc) {
				t.Fatalf("wire deployment diverged: %d elements vs %d", len(wired), len(inproc))
			}
			moves := []string{moveMidStream}
			if cc.limit == 0 {
				moves = append(moves, moveEOFSent, moveEOFConfirmed)
			}
			for _, moveAt := range moves {
				rebound := runWireRebind(t, cc, moveAt)
				if !reflect.DeepEqual(rebound, inproc) {
					t.Fatalf("%s rebind diverged: %d elements vs %d", moveAt, len(rebound), len(inproc))
				}
			}
		})
	}
}
