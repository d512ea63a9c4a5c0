package wire

import (
	"bytes"
	"encoding/gob"
	"os"
	"reflect"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/netio"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// newTestNode starts a node for one test. With DPN_TEST_POLICY=retry in
// the environment its broker gets netio.DefaultResilience(), so the
// suite can be replayed unmodified under a retry policy (see the netio
// tests' newTestBroker).
func newTestNode(t *testing.T) *Node {
	t.Helper()
	n, err := NewLocalNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DPN_TEST_POLICY") == "retry" {
		n.Broker.SetResilience(netio.DefaultResilience())
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// ship round-trips a parcel through gob, as the compute-server RPC
// does, so the tests prove parcels are genuinely serializable.
func ship(t *testing.T, p *Parcel) *Parcel {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatalf("parcel encode: %v", err)
	}
	var out Parcel
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("parcel decode: %v", err)
	}
	return &out
}

func waitNet(t *testing.T, n *core.Network, what string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not terminate", what)
	}
}

func findCollect(procs []any) *proclib.Collect {
	for _, p := range procs {
		if c, ok := p.(*proclib.Collect); ok {
			return c
		}
	}
	return nil
}

func seq(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// Figure 14: the consuming process is serialized and sent to another
// server; the channel is maintained automatically over the network.
func TestReaderMovesToRemoteNode(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	ch := a.Net.NewChannel("ab", 64)
	src := &proclib.SliceSource{Values: seq(50), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	parcel, err := Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	remoteSink := findCollect(procs)
	if remoteSink == nil {
		t.Fatal("collect did not survive the move")
	}
	for _, p := range procs {
		b.Net.Spawn(p)
	}
	a.Net.Spawn(src)
	waitNet(t, a.Net, "origin network")
	waitNet(t, b.Net, "remote network")
	if got := remoteSink.Values(); !reflect.DeepEqual(got, seq(50)) {
		t.Fatalf("got %v", got)
	}
}

// The dual of Figure 14: the producing process moves; the consumer
// stays.
func TestWriterMovesToRemoteNode(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	ch := a.Net.NewChannel("ab", 64)
	src := &proclib.SliceSource{Values: seq(30), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	parcel, err := Export(a, b.Broker.Addr(), src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpawnImported(b, ship(t, parcel)); err != nil {
		t.Fatal(err)
	}
	a.Net.Spawn(sink)
	waitNet(t, b.Net, "remote network")
	waitNet(t, a.Net, "origin network")
	if got := sink.Values(); !reflect.DeepEqual(got, seq(30)) {
		t.Fatalf("got %v", got)
	}
}

// A composite whose internal channel holds unconsumed data moves as a
// unit; the data must move with it (§3.3).
func TestCompositeWithBufferedInternalChannel(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	inner := a.Net.NewChannel("inner", 256)
	// Pre-load unconsumed elements (9, 8, 7) into the internal channel.
	var preload []byte
	for _, v := range []int64{9, 8, 7} {
		preload = token.AppendInt64(preload, v)
	}
	if _, err := inner.Pipe().Write(preload); err != nil {
		t.Fatal(err)
	}
	out := a.Net.NewChannel("out", 256)
	relay := &proclib.PassThrough{In: inner.Reader(), Out: out.Writer()}
	writer := &proclib.SliceSource{Values: []int64{6, 5}, Out: inner.Writer()}
	sink := &proclib.Collect{In: out.Reader()}

	comp := (&core.Composite{Name: "unit"}).Add(writer).Add(relay)
	parcel, err := Export(a, b.Broker.Addr(), comp)
	if err != nil {
		t.Fatal(err)
	}
	if len(parcel.Internal) != 1 {
		t.Fatalf("internal channels = %d, want 1", len(parcel.Internal))
	}
	if !bytes.Equal(parcel.Internal[0].Buffered, preload) {
		t.Fatalf("buffered = %v", parcel.Internal[0].Buffered)
	}
	if _, err := SpawnImported(b, ship(t, parcel)); err != nil {
		t.Fatal(err)
	}
	a.Net.Spawn(sink)
	waitNet(t, b.Net, "remote network")
	waitNet(t, a.Net, "origin network")
	// Buffered elements arrive first, then the new writes, in order.
	if got := sink.Values(); !reflect.DeepEqual(got, []int64{9, 8, 7, 6, 5}) {
		t.Fatalf("got %v", got)
	}
}

// Figure 15: after the consumer moved A→B, the producer moves A→C. The
// REDIRECT must connect C directly to B and take A out of the path.
func TestWriterSecondHopRedirects(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	c := newTestNode(t)

	ch := a.Net.NewChannel("ab", 64)
	src := &proclib.SliceSource{Values: seq(100), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	// Hop 1: consumer to B.
	p1, err := Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procsB, err := Import(b, ship(t, p1))
	if err != nil {
		t.Fatal(err)
	}
	remoteSink := findCollect(procsB)

	// Hop 2: producer to C (before anything runs, as in the paper).
	p2, err := Export(a, c.Broker.Addr(), src)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Boundary[0].Addr != b.Broker.Addr() {
		t.Fatalf("redirect descriptor points at %q, want B %q", p2.Boundary[0].Addr, b.Broker.Addr())
	}

	aIn, aOut := a.Broker.BytesIn(), a.Broker.BytesOut()

	if _, err := SpawnImported(c, ship(t, p2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range procsB {
		b.Net.Spawn(p)
	}
	waitNet(t, c.Net, "producer node")
	waitNet(t, b.Net, "consumer node")
	if got := remoteSink.Values(); !reflect.DeepEqual(got, seq(100)) {
		t.Fatalf("got %v", got)
	}
	// Decentralized communication (§4.3): no data relayed through A.
	if a.Broker.BytesIn() != aIn || a.Broker.BytesOut() != aOut {
		t.Fatalf("traffic relayed through origin: in %d→%d out %d→%d",
			aIn, a.Broker.BytesIn(), aOut, a.Broker.BytesOut())
	}
}

// The reader-side second hop: consumer moves A→B, then B→C. The writer
// host is told to reconnect to C; buffered data travels as leftover.
func TestReaderSecondHopMoves(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	c := newTestNode(t)

	ch := a.Net.NewChannel("ab", 1024)
	src := &proclib.SliceSource{Values: seq(40), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	p1, err := Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procsB, err := Import(b, ship(t, p1))
	if err != nil {
		t.Fatal(err)
	}
	sinkB := findCollect(procsB)

	// Second hop B→C before execution.
	p2, err := Export(b, c.Broker.Addr(), sinkB)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Boundary[0].Mode != "serve" {
		t.Fatalf("second-hop reader descriptor mode = %q, want serve", p2.Boundary[0].Mode)
	}
	procsC, err := Import(c, ship(t, p2))
	if err != nil {
		t.Fatal(err)
	}
	sinkC := findCollect(procsC)
	for _, p := range procsC {
		c.Net.Spawn(p)
	}
	a.Net.Spawn(src)
	waitNet(t, a.Net, "producer node")
	waitNet(t, c.Net, "consumer node")
	if got := sinkC.Values(); !reflect.DeepEqual(got, seq(40)) {
		t.Fatalf("got %v", got)
	}
}

func TestExportRejectsDetachedPort(t *testing.T) {
	a := newTestNode(t)
	ch := a.Net.NewChannel("x", 8)
	sink := &proclib.Collect{In: ch.Reader()}
	sink.In.Detach()
	if _, err := Export(a, "nowhere", sink); err == nil {
		t.Fatal("detached port accepted")
	}
}

func TestImportRejectsBadDescriptor(t *testing.T) {
	a := newTestNode(t)
	_, err := Import(a, &Parcel{Boundary: []PortDescriptor{{Side: "sideways"}}})
	if err == nil {
		t.Fatal("bad descriptor accepted")
	}
}

func TestNodeDeadlockPeerImplementation(t *testing.T) {
	a := newTestNode(t)
	st, err := a.DeadlockStatus()
	if err != nil || st.Live != 0 {
		t.Fatalf("empty node status: %+v, %v", st, err)
	}
	ch := a.Net.NewChannel("tiny", 8)
	// Fill the channel and block a writer so the snapshot reports it.
	ch.Writer().Write(make([]byte, 8))
	go ch.Writer().Write([]byte{1})
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = a.DeadlockStatus()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.FullChannels) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("full channel never reported: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	if st.FullChannels[0].Name != "tiny" || st.FullChannels[0].Cap != 8 {
		t.Fatalf("ref = %+v", st.FullChannels[0])
	}
	got, err := a.GrowChannel("tiny", 32)
	if err != nil || got != 32 {
		t.Fatalf("grow: %d, %v", got, err)
	}
	if _, err := a.GrowChannel("missing", 64); err == nil {
		t.Fatal("unknown channel accepted")
	}
	ch.Reader().Close()
}

func TestNewLocalNodeBadAddr(t *testing.T) {
	if _, err := NewLocalNode("256.0.0.1:bad"); err == nil {
		t.Fatal("bad address accepted")
	}
}

// Three hops: consumer to B, producer to C, then producer again C→D.
// Each writer-side move must redirect to a direct connection with B —
// repeated redirection, not just the single hop of Figure 15.
func TestWriterThirdHopRedirectsAgain(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	c := newTestNode(t)
	d := newTestNode(t)

	ch := a.Net.NewChannel("ab", 64)
	src := &proclib.SliceSource{Values: seq(60), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	p1, err := Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procsB, err := Import(b, ship(t, p1))
	if err != nil {
		t.Fatal(err)
	}
	sinkB := findCollect(procsB)

	// Hop 2: producer to C.
	p2, err := Export(a, c.Broker.Addr(), src)
	if err != nil {
		t.Fatal(err)
	}
	procsC, err := Import(c, ship(t, p2))
	if err != nil {
		t.Fatal(err)
	}

	// Hop 3: producer again, C → D, before execution.
	p3, err := Export(c, d.Broker.Addr(), procsC[0])
	if err != nil {
		t.Fatal(err)
	}
	if p3.Boundary[0].Addr != b.Broker.Addr() {
		t.Fatalf("third hop points at %q, want B %q", p3.Boundary[0].Addr, b.Broker.Addr())
	}

	aIn, aOut := a.Broker.BytesIn(), a.Broker.BytesOut()
	cIn, cOut := c.Broker.BytesIn(), c.Broker.BytesOut()

	if _, err := SpawnImported(d, ship(t, p3)); err != nil {
		t.Fatal(err)
	}
	for _, p := range procsB {
		b.Net.Spawn(p)
	}
	waitNet(t, d.Net, "final producer node")
	waitNet(t, b.Net, "consumer node")
	if got := sinkB.Values(); !reflect.DeepEqual(got, seq(60)) {
		t.Fatalf("got %v", got)
	}
	// Neither A nor C relayed any data.
	if a.Broker.BytesIn() != aIn || a.Broker.BytesOut() != aOut {
		t.Fatal("traffic relayed through A")
	}
	if c.Broker.BytesIn() != cIn || c.Broker.BytesOut() != cOut {
		t.Fatal("traffic relayed through C")
	}
	if d.Broker.BytesOut() == 0 || b.Broker.BytesIn() == 0 {
		t.Fatal("expected direct D→B traffic")
	}
}
