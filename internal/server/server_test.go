package server

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/factor"
	"dpn/internal/meta"
	"dpn/internal/proclib"
	"dpn/internal/wire"
)

func newTestServer(t *testing.T, name string) *Server {
	t.Helper()
	s, err := New(name, "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	s.mu.Lock()
	s.keepSpawned = true // findRemoteCollect reads results from the bodies
	s.mu.Unlock()
	return s
}

func newTestClient(t *testing.T, s *Server) *Client {
	t.Helper()
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func localNode(t *testing.T) *wire.Node {
	t.Helper()
	n, err := wire.NewLocalNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

func TestPingAndInfo(t *testing.T) {
	s := newTestServer(t, "alpha")
	c := newTestClient(t, s)
	name, err := c.Ping()
	if err != nil || name != "alpha" {
		t.Fatalf("Ping = %q, %v", name, err)
	}
	addr, err := c.BrokerAddr()
	if err != nil || addr != s.BrokerAddr() {
		t.Fatalf("BrokerAddr = %q, %v (want %q)", addr, err, s.BrokerAddr())
	}
	// Cached path.
	addr2, err := c.BrokerAddr()
	if err != nil || addr2 != addr {
		t.Fatal("cached BrokerAddr differs")
	}
}

// TestBrokerAddrConcurrentCallers calls BrokerAddr from two goroutines
// on one fresh client, as two RunProcs or Migrate calls that share a
// client do. Under -race it fails if the cached address is read or
// written outside the client's lock.
func TestBrokerAddrConcurrentCallers(t *testing.T) {
	s := newTestServer(t, "alpha")
	c := newTestClient(t, s)
	errs := make(chan error, 2)
	for range 2 {
		go func() {
			addr, err := c.BrokerAddr()
			if err == nil && addr != s.BrokerAddr() {
				err = fmt.Errorf("BrokerAddr = %q, want %q", addr, s.BrokerAddr())
			}
			errs <- err
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// EchoTask is a trivial task for Call tests.
type EchoTask struct{ V int64 }

// Run implements meta.Task.
func (e *EchoTask) Run() (meta.Task, error) { return &EchoTask{V: e.V * 2}, nil }

func init() { gob.Register(&EchoTask{}) }

func TestSynchronousCall(t *testing.T) {
	s := newTestServer(t, "calc")
	c := newTestClient(t, s)
	res, err := c.Call(&EchoTask{V: 21})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.(*EchoTask).V; got != 42 {
		t.Fatalf("Call result = %d, want 42", got)
	}
}

func TestRunProcsAcrossServer(t *testing.T) {
	// The Figure 14 flow through the real compute-server RPC: a local
	// producer, a remote consumer, channel maintained automatically.
	s := newTestServer(t, "remote")
	c := newTestClient(t, s)
	local := localNode(t)

	ch := local.Net.NewChannel("ab", 64)
	vals := []int64{5, 10, 15, 20}
	src := &proclib.SliceSource{Values: vals, Out: ch.Writer()}
	sink := &proclib.Count{In: ch.Reader()}

	names, err := c.RunProcs(local, sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "Count" {
		t.Fatalf("spawned %v", names)
	}
	local.Net.Spawn(src)
	if err := local.Net.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	// The remote Count consumed every element; observe through the
	// server's node (same process in tests).
	var remoteCount *proclib.Count
	for _, chn := range s.Node().Net.Channels() {
		_ = chn
	}
	// Count was imported as a fresh object; find it via live procs is
	// impossible after exit, so check the live counter dropped to zero
	// and re-run a Call to ensure the server still works.
	if live, err := c.Live(); err != nil || live != 0 {
		t.Fatalf("Live = %d, %v", live, err)
	}
	_ = remoteCount
	if _, err := c.Call(&EchoTask{V: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedFibonacciTwoServers(t *testing.T) {
	// Figure 15's topology driven through compute servers: the whole
	// Fibonacci graph is built locally; the printing end goes to server
	// B; one duplicate stage goes to server C.
	sb := newTestServer(t, "B")
	sc := newTestServer(t, "C")
	cb := newTestClient(t, sb)
	cc := newTestClient(t, sc)
	local := localNode(t)
	n := local.Net

	ab := n.NewChannel("ab", 0)
	be := n.NewChannel("be", 0)
	cd := n.NewChannel("cd", 0)
	df := n.NewChannel("df", 0)
	ed := n.NewChannel("ed", 0)
	eg := n.NewChannel("eg", 0)
	fg := n.NewChannel("fg", 0)
	fh := n.NewChannel("fh", 0)
	gb := n.NewChannel("gb", 0)

	one1 := &proclib.Constant{Value: 1, Out: ab.Writer()}
	one1.Iterations = 1
	cons1 := &proclib.Cons{HeadIn: ab.Reader(), In: gb.Reader(), Out: be.Writer()}
	dup1 := &proclib.Duplicate{In: be.Reader(), Outs: []*core.WritePort{ed.Writer(), eg.Writer()}}
	add := &proclib.Add{InA: eg.Reader(), InB: fg.Reader(), Out: gb.Writer()}
	one2 := &proclib.Constant{Value: 1, Out: cd.Writer()}
	one2.Iterations = 1
	cons2 := &proclib.Cons{HeadIn: cd.Reader(), In: ed.Reader(), Out: df.Writer()}
	dup2 := &proclib.Duplicate{In: df.Reader(), Outs: []*core.WritePort{fh.Writer(), fg.Writer()}}
	sink := &proclib.Collect{In: fh.Reader()}
	sink.Iterations = 15

	// Ship the consumer to B first, then the second duplicate to C —
	// the Figure 15 double hop, with the fh channel redirected to a
	// direct C→B connection.
	if _, err := cb.RunProcs(local, sink); err != nil {
		t.Fatal(err)
	}
	if _, err := cc.RunProcs(local, dup2); err != nil {
		t.Fatal(err)
	}
	for _, p := range []any{one1, cons1, dup1, add, one2, cons2} {
		n.Spawn(p)
	}

	done := make(chan error, 1)
	go func() {
		if err := n.Wait(); err != nil {
			done <- err
			return
		}
		if err := sb.WaitIdle(); err != nil {
			done <- err
			return
		}
		done <- sc.WaitIdle()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distributed fibonacci did not terminate")
	}
	// Find the Collect that ran on server B.
	want := []int64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610}
	got := findRemoteCollect(sb)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// findRemoteCollect digs the Collect results out of a server's node.
// In-process tests share memory with the server, so we can look at the
// spawned bodies directly.
func findRemoteCollect(s *Server) []int64 {
	for _, p := range s.spawnedBodies() {
		if c, ok := p.(*proclib.Collect); ok {
			return c.Values()
		}
	}
	return nil
}

func TestDistributedFactorizationDynamicWorkers(t *testing.T) {
	// The paper's §5.2 experiment in miniature: dynamic load balancing
	// with the workers executing on two remote compute servers.
	s1 := newTestServer(t, "w1")
	s2 := newTestServer(t, "w2")
	c1 := newTestClient(t, s1)
	c2 := newTestClient(t, s2)
	local := localNode(t)

	rnd := rand.New(rand.NewSource(7))
	key, err := factor.GenerateWeakKey(rnd, 96, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	dyn := meta.NewDynamic(local.Net, &factor.SearchSpace{N: key.N, Batch: 8}, 4, 0)
	var found *factor.Result
	dyn.Consumer.SetOnResult(func(ran, result meta.Task) {
		if r, ok := ran.(*factor.Result); ok && r.Found && found == nil {
			found = r
		}
	})
	// Workers 0,1 to server 1; workers 2,3 to server 2.
	if _, err := c1.RunProcs(local, dyn.Workers[0], dyn.Workers[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.RunProcs(local, dyn.Workers[2], dyn.Workers[3]); err != nil {
		t.Fatal(err)
	}
	local.Net.Spawn(dyn.Producer)
	local.Net.Spawn(dyn.Direct)
	local.Net.Spawn(dyn.Turnstile)
	local.Net.Spawn(dyn.IndexCons)
	local.Net.Spawn(dyn.Select)
	local.Net.Spawn(dyn.Consumer)

	done := make(chan error, 1)
	go func() { done <- local.Net.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("distributed factorization did not terminate")
	}
	if found == nil {
		t.Fatal("factor not found")
	}
	if found.P.Cmp(key.P) != 0 {
		t.Fatalf("found P=%v, want %v", found.P, key.P)
	}
}

func TestRegistry(t *testing.T) {
	r, err := NewRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := Register(r.Addr(), "east", "10.0.0.1:99"); err != nil {
		t.Fatal(err)
	}
	if err := Register(r.Addr(), "west", "10.0.0.2:99"); err != nil {
		t.Fatal(err)
	}
	addr, err := Lookup(r.Addr(), "east")
	if err != nil || addr != "10.0.0.1:99" {
		t.Fatalf("Lookup = %q, %v", addr, err)
	}
	names, addrs, err := List(r.Addr())
	if err != nil || len(names) != 2 || names[0] != "east" || addrs[1] != "10.0.0.2:99" {
		t.Fatalf("List = %v %v %v", names, addrs, err)
	}
	if err := Unregister(r.Addr(), "east"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(r.Addr(), "east"); err == nil {
		t.Fatal("unregistered name still resolves")
	}
	if len(r.Entries()) != 1 {
		t.Fatalf("Entries = %v", r.Entries())
	}
}

// TestRegistryRPCDeadline: every registry wait is bounded. A registry
// that accepts and never answers fails Lookup within twice the bound,
// and a client that connects and never sends is dropped by the
// registry within twice the bound.
func TestRegistryRPCDeadline(t *testing.T) {
	const bound = 200 * time.Millisecond
	old := regTimeout()
	setRegTimeout(bound)
	defer setRegTimeout(old)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		<-stop
		c.Close()
	}()
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := Lookup(ln.Addr().String(), "east")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Lookup against a silent registry succeeded")
		}
		t.Logf("silent registry: Lookup failed after %v: %v", time.Since(start), err)
	case <-time.After(2 * bound):
		t.Fatalf("Lookup against a silent registry still blocked after %v", 2*bound)
	}

	r, err := NewRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(2 * bound))
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent client not dropped within %v: read returned %v", 2*bound, err)
	}
}

// A closed registry serves nothing, not even on a connection it
// accepted before Close: a register sent there gets no reply and
// records no name.
func TestClosedRegistryServesNothing(t *testing.T) {
	r, err := NewRegistry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	enc, dec := gob.NewEncoder(c), gob.NewDecoder(c)
	// One exchange first, so the registry has surely accepted c.
	var resp regResponse
	if err := enc.Encode(&regRequest{Kind: "list"}); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("list before Close: %v", err)
	}
	r.Close()
	enc.Encode(&regRequest{Kind: "register", Name: "late", Addr: "10.0.0.9:99"}) // may fail: c is closed
	if err := dec.Decode(&resp); err == nil {
		t.Fatalf("a closed registry replied %+v", resp)
	}
	if e := r.Entries(); len(e) != 0 {
		t.Fatalf("a closed registry recorded %v", e)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, "s")
	c := newTestClient(t, s)
	if _, err := c.roundTrip(&Request{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := c.roundTrip(&Request{Kind: "run"}); err == nil {
		t.Fatal("run without parcel accepted")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	s, err := New("x", "127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerAccessorsAndSpawn(t *testing.T) {
	s := newTestServer(t, "acc")
	if s.Name() != "acc" {
		t.Fatalf("Name = %q", s.Name())
	}
	c := newTestClient(t, s)
	local := localNode(t)
	// Spawn a channel-free process remotely (the paper's plain Runnable).
	if err := c.Spawn(local, &proclib.Discard{In: func() *core.ReadPort {
		ch := local.Net.NewChannel("feed", 64)
		go func() {
			ch.Writer().Write(make([]byte, 8))
			ch.Writer().Close()
		}()
		return ch.Reader()
	}()}); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitIdle(); err != nil {
		t.Fatal(err)
	}
}

func TestCallTaskErrorPropagates(t *testing.T) {
	s := newTestServer(t, "err")
	c := newTestClient(t, s)
	if _, err := c.Call(&BoomTask{}); err == nil || err.Error() != "boom" {
		t.Fatalf("got %v", err)
	}
}

// BoomTask always fails.
type BoomTask struct{}

// Run implements meta.Task.
func (b *BoomTask) Run() (meta.Task, error) { return nil, errBoom }

var errBoom = errors.New("boom")

func init() { gob.Register(&BoomTask{}) }

func TestNewServerBadAddrs(t *testing.T) {
	if _, err := New("x", "256.0.0.1:bad", "127.0.0.1:0"); err == nil {
		t.Fatal("bad rpc addr accepted")
	}
	if _, err := New("x", "127.0.0.1:0", "256.0.0.1:bad"); err == nil {
		t.Fatal("bad broker addr accepted")
	}
}

func TestClientDeadlockPeerOverRPC(t *testing.T) {
	s := newTestServer(t, "peer")
	c := newTestClient(t, s)
	st, err := c.DeadlockStatus()
	if err != nil || st.Live != 0 {
		t.Fatalf("status: %+v, %v", st, err)
	}
	// Create a channel remotely by shipping a parcel whose channel stays.
	local := localNode(t)
	ch := local.Net.NewChannel("grown", 8)
	sink := &proclib.Collect{In: ch.Reader()}
	if _, err := c.RunProcs(local, sink); err != nil {
		t.Fatal(err)
	}
	// The imported reader side created a channel named "grown" on the server.
	got, err := c.GrowChannel("grown", 4096)
	if err != nil || got != 4096 {
		t.Fatalf("grow over RPC: %d, %v", got, err)
	}
	if _, err := c.GrowChannel("nope", 64); err == nil {
		t.Fatal("unknown channel accepted over RPC")
	}
	ch.Writer().Close()
	local.Net.Wait()
	s.WaitIdle()
}
