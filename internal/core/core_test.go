package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"dpn/internal/stream"
	"dpn/internal/token"
)

// emitter writes the int64s in Values to Out, one per Step.
type emitter struct {
	Iterative
	Out    *WritePort
	Values []int64
	i      int
}

func (e *emitter) Step(env *Env) error {
	if e.i >= len(e.Values) {
		return io.EOF
	}
	v := e.Values[e.i]
	e.i++
	return token.NewWriter(e.Out).WriteInt64(v)
}

// sink reads int64s from In and records them.
type sink struct {
	In *ReadPort

	mu  sync.Mutex
	got []int64
}

func (s *sink) Step(env *Env) error {
	v, err := token.NewReader(s.In).ReadInt64()
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.got = append(s.got, v)
	s.mu.Unlock()
	return nil
}

func (s *sink) values() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.got...)
}

func TestSpawnEmitterSink(t *testing.T) {
	n := NewNetwork()
	ch := n.NewChannel("c", 64)
	want := []int64{3, 1, 4, 1, 5, 9}
	n.Spawn(&emitter{Out: ch.Writer(), Values: want})
	sk := &sink{In: ch.Reader()}
	n.Spawn(sk)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sk.values()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIterationLimitStopsProcess(t *testing.T) {
	// An infinite producer with an iteration-limited consumer: the
	// consumer stops; the producer observes the poisoned channel and
	// terminates too (§3.4, the "first 100 primes" pattern).
	n := NewNetwork()
	ch := n.NewChannel("c", 8)
	n.Spawn(&counter{Out: ch.Writer()})
	sk := &limitedSink{In: ch.Reader()}
	sk.Iterations = 5
	n.Spawn(sk)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("network did not terminate after iteration limit")
	}
	if len(sk.got) != 5 {
		t.Fatalf("consumer read %d values, want 5", len(sk.got))
	}
	for i, v := range sk.got {
		if v != int64(i) {
			t.Fatalf("got %v", sk.got)
		}
	}
}

// counter writes 0,1,2,... forever.
type counter struct {
	Out *WritePort
	v   int64
}

func (c *counter) Step(env *Env) error {
	err := token.NewWriter(c.Out).WriteInt64(c.v)
	c.v++
	return err
}

type limitedSink struct {
	Iterative
	In  *ReadPort
	got []int64
}

func (s *limitedSink) Step(env *Env) error {
	v, err := token.NewReader(s.In).ReadInt64()
	if err != nil {
		return err
	}
	s.got = append(s.got, v)
	return nil
}

func TestCascadingTerminationDownstream(t *testing.T) {
	// Producer with a limit; downstream drains everything then sees EOF
	// — "no unnecessary computation occurs and all data produced is
	// eventually consumed" (§3.4).
	n := NewNetwork()
	ch := n.NewChannel("c", 4)
	n.Spawn(&emitter{Out: ch.Writer(), Values: []int64{1, 2, 3}})
	sk := &sink{In: ch.Reader()}
	n.Spawn(sk)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(sk.values()) != 3 {
		t.Fatalf("got %v", sk.values())
	}
}

type failing struct{}

func (f *failing) Step(env *Env) error { return errors.New("boom") }

func TestProcessFailureRecorded(t *testing.T) {
	n := NewNetwork()
	n.Spawn(&failing{})
	err := n.Wait()
	if err == nil || err.Error() != "process failing: boom" {
		t.Fatalf("Wait = %v", err)
	}
	if len(n.Errors()) != 1 {
		t.Fatalf("Errors = %v", n.Errors())
	}
}

type hooked struct {
	Iterative
	started, stepped, stopped int
}

func (h *hooked) OnStart(env *Env) error { h.started++; return nil }
func (h *hooked) Step(env *Env) error    { h.stepped++; return nil }
func (h *hooked) OnStop(env *Env)        { h.stopped++ }

func TestLifecycleHooks(t *testing.T) {
	n := NewNetwork()
	h := &hooked{Iterative: Iterative{Iterations: 3}}
	p := n.Spawn(h)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if h.started != 1 || h.stepped != 3 || h.stopped != 1 {
		t.Fatalf("hooks = %+v", h)
	}
}

type failingStart struct {
	Iterative
	stopped bool
}

func (f *failingStart) OnStart(env *Env) error { return errors.New("init fail") }
func (f *failingStart) Step(env *Env) error    { return nil }
func (f *failingStart) OnStop(env *Env)        { f.stopped = true }

func TestOnStopRunsAfterFailedStart(t *testing.T) {
	n := NewNetwork()
	f := &failingStart{Iterative: Iterative{Iterations: 1}}
	n.Spawn(f)
	if err := n.Wait(); err == nil {
		t.Fatal("expected error")
	}
	if !f.stopped {
		t.Fatal("OnStop did not run after failed OnStart")
	}
}

func TestPortsOfReflection(t *testing.T) {
	type inner struct {
		In *ReadPort
	}
	type procT struct {
		Iterative
		In     *ReadPort
		Out    *WritePort
		Outs   []*WritePort
		hidden *ReadPort // unexported: must be ignored
		Inner  inner     // non-anonymous struct: must be ignored
	}
	ch1 := NewChannel("a", 4)
	ch2 := NewChannel("b", 4)
	ch3 := NewChannel("c", 4)
	ch4 := NewChannel("d", 4)
	ch5 := NewChannel("e", 4)
	p := &procT{
		In:     ch1.Reader(),
		Out:    ch2.Writer(),
		Outs:   []*WritePort{ch3.Writer(), ch4.Writer()},
		hidden: ch5.Reader(),
		Inner:  inner{In: ch5.Reader()},
	}
	ports := PortsOf(p)
	if len(ports) != 4 {
		t.Fatalf("PortsOf found %d ports, want 4", len(ports))
	}
}

type Embedded struct {
	Out *WritePort
}

type outerProc struct {
	Embedded
	In *ReadPort
}

func (o *outerProc) Step(env *Env) error { return io.EOF }

func TestPortsOfEmbeddedStruct(t *testing.T) {
	ch1 := NewChannel("a", 4)
	ch2 := NewChannel("b", 4)
	p := &outerProc{Embedded: Embedded{Out: ch1.Writer()}, In: ch2.Reader()}
	if got := len(PortsOf(p)); got != 2 {
		t.Fatalf("PortsOf = %d ports, want 2", got)
	}
}

type customPorts struct{ closed *int }

func (c *customPorts) Step(env *Env) error { return io.EOF }
func (c *customPorts) Ports() []io.Closer  { return []io.Closer{closerFunc(func() { *c.closed++ })} }

type closerFunc func()

func (f closerFunc) Close() error { f(); return nil }

func TestPortHolderOverride(t *testing.T) {
	n := NewNetwork()
	count := 0
	p := n.Spawn(&customPorts{closed: &count})
	p.Wait()
	if count != 1 {
		t.Fatalf("custom Ports not closed: %d", count)
	}
}

func TestProcessPortsClosedOnExit(t *testing.T) {
	n := NewNetwork()
	ch := n.NewChannel("c", 16)
	p := n.Spawn(&emitter{Out: ch.Writer(), Values: []int64{7}})
	p.Wait()
	// Writer closed on exit: reader sees the value then EOF.
	r := token.NewReader(ch.Reader())
	if v, err := r.ReadInt64(); err != nil || v != 7 {
		t.Fatalf("got %d, %v", v, err)
	}
	if _, err := r.ReadInt64(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}

func TestCompositeRunsAllChildren(t *testing.T) {
	n := NewNetwork()
	ch := n.NewChannel("c", 16)
	sk := &sink{In: ch.Reader()}
	comp := (&Composite{Name: "pair"}).
		Add(&emitter{Out: ch.Writer(), Values: []int64{10, 20}}).
		Add(sk)
	if comp.ProcessName() != "Composite(pair)" {
		t.Fatalf("name = %q", comp.ProcessName())
	}
	p := n.Spawn(comp)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := sk.values(); len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Fatalf("got %v", got)
	}
}

func TestCompositePropagatesChildError(t *testing.T) {
	n := NewNetwork()
	comp := (&Composite{}).Add(&failing{})
	p := n.Spawn(comp)
	if err := p.Wait(); err == nil {
		t.Fatal("composite did not propagate child failure")
	}
	n.Wait()
}

// relay copies bytes from In to Out; used as the middle process for the
// splice-out test (the paper's post-initialization Cons).
type relay struct {
	In    *ReadPort
	Out   *WritePort
	After int // splice out after this many elements copied
	n     int
}

func (r *relay) Step(env *Env) error {
	if r.After > 0 && r.n >= r.After {
		if err := SpliceOut(r.In, r.Out); err != nil {
			return err
		}
		return io.EOF
	}
	v, err := token.NewReader(r.In).ReadInt64()
	if err != nil {
		return err
	}
	if err := token.NewWriter(r.Out).WriteInt64(v); err != nil {
		return err
	}
	r.n++
	return nil
}

func TestSpliceOutPreservesEveryElement(t *testing.T) {
	n := NewNetwork()
	a := n.NewChannel("a", 32)
	b := n.NewChannel("b", 32)
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64(i * i)
	}
	n.Spawn(&emitter{Out: a.Writer(), Values: vals})
	n.Spawn(&relay{In: a.Reader(), Out: b.Writer(), After: 10})
	sk := &sink{In: b.Reader()}
	n.Spawn(sk)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sk.values()
	if len(got) != len(vals) {
		t.Fatalf("got %d values, want %d (splice lost or duplicated data)", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("element %d: got %d, want %d", i, got[i], vals[i])
		}
	}
}

func TestSpliceOutErrors(t *testing.T) {
	if err := SpliceOut(nil, nil); err == nil {
		t.Fatal("nil ports accepted")
	}
	ch := NewChannel("x", 4)
	foreign := AttachForeignWrite("f", stream.NewPipe(1))
	if err := SpliceOut(ch.Reader(), foreign); err == nil {
		t.Fatal("foreign output accepted")
	}
}

func TestDetachedPortOperations(t *testing.T) {
	ch := NewChannel("x", 4)
	r := ch.Reader()
	w := ch.Writer()
	r.Detach()
	w.Detach()
	if _, err := r.Read(make([]byte, 1)); err != ErrDetached {
		t.Fatalf("detached read = %v", err)
	}
	if _, err := w.Write([]byte{1}); err != ErrDetached {
		t.Fatalf("detached write = %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r.Channel() != nil || w.Channel() != nil {
		t.Fatal("detached ports should have no channel")
	}
}

func TestIsTermination(t *testing.T) {
	for _, err := range []error{io.EOF, io.ErrUnexpectedEOF, stream.ErrReadClosed, stream.ErrWriteClosed, ErrDetached} {
		if !IsTermination(err) {
			t.Errorf("IsTermination(%v) = false", err)
		}
	}
	if IsTermination(nil) || IsTermination(errors.New("x")) {
		t.Error("IsTermination misclassified")
	}
}

func TestNetworkCounters(t *testing.T) {
	n := NewNetwork()
	ch := n.NewChannel("c", 1)
	if len(n.Channels()) != 1 {
		t.Fatal("channel not registered")
	}
	gen0 := n.Generation()
	sk := &sink{In: ch.Reader()}
	n.Spawn(sk)
	// Wait for the sink to block on the empty channel.
	deadline := time.Now().Add(2 * time.Second)
	for n.Blocked() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("sink never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if n.Live() != 1 {
		t.Fatalf("Live = %d", n.Live())
	}
	if n.Generation() == gen0 {
		t.Fatal("generation did not advance")
	}
	ch.Writer().Close()
	n.Wait()
	if n.Live() != 0 || n.Blocked() != 0 {
		t.Fatalf("after Wait: live=%d blocked=%d", n.Live(), n.Blocked())
	}
}

func TestNewChannelDefaults(t *testing.T) {
	n := NewNetwork(WithDefaultCapacity(99))
	ch := n.NewChannel("", 0)
	if ch.Pipe().Cap() != 99 {
		t.Fatalf("cap = %d", ch.Pipe().Cap())
	}
	if ch.Name() == "" {
		t.Fatal("auto name missing")
	}
	if ch.Network() != n {
		t.Fatal("network back-reference wrong")
	}
}

// carrier is a gob-encodable process holding ports.
type carrier struct {
	Iterative
	In  *ReadPort
	Out *WritePort
}

func (c *carrier) Step(env *Env) error { return io.EOF }

func TestPortGobTransferRoundTrip(t *testing.T) {
	gob.Register(&carrier{})
	src := NewChannel("src", 8)
	dst := NewChannel("dst", 8)
	p := &carrier{In: src.Reader(), Out: dst.Writer()}

	enc := NewTransfer()
	inID := enc.RegisterRead(p.In)
	outID := enc.RegisterWrite(p.Out)
	// Registering again returns the same ID (shared references).
	if enc.RegisterRead(p.In) != inID {
		t.Fatal("duplicate registration changed ID")
	}
	var buf bytes.Buffer
	err := WithTransfer(enc, func() error {
		var holder any = p
		return gob.NewEncoder(&buf).Encode(&holder)
	})
	if err != nil {
		t.Fatal(err)
	}

	// Decode side: provide replacement ports, then decode.
	src2 := NewChannel("src2", 8)
	dst2 := NewChannel("dst2", 8)
	dec := NewTransfer()
	dec.ProvideRead(inID, src2.Reader())
	dec.ProvideWrite(outID, dst2.Writer())
	var got any
	err = WithTransfer(dec, func() error {
		return gob.NewDecoder(&buf).Decode(&got)
	})
	if err != nil {
		t.Fatal(err)
	}
	c2 := got.(*carrier)
	// The decoded ports must be bound to the replacement channels.
	src2.Writer().Write([]byte{42})
	b := make([]byte, 1)
	if _, err := c2.In.Read(b); err != nil || b[0] != 42 {
		t.Fatalf("decoded In not rebound: %v %v", b, err)
	}
	c2.Out.Write([]byte{7})
	if got := dst2.Pipe().Drain(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("decoded Out not rebound: %v", got)
	}
}

func TestPortGobOutsideTransferFails(t *testing.T) {
	ch := NewChannel("x", 4)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ch.Reader()); err == nil {
		t.Fatal("encoding outside transfer session should fail")
	}
}

func TestPortGobUnregisteredFails(t *testing.T) {
	ch := NewChannel("x", 4)
	var buf bytes.Buffer
	err := WithTransfer(NewTransfer(), func() error {
		return gob.NewEncoder(&buf).Encode(ch.Reader())
	})
	if err == nil {
		t.Fatal("encoding unregistered port should fail")
	}
}

type sifter struct {
	In  *ReadPort
	Out *WritePort
	n   int
}

// Step reads a value, emits it, and inserts an upstream doubler — a
// minimal analog of Sift inserting Modulo processes (Figure 8).
func (s *sifter) Step(env *Env) error {
	v, err := token.NewReader(s.In).ReadInt64()
	if err != nil {
		return err
	}
	if err := token.NewWriter(s.Out).WriteInt64(v); err != nil {
		return err
	}
	s.n++
	if s.n == 1 {
		s.In = InsertUpstream(env, s.In, "inserted", 16,
			func(handedOff *ReadPort, out *WritePort) {
				env.Spawn(&adderProc{In: handedOff, Out: out, Delta: 1000})
			})
	}
	return nil
}

type adderProc struct {
	In    *ReadPort
	Out   *WritePort
	Delta int64
}

func (a *adderProc) Step(env *Env) error {
	v, err := token.NewReader(a.In).ReadInt64()
	if err != nil {
		return err
	}
	return token.NewWriter(a.Out).WriteInt64(v + a.Delta)
}

func TestInsertUpstreamReconfiguration(t *testing.T) {
	n := NewNetwork()
	a := n.NewChannel("a", 32)
	b := n.NewChannel("b", 32)
	n.Spawn(&emitter{Out: a.Writer(), Values: []int64{1, 2, 3}})
	n.Spawn(&sifter{In: a.Reader(), Out: b.Writer()})
	sk := &sink{In: b.Reader()}
	n.Spawn(sk)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	got := sk.values()
	want := []int64{1, 1002, 1003}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSpawnRejectsNonProcess(t *testing.T) {
	n := NewNetwork()
	n.Spawn(42)
	if err := n.Wait(); err == nil {
		t.Fatal("non-process value accepted")
	}
}

func TestForeignPorts(t *testing.T) {
	p := stream.NewPipe(8)
	w := AttachForeignWrite("fw", p)
	r := AttachForeignRead("fr", p)
	if w.Name() != "fw" || r.Name() != "fr" {
		t.Fatal("names wrong")
	}
	w.Write([]byte("ok"))
	w.Close()
	got, err := io.ReadAll(r)
	if err != nil || string(got) != "ok" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// TestNetworkForgetsFinishedChannels guards a long-lived network (a
// compute server's) against keeping every channel it ever carried: a
// channel that can deliver no more data drops out of the registry.
func TestNetworkForgetsFinishedChannels(t *testing.T) {
	n := NewNetwork()
	open := n.NewChannel("stays", 8)
	for i := 0; i < 1000; i++ {
		ch := n.NewChannel("job", 8)
		ch.Writer().Close()
		ch.Reader().Close()
	}
	chans := n.Channels()
	if len(chans) > 200 {
		t.Fatalf("network still lists %d channels after 1000 finished ones", len(chans))
	}
	for _, ch := range chans {
		if ch == open {
			return
		}
	}
	t.Fatal("the channel still open was dropped from the registry")
}
