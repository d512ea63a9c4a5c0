package wire

import (
	"encoding/gob"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/faults"
	"dpn/internal/netio"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// burstSource emits int64 elements in bursts with pauses between them,
// so the downstream batch decoder reliably finds Buffered() bytes to
// drain after its first blocking read — the exact state the RESUME
// byte-accounting must survive.
type burstSource struct {
	core.Iterative
	Out  *core.WritePort
	next int64
}

func (s *burstSource) Step(env *core.Env) error {
	time.Sleep(200 * time.Microsecond)
	var vals [8]int64
	for i := range vals {
		vals[i] = s.next
		s.next++
	}
	return token.NewWriter(s.Out).WriteInt64s(vals[:])
}

// batchRelay copies int64 elements with the batched decoder: each step
// blocks for one element, then drains whatever Buffered() reports. A
// migration parked between steps must account exactly for the bytes
// those drains consumed, or elements are duplicated or lost at RESUME.
type batchRelay struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Count int64

	progress atomic.Int64
}

func (r *batchRelay) Step(env *core.Env) error {
	var buf [37]int64 // deliberately not a multiple of the burst size
	n, err := token.NewReader(r.In).ReadInt64s(buf[:])
	if n > 0 {
		if werr := token.NewWriter(r.Out).WriteInt64s(buf[:n]); werr != nil {
			return werr
		}
		r.Count += int64(n)
		r.progress.Store(r.Count)
	}
	return err
}

// floatBatchRelay is batchRelay for the float64 batch decoders.
type floatBatchRelay struct {
	In  *core.ReadPort
	Out *core.WritePort
}

func (r *floatBatchRelay) Step(env *core.Env) error {
	var buf [29]float64
	n, err := token.NewReader(r.In).ReadFloat64s(buf[:])
	if n > 0 {
		if werr := token.NewWriter(r.Out).WriteFloat64s(buf[:n]); werr != nil {
			return werr
		}
	}
	return err
}

func init() {
	gob.Register(&burstSource{})
	gob.Register(&batchRelay{})
	gob.Register(&floatBatchRelay{})
}

// runBatchedRelayMigration drives the shared scenario: a bursty int64
// stream through a batch relay that migrates A→B mid-stream; the sink
// must observe the exact sequence.
func runBatchedRelayMigration(t *testing.T, a, b *Node) {
	t.Helper()
	const bursts = 60
	const total = bursts * 8
	in := a.Net.NewChannel("in", 4096)
	out := a.Net.NewChannel("out", 4096)
	src := &burstSource{Out: in.Writer()}
	src.Iterations = bursts
	relay := &batchRelay{In: in.Reader(), Out: out.Writer()}
	sink := &proclib.Collect{In: out.Reader()}

	a.Net.Spawn(src)
	h := a.Net.Spawn(relay)
	a.Net.Spawn(sink)

	deadline := time.Now().Add(5 * time.Second)
	for relay.progress.Load() < total/4 {
		if time.Now().After(deadline) {
			t.Fatal("relay made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	parcel, err := Migrate(a, b.Broker.Addr(), h)
	if err != nil {
		t.Fatal(err)
	}
	movedAt := relay.Count
	if movedAt == 0 || movedAt >= total {
		t.Fatalf("migration did not land mid-stream: count=%d", movedAt)
	}
	procs, err := Import(b, ship(t, parcel))
	if err != nil {
		t.Fatal(err)
	}
	var relayB *batchRelay
	for _, p := range procs {
		if r, ok := p.(*batchRelay); ok {
			relayB = r
		}
		b.Net.Spawn(p)
	}
	if relayB == nil {
		t.Fatal("relay lost in migration")
	}
	waitNet(t, a.Net, "origin network")
	waitNet(t, b.Net, "destination network")
	if got := sink.Values(); !reflect.DeepEqual(got, seq(total)) {
		t.Fatalf("batched stream damaged: %d values, first %v", len(got), got[:min(12, len(got))])
	}
	if relayB.Count != total {
		t.Fatalf("relay total = %d, want %d (drained bytes misaccounted)", relayB.Count, total)
	}
}

// TestLiveMigrationDuringBatchedReads migrates a relay whose
// ReadInt64s has drained Buffered() bytes beyond the blocking element:
// the RESUME handshake must hand the destination exactly the
// unconsumed remainder of the stream.
func TestLiveMigrationDuringBatchedReads(t *testing.T) {
	runBatchedRelayMigration(t, newTestNode(t), newTestNode(t))
}

// TestChaosBatchedRelayMigration is the fault-schedule variant: every
// frame of the migration handshake and of the relayed stream crosses a
// delayed, jittered connection with resilient links enabled.
func TestChaosBatchedRelayMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run")
	}
	seed := chaosWireSeed(t, 123)
	t.Logf("chaos seed %d", seed)
	inj := faults.New(faults.Config{
		Seed:    seed,
		Latency: 300 * time.Microsecond,
		Jitter:  400 * time.Microsecond,
	})
	res := netio.Resilience{
		HeartbeatEvery: 30 * time.Millisecond,
		MissDeadline:   500 * time.Millisecond,
		RetryBase:      5 * time.Millisecond,
		RetryMax:       60 * time.Millisecond,
		LinkDeadline:   10 * time.Second,
		Seed:           seed,
	}
	runBatchedRelayMigration(t, newChaosWireNode(t, inj, res), newChaosWireNode(t, inj, res))
}

// TestLiveMigrationBatchedFloatBacklog parks a float batch relay with a
// backlog sitting in its input channel — part drained locally by
// ReadFloat64s, the rest shipped — and checks every element crosses
// exactly once. The backlog is four times what the two channels hold
// and the sink takes one element per step, so the relay cannot have
// drained it by the time Migrate asks it to park, however fast its
// steps are: the writer is still blocked mid-write behind it.
func TestLiveMigrationBatchedFloatBacklog(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	const total = 1 << 15
	in := a.Net.NewChannel("in", 1<<16)
	out := a.Net.NewChannel("out", 1<<16)
	relay := &floatBatchRelay{In: in.Reader(), Out: out.Writer()}
	sink := &proclib.CollectFloat{In: out.Reader()}

	h := a.Net.Spawn(relay)
	a.Net.Spawn(sink)

	want := make([]float64, total)
	for i := range want {
		want[i] = float64(i) * 0.5
	}
	wrote := make(chan error, 1)
	go func() {
		err := token.NewWriter(in.Writer()).WriteFloat64s(want)
		in.Writer().Close()
		wrote <- err
	}()
	parcel, err := Migrate(a, b.Broker.Addr(), h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpawnImported(b, ship(t, parcel)); err != nil {
		t.Fatal(err)
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	waitNet(t, a.Net, "origin network")
	waitNet(t, b.Net, "destination network")
	if got := sink.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("float backlog damaged: got %d values, want %d", len(got), total)
	}
}
