package server

import (
	"encoding/gob"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/deadlock"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// TestDistributedDeadlockResolution reconstructs Figure 13 *across two
// nodes*: the integer source and the mod-splitter run locally; the
// ordered merge runs on a compute server. The "other values" path must
// buffer N−1 elements per round, and its capacity — local pipe + TCP
// buffers + remote pipe — is deliberately overwhelmed, so the
// distributed graph write-blocks into an artificial deadlock that no
// single node can see in full. A deadlock monitor on the local node
// that watches the server as a peer (the §6.2 future work) detects
// global quiescence over the RPC and grows channels until the graph
// completes.
func TestDistributedDeadlockResolution(t *testing.T) {
	srv := newTestServer(t, "merge-host")
	cl := newTestClient(t, srv)
	local := localNode(t)

	// One "round": 1 multiple + (rounds*perRound - 1) others. The
	// others path must hold everything before the merge reads any,
	// which far exceeds pipe + socket capacity.
	const perRound = 60000
	const total = perRound

	src := local.Net.NewChannel("ints", 4096)
	mul := local.Net.NewChannel("mul", 1024)
	oth := local.Net.NewChannel("oth", 1024)

	seq := &proclib.Sequence{From: 1, Out: src.Writer()}
	seq.Iterations = total
	split := &proclib.ModSplit{N: perRound, In: src.Reader(), OutMultiple: mul.Writer(), OutOther: oth.Writer()}
	merge := &roundMerge{InMul: mul.Reader(), InOth: oth.Reader(), N: perRound}

	// The merge moves to the server; both of its channels now span TCP.
	if _, err := cl.RunProcs(local, merge); err != nil {
		t.Fatal(err)
	}
	local.Net.Spawn(seq)
	local.Net.Spawn(split)

	mon := deadlock.New(local.Net, 5*time.Millisecond, cl)
	mon.Start()
	defer mon.Stop()

	done := make(chan error, 1)
	go func() {
		if err := local.Net.Wait(); err != nil {
			done <- err
			return
		}
		done <- srv.WaitIdle()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("distributed deadlock unresolved (resolutions so far: %d)", mon.Resolutions())
	}
	if mon.Resolutions() == 0 {
		t.Fatal("expected the monitor to grow at least one channel")
	}
	t.Logf("monitor resolutions: %d", mon.Resolutions())
	if errs, _ := cl.Errors(); len(errs) != 0 {
		t.Fatalf("remote failures: %v", errs)
	}
}

// roundMerge is the Figure 13 merge: per round it reads one multiple
// first, then N−1 other values — the read order that deadlocks when
// the others channel is too small.
type roundMerge struct {
	core.Iterative
	InMul *core.ReadPort
	InOth *core.ReadPort
	N     int64
	Seen  int64
}

func (m *roundMerge) Step(env *core.Env) error {
	r := tokenReader(m.InMul)
	if _, err := r.ReadInt64(); err != nil {
		return err
	}
	m.Seen++
	ro := tokenReader(m.InOth)
	for i := int64(0); i < m.N-1; i++ {
		if _, err := ro.ReadInt64(); err != nil {
			return err
		}
		m.Seen++
	}
	return nil
}

// TestCoordinatorIgnoresComputingConsumer runs a graph that never
// deadlocks under a monitor that watches both nodes: a capacity-8
// channel feeds a consumer on the server that computes 10 ms per
// element. The local producer is parked on the full channel most of
// the time, and the server's inbound link is parked on the full
// imported one; neither node's counters move while the consumer
// computes. The server is still not quiescent — its one process is
// running — so the monitor must grow nothing and report nothing.
func TestCoordinatorIgnoresComputingConsumer(t *testing.T) {
	srv := newTestServer(t, "consumer-host")
	cl := newTestClient(t, srv)
	local := localNode(t)

	ch := local.Net.NewChannel("c", 8)
	seq := &proclib.Sequence{From: 1, Out: ch.Writer()}
	seq.Iterations = 60
	if _, err := cl.RunProcs(local, &computingConsumer{In: ch.Reader(), Pace: 10 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}

	mon := deadlock.New(local.Net, 5*time.Millisecond, cl)
	var events atomic.Int64
	mon.OnEvent = func(deadlock.Event) { events.Add(1) }
	local.Net.Spawn(seq)
	mon.Start()
	if err := local.Net.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitIdle(); err != nil {
		t.Fatal(err)
	}
	mon.Stop()
	if n := mon.Resolutions(); n != 0 {
		t.Errorf("monitor grew %d channels; the consumer was computing", n)
	}
	if n := events.Load(); n != 0 {
		t.Errorf("monitor reported %d events; the consumer was computing", n)
	}
	if errs, _ := cl.Errors(); len(errs) != 0 {
		t.Fatalf("remote failures: %v", errs)
	}
}

// computingConsumer reads int64 elements to the end, taking Pace per
// element after each read.
type computingConsumer struct {
	core.Iterative
	In   *core.ReadPort
	Pace time.Duration
}

func (c *computingConsumer) Step(*core.Env) error {
	if _, err := c.In.Tokens().ReadInt64(); err != nil {
		return err
	}
	time.Sleep(c.Pace)
	return nil
}

func TestCoordinatorTerminatedAndRunningStates(t *testing.T) {
	srv := newTestServer(t, "idle-host")
	local := localNode(t)
	mon := deadlock.New(local.Net, time.Hour, newTestClient(t, srv))
	if st := mon.Check(); st != deadlock.StatusTerminated {
		t.Fatalf("empty: %v", st)
	}
	ch := local.Net.NewChannel("c", 1024)
	s := &proclib.Sequence{From: 0, Out: ch.Writer()}
	s.Iterations = 1_000_000
	local.Net.Spawn(s)
	local.Net.Spawn(&proclib.Discard{In: ch.Reader()})
	if st := mon.Check(); st == deadlock.StatusTrueDeadlock || st == deadlock.StatusPeerLost {
		t.Fatalf("busy network misreported as %v", st)
	}
	local.Net.Wait()
}

// tokenReader is a short alias used by roundMerge.
func tokenReader(p *core.ReadPort) *token.Reader { return token.NewReader(p) }

func init() {
	gob.Register(&roundMerge{})
	gob.Register(&computingConsumer{})
}
