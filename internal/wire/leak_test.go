package wire

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/proclib"
)

// watcherCount counts n's live watchLink goroutines: the frame's first
// argument in a stack dump is the receiver, so other nodes' watchers —
// earlier tests leave some behind — are not counted.
func watcherCount(n *Node) int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), fmt.Sprintf("wire.(*Node).watchLink(%p", n))
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Regression test for the watchLink goroutine leak: a parcel whose
// destination never imports it leaves a serve-side link parked on its
// rendezvous token. Closing the node must cancel that rendezvous —
// finishing the link with ErrBrokerClosed — so the watcher goroutine
// exits and the link tracker empties, instead of both outliving the
// node.
func TestNodeCloseTerminatesLinkWatchers(t *testing.T) {
	n, err := NewLocalNode("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ch := n.Net.NewChannel("leaky", 8)
	sink := &proclib.Collect{In: ch.Reader()}
	if _, err := Export(n, "10.255.255.1:1", sink); err != nil {
		t.Fatal(err)
	}
	l := n.linkFor(ch)
	if l == nil {
		t.Fatal("export did not track a link")
	}
	waitFor(t, "watcher start", func() bool { return watcherCount(n) == 1 })

	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-l.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("parked link never finished after broker close")
	}
	if err := l.Wait(); !errors.Is(err, conduit.ErrBrokerClosed) {
		t.Fatalf("link finished with %v, want ErrBrokerClosed", err)
	}
	waitFor(t, "watcher exit", func() bool { return watcherCount(n) == 0 })
	waitFor(t, "tracker drain", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return len(n.links) == 0
	})
	// Local shutdown is not a wire degrade: the failure counter must
	// stay untouched.
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_wire_link_failures_total" && s.Value != 0 {
			t.Fatalf("broker close counted as link failure: %+v", s)
		}
	}
}

// Stale-tracker audit: when a writer's second hop redirects (§4.3), the
// reader host re-arms a fresh serving link for the writer's new home.
// The tracker must swap to the re-armed link — holding the finished one
// would make any third move consult a dead handle.
func TestRedirectRearmsReaderHostTracker(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)
	c := newTestNode(t)

	ch := a.Net.NewChannel("ab", 64)
	src := &proclib.SliceSource{Values: seq(25), Out: ch.Writer()}
	sink := &proclib.Collect{In: ch.Reader()}

	p1, err := Export(a, b.Broker.Addr(), sink)
	if err != nil {
		t.Fatal(err)
	}
	procsB, err := Import(b, ship(t, p1))
	if err != nil {
		t.Fatal(err)
	}
	var chB *proclib.Collect
	if chB = findCollect(procsB); chB == nil {
		t.Fatal("collect lost")
	}
	// B dialed A: exactly one tracked inbound link.
	firstLink := func() conduit.Link {
		b.mu.Lock()
		defer b.mu.Unlock()
		for _, l := range b.links {
			return l
		}
		return nil
	}
	l0 := firstLink()
	if l0 == nil || l0.Outbound() {
		t.Fatalf("tracked link after import = %v", l0)
	}

	// The writer's hop A→C sends the REDIRECT; B must retire l0 and
	// re-arm a fresh serving link before C ever connects.
	p2, err := Export(a, c.Broker.Addr(), src)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rearm swap", func() bool {
		l := firstLink()
		return l != nil && l != l0
	})
	l1 := firstLink()
	select {
	case <-l0.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("displaced link never finished")
	}
	select {
	case <-l1.Done():
		t.Fatal("re-armed link already finished before the writer connected")
	default:
	}

	// The graph still runs to completion over the re-armed link.
	if _, err := SpawnImported(c, ship(t, p2)); err != nil {
		t.Fatal(err)
	}
	for _, p := range procsB {
		b.Net.Spawn(p)
	}
	waitNet(t, c.Net, "producer node")
	waitNet(t, b.Net, "consumer node")
	if got := chB.Values(); len(got) != 25 {
		t.Fatalf("got %d values, want 25", len(got))
	}
}
