package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// countFDs counts this process's open file descriptors.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatalf("reading /proc/self/fd: %v", err)
	}
	return len(ents)
}

// shipRaw is the goroutine-safe variant of ship: a gob round trip that
// returns its error instead of failing the test.
func shipRaw(p *Parcel) (*Parcel, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, err
	}
	var out Parcel
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

func stormVals(offset int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = offset + int64(i)
	}
	return out
}

// newKeyedNode is newTestNode with a cluster pre-shared key, so its
// sessions authenticate exactly as a production cluster's would.
func newKeyedNode(t *testing.T) *Node {
	t.Helper()
	n := newTestNode(t)
	n.Broker.SetPSK([]byte("wire-storm-test"))
	return n
}

// TestRendezvousStormBoundedFDs is the rendezvous concurrency stress:
// dozens of client nodes race to export collectors to one hub node, so
// hundreds of channels rendezvous against a single broker at once. No
// rendezvous may be lost (every collector must deliver its exact
// stream), and the socket economics of the session wire must hold:
// while every channel is live, the process holds O(peer pairs) TCP
// sockets (one authenticated session per hub↔client pair plus the
// listeners), not O(channels) as §4.2's socket per channel would. A
// gate keeps every writer open at the sampling point, so the channels
// are provably all bound when the descriptors are counted, and
// teardown must still return the process to its baseline.
func TestRendezvousStormBoundedFDs(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("FD accounting reads /proc/self/fd")
	}
	if testing.Short() {
		t.Skip("rendezvous storm in -short mode")
	}
	const (
		clients   = 80
		chansEach = 3
		perChan   = 40
	)
	baseline := countFDs(t)

	hub := newKeyedNode(t)

	type landed struct {
		col  *proclib.Collect
		want []int64
	}
	var (
		mu      sync.Mutex
		sinks   []landed
		nodes   []*Node
		errsMu  sync.Mutex
		errList []error
	)
	fail := func(err error) {
		errsMu.Lock()
		errList = append(errList, err)
		errsMu.Unlock()
	}

	// release opens once the mid-storm FD census is done; every channel
	// writer stays open (and therefore every conduit stays bound) until
	// then.
	release := make(chan struct{})
	var writers sync.WaitGroup

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			node := newKeyedNode(t)
			mu.Lock()
			nodes = append(nodes, node)
			mu.Unlock()

			cut := make([]any, 0, chansEach)
			wants := make([][]int64, 0, chansEach)
			outs := make([]*core.WritePort, 0, chansEach)
			for k := 0; k < chansEach; k++ {
				ch := node.Net.NewChannel(fmt.Sprintf("storm.%d.%d", c, k), 1024)
				vals := stormVals(int64(c)*1_000+int64(k)*100, perChan)
				outs = append(outs, ch.Writer())
				cut = append(cut, &proclib.Collect{In: ch.Reader()})
				wants = append(wants, vals)
			}
			parcel, err := Export(node, hub.Broker.Addr(), cut...)
			if err != nil {
				fail(fmt.Errorf("client %d export: %w", c, err))
				return
			}
			shipped, err := shipRaw(parcel)
			if err != nil {
				fail(fmt.Errorf("client %d ship: %w", c, err))
				return
			}
			procs, err := Import(hub, shipped)
			if err != nil {
				fail(fmt.Errorf("client %d import: %w", c, err))
				return
			}
			ci := 0
			for _, p := range procs {
				if col, ok := p.(*proclib.Collect); ok {
					mu.Lock()
					sinks = append(sinks, landed{col: col, want: wants[ci]})
					mu.Unlock()
					ci++
				}
				hub.Net.Spawn(p)
			}
			if ci != chansEach {
				fail(fmt.Errorf("client %d: %d collectors imported, want %d", c, ci, chansEach))
				return
			}
			// Feed every channel its full stream, then hold the writers
			// open across the census before the closes cascade.
			for k, out := range outs {
				writers.Add(1)
				go func(out *core.WritePort, vals []int64, c, k int) {
					defer writers.Done()
					tw := token.NewWriter(out)
					for _, v := range vals {
						if err := tw.WriteInt64(v); err != nil {
							fail(fmt.Errorf("client %d chan %d write: %w", c, k, err))
							break
						}
					}
					<-release
					out.Close()
				}(out, wants[k], c, k)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errList {
		t.Error(err)
	}
	if t.Failed() {
		close(release)
		t.FailNow()
	}

	// Census: every one of the clients×chansEach channels is bound right
	// now, yet the socket count must scale with peer pairs. Both ends of
	// every session live in this process (2 FDs per pair), each node
	// holds one listener, and the slack absorbs runtime pollers — far
	// below the 2·clients·chansEach a socket per channel would need.
	if got := hub.Broker.MuxSessions(); got != clients {
		close(release)
		t.Fatalf("hub holds %d mux sessions with %d clients connected, want one per pair", got, clients)
	}
	budget := baseline + (clients + 1) + 2*clients + 64
	if mid := countFDs(t); mid > budget {
		close(release)
		t.Fatalf("mid-storm FDs %d exceed the O(peer pairs) budget %d (baseline %d, %d channels live)",
			mid, budget, baseline, clients*chansEach)
	}

	close(release)
	writers.Wait()
	waitNet(t, hub.Net, "hub node")

	if len(sinks) != clients*chansEach {
		t.Fatalf("%d collectors landed, want %d", len(sinks), clients*chansEach)
	}
	for i, s := range sinks {
		got := s.col.Values()
		if !equalInt64(got, s.want) {
			t.Fatalf("collector %d: rendezvous corrupted: got %d elements starting %v, want %d starting %v",
				i, len(got), head(got), len(s.want), head(s.want))
		}
	}

	for _, node := range nodes {
		node.Close()
	}
	hub.Close()

	// Closed brokers must give the sessions' descriptors back; allow
	// slack for runtime pollers and test plumbing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := countFDs(t); n <= baseline+16 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("FDs did not return to baseline: %d now, %d at start", countFDs(t), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func head(v []int64) []int64 {
	if len(v) > 4 {
		return v[:4]
	}
	return v
}
