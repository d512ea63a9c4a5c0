package deadlock

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/obs"
)

// This file implements the distributed half of the paper's buffer
// management, listed as future work in §6.2 ("Another problem to be
// addressed is that of distributed deadlock detection"): when a
// program graph spans several nodes, no single network's counters can
// see the whole picture, so a coordinator polls every node and decides
// globally.
//
// Detection is a conservative quiescence test. A node snapshot carries
// its live and blocked process counts, its scheduling generation
// counter (bumped by every park, wake-up signal, spawn and exit on that
// node) and its broker byte counters (bumped by every byte that enters
// or leaves the node). A node is quiescent when every one of its live
// processes is blocked in both of two successive polls separated by a
// settle delay, and its counters did not move between them: then no
// process on it was running or woken, and no byte was in flight on any
// of its links. When every node is quiescent and some channel is full
// with a blocked writer, the deadlock is artificial and the globally
// smallest such channel is grown (Parks' rule); if none is, a true
// deadlock is reported.
//
// A transport link parked in a pipe is not a process and does not count
// as blocked (see stream.Pipe.Link), so a node whose only process is
// computing while its link waits for data is running, not quiescent.
// The test is still heuristic in one direction: bytes that sit in a
// socket across both polls move no counter, so a graph waiting only on
// them can look quiescent. Growing a bounded channel never changes what
// a Kahn network computes, so a spurious growth is harmless; a spurious
// true-deadlock report is why the coordinator reports rather than kills.

// ChannelRef identifies one growable channel on a peer.
type ChannelRef struct {
	Name string
	Cap  int
}

// NodeStatus is one node's scheduling snapshot.
type NodeStatus struct {
	Live       int64
	Blocked    int64
	Generation uint64
	BytesIn    int64
	BytesOut   int64
	// WakePending reports that some blocked party on the node has been
	// signaled but not rescheduled — the node is still running.
	WakePending bool
	// FullChannels lists channels that are full with at least one
	// blocked writer.
	FullChannels []ChannelRef
}

// Peer is one node as seen by the coordinator. Implementations:
// wire.Node (in-process) and server.Client (remote, over the compute
// server RPC).
type Peer interface {
	// DeadlockStatus returns the node's snapshot.
	DeadlockStatus() (NodeStatus, error)
	// GrowChannel grows the named channel and returns the resulting
	// capacity.
	GrowChannel(name string, newCap int) (int, error)
}

// Coordinator performs distributed deadlock detection and resolution
// across a set of peers.
type Coordinator struct {
	Peers []Peer
	// Settle is the delay between the two quiescence polls.
	Settle time.Duration
	// Poll is the interval between detection rounds when running in the
	// background.
	Poll time.Duration
	// GrowthFactor multiplies a grown channel's capacity (default 2).
	GrowthFactor int
	// MaxCapacity bounds growth; 0 means unbounded.
	MaxCapacity int
	// PeerFailureLimit is how many consecutive failed polls of one peer
	// the coordinator tolerates before reporting StatusPeerLost
	// (default 5). Resilient links make transient unreachability
	// routine, so a single failed poll must not raise an alarm; a long
	// streak means the peer is gone and global detection is blind.
	PeerFailureLimit int
	// OnEvent, if set, observes resolutions and true-deadlock reports.
	OnEvent func(Event)
	// Obs, if set, receives the coordinator's own round counters and
	// deadlock events (typically the scope of the node hosting the
	// coordinator).
	Obs *obs.Scope

	stop chan struct{}
	done chan struct{}

	resolutions atomic.Int64

	// Per-peer consecutive poll-failure streaks, indexed like Peers.
	// peerLost marks streaks already reported, so a dead peer produces
	// one event per outage instead of one per poll.
	pmu       sync.Mutex
	peerFails []int
	peerLost  []bool
}

// NewCoordinator builds a coordinator over the given peers.
func NewCoordinator(peers ...Peer) *Coordinator {
	return &Coordinator{
		Peers:            peers,
		Settle:           2 * time.Millisecond,
		Poll:             5 * time.Millisecond,
		GrowthFactor:     2,
		PeerFailureLimit: 5,
		stop:             make(chan struct{}),
		done:             make(chan struct{}),
	}
}

// Subscribe adds f as an additional event observer, chaining after any
// hook already installed in OnEvent — so the elastic pool's peer-lost
// listener, a test probe, and an operator alert can all watch the same
// coordinator. Subscribe must be called before Start (the hook chain is
// not synchronized against a running detection loop).
func (c *Coordinator) Subscribe(f func(Event)) {
	prev := c.OnEvent
	c.OnEvent = func(ev Event) {
		if prev != nil {
			prev(ev)
		}
		f(ev)
	}
}

// Resolutions counts the artificial deadlocks resolved so far.
func (c *Coordinator) Resolutions() int { return int(c.resolutions.Load()) }

// Start launches background detection; Stop ends it.
func (c *Coordinator) Start() { go c.loop() }

// Stop terminates the background loop and waits for it.
func (c *Coordinator) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

func (c *Coordinator) loop() {
	defer close(c.done)
	t := time.NewTicker(c.Poll)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		st, err := c.Check()
		if err != nil {
			continue // a peer hiccup is not fatal; retry next round
		}
		if st == StatusTerminated {
			return
		}
	}
}

type peerSnapshot struct {
	status NodeStatus
	err    error
}

// snapshot polls every peer. Unlike a fail-fast poll, it asks all
// peers even after one errors, so one unreachable node cannot hide the
// health of the rest; the first error is returned alongside the
// partial results.
func (c *Coordinator) snapshot() ([]peerSnapshot, error) {
	out := make([]peerSnapshot, len(c.Peers))
	var firstErr error
	for i, p := range c.Peers {
		out[i].status, out[i].err = p.DeadlockStatus()
		if out[i].err != nil && firstErr == nil {
			firstErr = fmt.Errorf("deadlock: peer %d: %w", i, out[i].err)
		}
	}
	return out, firstErr
}

// notePeerHealth updates the per-peer failure streaks from one poll.
// It returns true when some peer's streak has reached
// PeerFailureLimit; the StatusPeerLost event fires once per streak, on
// the poll that crosses the limit.
func (c *Coordinator) notePeerHealth(snaps []peerSnapshot) bool {
	limit := c.PeerFailureLimit
	if limit <= 0 {
		limit = 5
	}
	c.pmu.Lock()
	for len(c.peerFails) < len(snaps) {
		c.peerFails = append(c.peerFails, 0)
		c.peerLost = append(c.peerLost, false)
	}
	anyLost := false
	var report []int
	for i, s := range snaps {
		if s.err == nil {
			c.peerFails[i], c.peerLost[i] = 0, false
			continue
		}
		c.peerFails[i]++
		if c.peerFails[i] >= limit {
			anyLost = true
			if !c.peerLost[i] {
				c.peerLost[i] = true
				report = append(report, i)
			}
		}
	}
	c.pmu.Unlock()
	for _, i := range report {
		c.note(Event{Status: StatusPeerLost, Channel: fmt.Sprintf("peer[%d]", i), Time: time.Now()})
	}
	return anyLost
}

// note emits a coordinator-level event into the observability scope.
func (c *Coordinator) note(ev Event) {
	c.Obs.Registry().Counter("dpn_deadlock_coord_events_total", obs.L("status", ev.Status.String())).Inc()
	c.Obs.Record(obs.EvDeadlock, ev.Channel, "coord:"+ev.Status.String(), int64(ev.NewCap))
	if c.OnEvent != nil {
		c.OnEvent(ev)
	}
}

// MetricsSource is implemented by peers that can render their node's
// metrics as Prometheus text: wire.Node locally, server.Client over the
// compute-server RPC.
type MetricsSource interface {
	MetricsText() (string, error)
}

// GatherMetrics scrapes every peer that implements MetricsSource and
// merges the expositions into one multi-node Prometheus document. Peers
// without metrics support are skipped. A failing scrape (a lost peer
// mid-outage, say) does not abort the gather: its absence is recorded
// as a "# dpn:stale peer[i]: ..." comment line in the merged document,
// so a dashboard or dpntop keeps showing the healthy fleet while making
// the hole visible. Only when every scrapeable peer fails is an error
// returned — an all-stale document would be mistaken for a healthy one.
func (c *Coordinator) GatherMetrics() (string, error) {
	var texts []string
	var stale []string
	var firstErr error
	sources := 0
	for i, p := range c.Peers {
		ms, ok := p.(MetricsSource)
		if !ok {
			continue
		}
		sources++
		txt, err := ms.MetricsText()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("deadlock: scraping peer %d: %w", i, err)
			}
			stale = append(stale, fmt.Sprintf("# dpn:stale peer[%d]: %v", i, err))
			continue
		}
		texts = append(texts, txt)
	}
	if sources > 0 && len(texts) == 0 {
		return "", firstErr
	}
	var b strings.Builder
	for _, line := range stale {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if err := obs.MergeProm(&b, texts...); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Check performs one global detection round.
func (c *Coordinator) Check() (Status, error) {
	c.Obs.Registry().Counter("dpn_deadlock_coord_rounds_total").Inc()
	s1, err := c.snapshot()
	if lost := c.notePeerHealth(s1); err != nil {
		// A peer is unreachable, so the global quiescence test cannot
		// run this round — growing a channel on partial information
		// could mask a true deadlock. Detection resumes when the peer
		// answers again (its link may be healing under the covers).
		if lost {
			return StatusPeerLost, err
		}
		return StatusRunning, err
	}
	var live, blocked int64
	for _, s := range s1 {
		live += s.status.Live
		blocked += s.status.Blocked
	}
	if live == 0 {
		return StatusTerminated, nil
	}
	if blocked == 0 {
		return StatusRunning, nil
	}
	// Quiescence test: nothing may move during the settle window.
	time.Sleep(c.Settle)
	s2, err := c.snapshot()
	if lost := c.notePeerHealth(s2); err != nil {
		if lost {
			return StatusPeerLost, err
		}
		return StatusRunning, err
	}
	for i := range s1 {
		a, b := s1[i].status, s2[i].status
		if a.Blocked < a.Live || b.Blocked < b.Live {
			return StatusRunning, nil // some process on the node is computing
		}
		if a.Generation != b.Generation || a.BytesIn != b.BytesIn || a.BytesOut != b.BytesOut ||
			a.Live != b.Live || a.Blocked != b.Blocked || b.WakePending {
			return StatusRunning, nil
		}
	}
	// Quiescent. Gather full write-blocked channels globally.
	type cand struct {
		peer int
		ref  ChannelRef
	}
	var full []cand
	for i, s := range s2 {
		for _, ref := range s.status.FullChannels {
			full = append(full, cand{peer: i, ref: ref})
		}
	}
	if len(full) == 0 {
		c.note(Event{Status: StatusTrueDeadlock, Time: time.Now()})
		return StatusTrueDeadlock, nil
	}
	sort.Slice(full, func(i, j int) bool { return full[i].ref.Cap < full[j].ref.Cap })
	for _, cd := range full {
		newCap := cd.ref.Cap * c.GrowthFactor
		if c.GrowthFactor <= 1 {
			newCap = cd.ref.Cap * 2
		}
		if c.MaxCapacity > 0 && newCap > c.MaxCapacity {
			newCap = c.MaxCapacity
		}
		if newCap <= cd.ref.Cap {
			continue
		}
		got, err := c.Peers[cd.peer].GrowChannel(cd.ref.Name, newCap)
		if err != nil || got <= cd.ref.Cap {
			continue
		}
		c.resolutions.Add(1)
		c.note(Event{Status: StatusResolved, Channel: cd.ref.Name, NewCap: got, Time: time.Now()})
		return StatusResolved, nil
	}
	c.note(Event{Status: StatusTrueDeadlock, Time: time.Now()})
	return StatusTrueDeadlock, nil
}
