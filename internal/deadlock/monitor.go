// Package deadlock implements run-time buffer management for bounded
// process-network channels, following the bounded-scheduling approach of
// Parks' thesis that the paper adopts (§3.5, §6.2): channels have finite
// capacity so writes block and scheduling stays fair, but finite
// capacity can introduce *artificial* deadlock — a cycle (or, as in
// Figure 13, even an acyclic graph) of processes blocked writing to full
// channels. Determining safe capacities statically is undecidable
// (equivalent to the halting problem), so a monitor watches the running
// network: when every live process is blocked and at least one is
// blocked writing to a full channel, the smallest such channel's buffer
// is grown and execution resumes. If every blocked process is waiting to
// read, the deadlock is real and is reported.
//
// A graph that spans several nodes is the distributed detection §6.2
// lists as future work: no one node's counters see all of it. A monitor
// given peers watches them too, and applies the same rule to the
// channels of every node (see Monitor.Check).
package deadlock

import (
	"cmp"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// Status classifies what the monitor observed.
type Status int

const (
	// StatusRunning means the network is making progress.
	StatusRunning Status = iota
	// StatusResolved means an artificial deadlock was detected and
	// resolved by growing a channel.
	StatusResolved
	// StatusTrueDeadlock means every live process is blocked reading —
	// no capacity increase can help.
	StatusTrueDeadlock
	// StatusTerminated means no live processes remain.
	StatusTerminated
	// StatusPeerLost means a peer did not answer a poll: the test that
	// spans the nodes cannot run, so detection is suspended until the
	// peer answers again (link-level resilience may still heal it).
	StatusPeerLost
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusResolved:
		return "resolved"
	case StatusTrueDeadlock:
		return "true-deadlock"
	case StatusTerminated:
		return "terminated"
	case StatusPeerLost:
		return "peer-lost"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Event records one detection the monitor made.
type Event struct {
	Status  Status
	Channel string // grown channel, for StatusResolved; "peer[i]" for StatusPeerLost
	NewCap  int    // capacity after growth
	Time    time.Time
}

// ChannelRef identifies one growable channel on a node.
type ChannelRef struct {
	Name string
	Cap  int
	ch   *core.Channel // set on the node that took the snapshot
}

// NodeStatus is one node's scheduling snapshot.
type NodeStatus struct {
	Live, Blocked     int64
	Generation        uint64
	BytesIn, BytesOut int64
	// WakePending reports that some blocked party on the node has been
	// signaled but not rescheduled — the node is still running.
	WakePending bool
	// FullChannels lists channels that are full with at least one
	// blocked writer.
	FullChannels []ChannelRef
}

// Peer is another node as a monitor sees it. Implementations: wire.Node
// (in-process) and server.Client (remote, over the compute server RPC).
type Peer interface {
	// DeadlockStatus returns the node's snapshot.
	DeadlockStatus() (NodeStatus, error)
	// GrowChannel grows the named channel and returns the resulting
	// capacity.
	GrowChannel(name string, newCap int) (int, error)
}

// settle is the gap between the two snapshots of a pass that watches
// peers. Their counters are read over RPC, not at one instant, so the
// test asks that nothing move between two reads.
const settle = 2 * time.Millisecond

// Monitor watches one network and, if it has peers, the nodes they
// stand for.
type Monitor struct {
	net   *core.Network
	peers []Peer

	// poll paces the surveys of peers, which signal nothing (see New).
	poll time.Duration
	// MaxCapacity bounds growth; 0 means unbounded. If growth is
	// impossible because every full channel is at MaxCapacity, the
	// deadlock is reported as true deadlock.
	MaxCapacity int
	// OnEvent, if set, is invoked for every event the monitor records.
	OnEvent func(Event)
	// DumpTo, if set, receives a diagnostic dump (see dump) when the
	// monitor first reports a true deadlock. The commands point it at
	// stderr so a wedged run explains itself without a debugger.
	DumpTo io.Writer

	mu     sync.Mutex
	events []Event
	edge   Status // the status last recorded; see record
	stop   chan struct{}
	done   chan struct{}

	// checkMu guards chans, the scratch slice every pass's channel walk
	// reuses, so concurrent Check calls stay safe.
	checkMu sync.Mutex
	chans   []*core.Channel

	scope   *obs.Scope
	cChecks *obs.Counter
	hCheck  *obs.Histogram
	cEvents [StatusPeerLost + 1]*obs.Counter
}

// New creates a monitor for n. With peers, every pass watches them too,
// and poll is the interval at which a started monitor surveys them
// (non-positive: 1 ms). Without peers poll is ignored: the network's
// quiescence wake (core.Network.Quiescent) is the monitor's one wake,
// and it arms no timer.
func New(n *core.Network, poll time.Duration, peers ...Peer) *Monitor {
	if poll <= 0 {
		poll = time.Millisecond
	}
	m := &Monitor{
		net:   n,
		peers: peers,
		poll:  poll,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		scope: n.Obs(),
	}
	reg := m.scope.Registry()
	reg.Help("dpn_deadlock_checks_total", "Detection passes run by the deadlock monitor.")
	reg.Help("dpn_deadlock_check_seconds", "Latency of one detection pass.")
	reg.Help("dpn_deadlock_events_total", "Events the deadlock monitor recorded, by status (resolved|true-deadlock|peer-lost).")
	m.cChecks = reg.Counter("dpn_deadlock_checks_total")
	m.hCheck = reg.Histogram("dpn_deadlock_check_seconds", nil)
	for _, st := range []Status{StatusResolved, StatusTrueDeadlock, StatusPeerLost} {
		m.cEvents[st] = reg.Counter("dpn_deadlock_events_total", obs.L("status", st.String()))
	}
	return m
}

// Events returns the events recorded so far.
func (m *Monitor) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Event(nil), m.events...)
}

// Resolutions counts artificial deadlocks resolved so far.
func (m *Monitor) Resolutions() int {
	n := 0
	for _, e := range m.Events() {
		if e.Status == StatusResolved {
			n++
		}
	}
	return n
}

// Start launches the monitoring goroutine, which checks as soon as it
// runs — the network may have gone quiescent before, its wake already
// taken — and then whenever the network signals quiescence, until
// Stop. A monitor with peers also checks every poll interval, since
// peers signal nothing. It is the Quiescent channel's one consumer, so
// start one monitor per network.
func (m *Monitor) Start() {
	go m.loop()
}

// Stop ends the monitoring goroutine and waits for it to exit.
func (m *Monitor) Stop() {
	select {
	case <-m.stop:
	default:
		close(m.stop)
	}
	<-m.done
}

// loop keeps checking after a true deadlock, a lost peer and
// termination: the report lets the user act (tear the network down,
// close a channel), and a server's network comes back to life with the
// next graph shipped to it.
func (m *Monitor) loop() {
	defer close(m.done)
	var tick <-chan time.Time // nil, and never ready, without peers
	if len(m.peers) > 0 {
		t := time.NewTicker(m.poll)
		defer t.Stop()
		tick = t.C
	}
	quiet := m.net.Quiescent()
	for {
		m.Check()
		select {
		case <-m.stop:
			return
		case <-quiet:
		case <-tick:
		}
	}
}

// Check performs one detection pass and, when it finds an artificial
// deadlock, resolves it. It is exported so tests and callers can drive
// detection synchronously. Without peers, a pass that records no Event
// allocates nothing.
func (m *Monitor) Check() Status {
	m.cChecks.Inc()
	t0 := time.Now()
	defer func() { m.hCheck.Observe(time.Since(t0).Seconds()) }()
	if len(m.peers) > 0 {
		return m.global()
	}
	live := m.net.Live()
	if live == 0 {
		return StatusTerminated
	}
	// Candidate condition: every live process is blocked in a channel
	// operation.
	if m.net.Blocked() < live {
		return StatusRunning
	}
	// Confirm stability: no scheduling event may intervene between two
	// observations, otherwise we might have caught a transient state.
	gen := m.net.Generation()
	if m.net.Blocked() < m.net.Live() || m.net.Generation() != gen {
		return StatusRunning
	}
	return m.resolve(gen)
}

// resolve finishes a pass over a network seen quiescent at generation
// gen: any scheduling event since gen voids the observation, and so
// does a process waiting on a link, which only a monitor that watches
// the other node can judge. Otherwise Parks' rule grows the smallest
// full channel — the first registered on a tie — keeping total buffer
// memory as small as possible, and a network with no full channel that
// can still grow is truly deadlocked.
func (m *Monitor) resolve(gen uint64) Status {
	var grow *core.Channel
	oldCap, newCap := 0, 0
	m.checkMu.Lock()
	m.chans = m.net.AppendChannels(m.chans[:0])
	pending, link := walk(m.chans, func(ch *core.Channel, c int) {
		if nc := m.grown(c); nc > c && (grow == nil || c < oldCap) { // nc <= c: already at the bound
			grow, oldCap, newCap = ch, c, nc
		}
	})
	clear(m.chans) // pin no channel between passes
	m.checkMu.Unlock()
	if pending || link || m.net.Generation() != gen {
		return StatusRunning
	}
	if grow == nil {
		m.record(Event{Status: StatusTrueDeadlock, Time: time.Now()})
		return StatusTrueDeadlock
	}
	grow.Pipe().Grow(newCap)
	m.record(Event{Status: StatusResolved, Channel: grow.Name(), NewCap: newCap, Time: time.Now()})
	return StatusResolved
}

// walk visits chans once for Parks' rule, calling full with each
// channel whose buffer is full with a writer parked on it, and its
// capacity. It stops early, with pending set, at a pipe with a party
// signalled but not yet rescheduled: the scheduler just hasn't run it
// yet. link reports a process waiting on a link (stream.Pipe.Waits).
func walk(chans []*core.Channel, full func(ch *core.Channel, capacity int)) (pending, link bool) {
	for _, ch := range chans {
		wake, isFull, c, onLink := ch.Pipe().Waits()
		if wake {
			return true, link
		}
		link = link || onLink
		if isFull {
			full(ch, c)
		}
	}
	return false, link
}

// grown is the capacity Parks' rule grows a full channel of capacity c
// to: double, bounded by MaxCapacity when set.
func (m *Monitor) grown(c int) int {
	if m.MaxCapacity > 0 {
		return min(2*c, m.MaxCapacity)
	}
	return 2 * c
}

// Survey is n's snapshot as a monitor on another node sees it: its
// counts, and its full channels from the walk a local pass makes. The
// byte counters are the caller's to fill (wire.Node.DeadlockStatus
// reads its broker's).
func Survey(n *core.Network) NodeStatus {
	st := NodeStatus{Live: n.Live(), Blocked: n.Blocked(), Generation: n.Generation()}
	st.WakePending, _ = walk(n.Channels(), func(ch *core.Channel, c int) {
		st.FullChannels = append(st.FullChannels, ChannelRef{Name: ch.Name(), Cap: c, ch: ch})
	})
	return st
}

// global is a pass over the network and every peer. A node is
// quiescent when every one of its live processes is blocked in both of
// two snapshots a settle gap apart, and its counters did not move
// between them: then no process on it ran or was woken, and no byte
// entered or left a peer. The network's own byte traffic crosses a
// link to some peer, whose counters show it. When every node is
// quiescent, Parks' rule grows the smallest full channel on any node;
// a peer that fails to grow one passes the turn to the next smallest.
//
// The test is a heuristic in one direction: bytes that sit in a socket
// across both snapshots move no counter, so a graph waiting only on
// them can look quiescent. Growing a bounded channel never changes what
// a Kahn network computes, so a spurious growth is harmless; a spurious
// true-deadlock report is why the monitor reports rather than kills.
func (m *Monitor) global() Status {
	s1, ok := m.survey()
	if !ok {
		return StatusPeerLost
	}
	var live, blocked int64
	for _, s := range s1 {
		live += s.Live
		blocked += s.Blocked
	}
	if live == 0 {
		return StatusTerminated
	}
	if blocked == 0 {
		return StatusRunning
	}
	time.Sleep(settle)
	s2, ok := m.survey()
	if !ok {
		return StatusPeerLost
	}
	type candidate struct {
		node int // index into the snapshots; 0 is the network
		ref  ChannelRef
	}
	var full []candidate
	for i, b := range s2 {
		a := s1[i]
		if a.Blocked < a.Live || b.Blocked < b.Live || b.WakePending || a.Live != b.Live ||
			a.Generation != b.Generation || a.BytesIn != b.BytesIn || a.BytesOut != b.BytesOut {
			return StatusRunning
		}
		for _, ref := range b.FullChannels {
			full = append(full, candidate{i, ref})
		}
	}
	slices.SortStableFunc(full, func(x, y candidate) int { return cmp.Compare(x.ref.Cap, y.ref.Cap) })
	for _, c := range full {
		nc := m.grown(c.ref.Cap)
		if nc <= c.ref.Cap {
			continue
		}
		got := 0
		if c.node == 0 {
			got = c.ref.ch.Pipe().Grow(nc)
		} else if g, err := m.peers[c.node-1].GrowChannel(c.ref.Name, nc); err == nil {
			got = g
		}
		if got > c.ref.Cap {
			m.record(Event{Status: StatusResolved, Channel: c.ref.Name, NewCap: got, Time: time.Now()})
			return StatusResolved
		}
	}
	m.record(Event{Status: StatusTrueDeadlock, Time: time.Now()})
	return StatusTrueDeadlock
}

// survey snapshots the network and then every peer. A peer that does
// not answer ends it with ok false, and is reported lost once per
// outage (see record): a peer's client keeps one connection and does
// not redial, so a poll that fails once fails until the peer is back.
func (m *Monitor) survey() (snaps []NodeStatus, ok bool) {
	snaps = append(make([]NodeStatus, 0, 1+len(m.peers)), Survey(m.net))
	for i, p := range m.peers {
		st, err := p.DeadlockStatus()
		if err != nil {
			m.record(Event{Status: StatusPeerLost, Channel: fmt.Sprintf("peer[%d]", i), Time: time.Now()})
			return nil, false
		}
		snaps = append(snaps, st)
	}
	m.mu.Lock()
	if m.edge == StatusPeerLost {
		m.edge = StatusRunning // the outage is over
	}
	m.mu.Unlock()
	return snaps, true
}

// dump writes the true-deadlock diagnostic to DumpTo: per-channel
// occupancy, blocked readers/writers, and the blocked-time watermarks
// (each pipe's wait counts, which dpn_conduit_wait_ns_total exposes),
// then a goroutine profile. The watermarks tell the operator *which*
// edge the network starved on and for how long; the profile tells them
// where each process is parked.
func (m *Monitor) dump() {
	w := m.DumpTo
	if w == nil {
		return
	}
	fmt.Fprintf(w, "dpn: true deadlock: every live process is blocked reading\n")
	fmt.Fprintf(w, "dpn: channel watermarks:\n")
	for _, ch := range m.net.Channels() {
		p := ch.Pipe()
		c, _ := p.Counts()
		fmt.Fprintf(w, "dpn:   %-28s %5d/%-5d bytes  readers-blocked %d  writers-blocked %d  read-wait %v  write-wait %v\n",
			ch.Name(), c.Buffered, c.Capacity, p.BlockedReaders(), p.BlockedWriters(),
			time.Duration(c.WaitNanos[0]), time.Duration(c.WaitNanos[1]))
	}
	fmt.Fprintf(w, "dpn: goroutine profile:\n")
	if pr := pprof.Lookup("goroutine"); pr != nil {
		pr.WriteTo(w, 1)
	}
}

// record records ev. A verdict that holds across passes — a true
// deadlock, a peer that does not answer — is recorded on the
// transition into it, not on every poll. A true deadlock's record
// carries the dump.
func (m *Monitor) record(ev Event) {
	m.mu.Lock()
	again := ev.Status != StatusResolved && m.edge == ev.Status
	m.edge = ev.Status
	if !again {
		m.events = append(m.events, ev)
	}
	cb := m.OnEvent
	m.mu.Unlock()
	if again {
		return
	}
	m.cEvents[ev.Status].Inc()
	m.scope.Record(obs.EvDeadlock, ev.Channel, ev.Status.String(), int64(ev.NewCap))
	if cb != nil {
		cb(ev)
	}
	if ev.Status == StatusTrueDeadlock {
		m.dump()
	}
}
