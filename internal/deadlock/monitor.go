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
package deadlock

import (
	"fmt"
	"io"
	"runtime/pprof"
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
	// StatusPeerLost means the distributed coordinator has failed to
	// reach a peer for PeerFailureLimit consecutive polls: the global
	// quiescence test cannot run, so detection is suspended until the
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
	Channel string // grown channel, for StatusResolved
	NewCap  int    // capacity after growth
	Time    time.Time
}

// Monitor watches one network.
type Monitor struct {
	net *core.Network

	// Poll is the backstop sampling interval. A started monitor checks
	// when the network signals quiescence (core.Network.Quiescent) —
	// the last process blocking or exiting — so Poll does not set how
	// long an artificial deadlock stalls the graph.
	Poll time.Duration
	// GrowthFactor multiplies a full channel's capacity on resolution
	// (must be > 1; default 2).
	GrowthFactor int
	// MaxCapacity bounds growth; 0 means unbounded. If growth is
	// impossible because every full channel is at MaxCapacity, the
	// deadlock is reported as true deadlock.
	MaxCapacity int
	// OnEvent, if set, is invoked for every resolution and for a true
	// deadlock.
	OnEvent func(Event)
	// DumpTo, if set, receives a diagnostic dump when the monitor first
	// reports a true deadlock: every channel's occupancy, blocked
	// parties, and accumulated blocked-time watermarks, followed by a
	// full goroutine profile. The commands point it at stderr so a
	// wedged run explains itself without a debugger attached.
	DumpTo io.Writer

	mu     sync.Mutex
	events []Event
	stop   chan struct{}
	done   chan struct{}

	// checkMu guards chans, the scratch slice every pass's channel walk
	// reuses, so concurrent Check calls stay safe.
	checkMu sync.Mutex
	chans   []*core.Channel

	scope   *obs.Scope
	cChecks *obs.Counter
	hCheck  *obs.Histogram
	cEvents map[Status]*obs.Counter
}

// New creates a monitor for n with the given poll interval.
func New(n *core.Network, poll time.Duration) *Monitor {
	if poll <= 0 {
		poll = time.Millisecond
	}
	m := &Monitor{
		net:          n,
		Poll:         poll,
		GrowthFactor: 2,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	m.scope = n.Obs()
	reg := m.scope.Registry()
	reg.Help("dpn_deadlock_checks_total", "Detection passes run by the deadlock monitor.")
	reg.Help("dpn_deadlock_check_seconds", "Latency of one detection pass.")
	reg.Help("dpn_deadlock_events_total", "Deadlocks observed, by status (resolved|true-deadlock).")
	m.cChecks = reg.Counter("dpn_deadlock_checks_total")
	m.hCheck = reg.Histogram("dpn_deadlock_check_seconds", nil)
	m.cEvents = map[Status]*obs.Counter{
		StatusResolved:     reg.Counter("dpn_deadlock_events_total", obs.L("status", "resolved")),
		StatusTrueDeadlock: reg.Counter("dpn_deadlock_events_total", obs.L("status", "true-deadlock")),
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

// Start launches the monitoring goroutine, which checks whenever the
// network signals quiescence and every Poll as a backstop. It is the
// Quiescent channel's one consumer, so start one monitor per network.
// Call Stop to end it; it also ends by itself when the network has no
// live processes left.
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

func (m *Monitor) loop() {
	defer close(m.done)
	t := time.NewTicker(m.Poll)
	defer t.Stop()
	quiet := m.net.Quiescent()
	for {
		select {
		case <-m.stop:
			return
		case <-quiet:
		case <-t.C:
		}
		if st := m.Check(); st == StatusTerminated {
			return
		}
		// On StatusTrueDeadlock the monitor keeps watching: the report
		// lets the user act (tear the network down, close a channel),
		// after which progress or termination is observed normally.
	}
}

// Check performs one detection pass and, when it finds an artificial
// deadlock, resolves it. It is exported so tests and callers can drive
// detection synchronously. A pass that records no Event allocates
// nothing.
func (m *Monitor) Check() Status {
	m.cChecks.Inc()
	t0 := time.Now()
	defer func() { m.hCheck.Observe(time.Since(t0).Seconds()) }()
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
// gen: any scheduling event since gen voids the observation; otherwise
// Parks' rule grows the smallest full channel, keeping total buffer
// memory as small as possible, and a network with no full channel
// that can still grow is truly deadlocked.
func (m *Monitor) resolve(gen uint64) Status {
	ch, newCap, pending := m.smallestFull()
	if pending || m.net.Generation() != gen {
		return StatusRunning // raced with progress; not a deadlock
	}
	if ch == nil {
		m.recordEdge(Event{Status: StatusTrueDeadlock, Time: time.Now()})
		return StatusTrueDeadlock
	}
	ch.Pipe().Grow(newCap)
	m.record(Event{Status: StatusResolved, Channel: ch.Name(), NewCap: newCap, Time: time.Now()})
	return StatusResolved
}

// smallestFull walks the channels for the full one with a blocked
// writer and the smallest capacity that can still grow — the first
// registered on a tie — and the capacity to grow it to. It stops early
// with pending set if some pipe has a signaled-but-not-yet-rescheduled
// party: the scheduler just hasn't run it yet.
func (m *Monitor) smallestFull() (grow *core.Channel, newCap int, pending bool) {
	m.checkMu.Lock()
	defer m.checkMu.Unlock()
	m.chans = m.net.AppendChannels(m.chans[:0])
	defer clear(m.chans) // pin no channel between passes
	oldCap := 0
	for _, ch := range m.chans {
		p := ch.Pipe()
		if p.WakePending() {
			return nil, 0, true
		}
		if !p.WriteBlockedOnFull() {
			continue
		}
		c := p.Cap()
		nc := c * max(m.GrowthFactor, 2)
		if m.MaxCapacity > 0 {
			nc = min(nc, m.MaxCapacity)
		}
		if nc > c && (grow == nil || c < oldCap) { // nc <= c: already at the bound
			grow, oldCap, newCap = ch, c, nc
		}
	}
	return grow, newCap, false
}

// recordEdge records a true-deadlock event only on the transition into
// the state, so a monitor loop does not spam events every poll.
func (m *Monitor) recordEdge(ev Event) {
	m.mu.Lock()
	if len(m.events) > 0 && m.events[len(m.events)-1].Status == StatusTrueDeadlock {
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()
	m.record(ev)
	m.dump()
}

// dump writes the true-deadlock diagnostic to DumpTo: per-channel
// occupancy, blocked readers/writers, and the blocked-time watermark
// counters (dpn_conduit_wait_ns_total), then a goroutine profile. The
// watermarks tell the operator *which* edge the network starved on and
// for how long; the profile tells them where each process is parked.
func (m *Monitor) dump() {
	w := m.DumpTo
	if w == nil {
		return
	}
	waits := make(map[string][2]time.Duration)
	for _, s := range m.scope.Registry().Samples() {
		if s.Name != "dpn_conduit_wait_ns_total" {
			continue
		}
		ch := s.Label("channel")
		v := waits[ch]
		if s.Label("op") == "read" {
			v[0] = time.Duration(s.Value)
		} else {
			v[1] = time.Duration(s.Value)
		}
		waits[ch] = v
	}
	fmt.Fprintf(w, "dpn: true deadlock: every live process is blocked reading\n")
	fmt.Fprintf(w, "dpn: channel watermarks:\n")
	for _, ch := range m.net.Channels() {
		p := ch.Pipe()
		wt := waits[ch.Name()]
		fmt.Fprintf(w, "dpn:   %-28s %5d/%-5d bytes  readers-blocked %d  writers-blocked %d  read-wait %v  write-wait %v\n",
			ch.Name(), p.Len(), p.Cap(), p.BlockedReaders(), p.BlockedWriters(), wt[0], wt[1])
	}
	fmt.Fprintf(w, "dpn: goroutine profile:\n")
	if pr := pprof.Lookup("goroutine"); pr != nil {
		pr.WriteTo(w, 1)
	}
}

func (m *Monitor) record(ev Event) {
	m.mu.Lock()
	m.events = append(m.events, ev)
	cb := m.OnEvent
	m.mu.Unlock()
	m.cEvents[ev.Status].Inc()
	m.scope.Record(obs.EvDeadlock, ev.Channel, ev.Status.String(), int64(ev.NewCap))
	if cb != nil {
		cb(ev)
	}
}
