package core

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"dpn/internal/obs"
	"dpn/internal/stream"
)

// ProcState describes what a process goroutine is currently doing. It is
// exported for the deadlock monitor and for diagnostics.
type ProcState int32

const (
	// StateRunning means the process is computing (or about to block).
	StateRunning ProcState = iota
	// StateDone means the process has finished.
	StateDone
)

// Proc is a handle to one running process.
type Proc struct {
	name    string
	body    any
	net     *Network
	done    chan struct{}
	err     error
	state   atomic.Int32
	park    *parkState
	ejected bool

	// The channel ends the runtime has registered to this process, and
	// whether it holds a port the runtime did not register (see cut.go).
	// Guarded by net.mu.
	ins, outs []*Channel
	opaque    bool
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Body returns the process value being executed.
func (p *Proc) Body() any { return p.body }

// Wait blocks until the process has finished and returns its error, if
// any. Termination errors (IsTermination) are not reported as failures.
func (p *Proc) Wait() error {
	<-p.done
	return p.err
}

// Done returns a channel closed when the process finishes.
func (p *Proc) Done() <-chan struct{} { return p.done }

// Network is the execution context for a process-network program graph:
// it tracks running processes and registered channels, provides the
// bookkeeping the deadlock monitor needs, and lets callers wait for the
// whole graph to terminate. Processes may spawn further processes at any
// time (self-modifying graphs, §3.3).
type Network struct {
	mu       sync.Mutex
	channels []*Channel
	sweepAt  int                // registerChannel sweeps the channel list at this length
	names    map[string]*record // the channel names admitted to the exposition
	order    []*record          // the records in names, first admitted first
	errs     []error

	wg         sync.WaitGroup
	generation atomic.Uint64
	quiet      chan struct{} // one slot; see Quiescent

	defaultCap int
	chanSeq    atomic.Int64

	// The scheduling counters live in the observability registry so
	// they are exported alongside everything else; the accessors below
	// read the same instruments the deadlock monitor uses.
	scope     *obs.Scope
	gLive     *obs.Gauge
	gBlocked  *obs.Gauge
	cSpawned  *obs.Counter
	cFailures *obs.Counter
}

// Option configures a Network.
type Option func(*Network)

// WithDefaultCapacity sets the buffer capacity used by NewChannel when
// the caller passes a non-positive capacity.
func WithDefaultCapacity(c int) Option {
	return func(n *Network) { n.defaultCap = c }
}

// NewNetwork creates an empty execution context.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		defaultCap: stream.DefaultCapacity,
		scope:      obs.NewScope(),
		quiet:      make(chan struct{}, 1),
		names:      make(map[string]*record),
	}
	for _, o := range opts {
		o(n)
	}
	reg := n.scope.Registry()
	reg.Help("dpn_net_procs_live", "Processes currently executing in this network.")
	reg.Help("dpn_net_procs_blocked", "Parties other than transport links parked inside a registered channel's pipe that nothing has signalled yet.")
	reg.Help("dpn_net_procs_spawned_total", "Processes ever spawned in this network.")
	reg.Help("dpn_net_proc_failures_total", "Processes that ended with a non-termination error.")
	n.gLive = reg.Gauge("dpn_net_procs_live")
	n.gBlocked = reg.Gauge("dpn_net_procs_blocked")
	n.cSpawned = reg.Counter("dpn_net_procs_spawned_total")
	n.cFailures = reg.Counter("dpn_net_proc_failures_total")
	helpConduit(reg)
	reg.SetCollector(n)
	return n
}

// Obs returns the network's observability scope. It is never nil for a
// network built with NewNetwork.
func (n *Network) Obs() *obs.Scope { return n.scope }

// NewChannel creates a channel registered with the network. A
// non-positive capacity selects the network's default.
func (n *Network) NewChannel(name string, capacity int) *Channel {
	if capacity <= 0 {
		capacity = n.defaultCap
	}
	if name == "" {
		name = fmt.Sprintf("ch%d", n.chanSeq.Add(1))
	}
	return newChannel(n, name, capacity)
}

// registerChannel lists c, and admits its name to the exposition while
// fewer names than the registry's series cap are admitted: an admitted
// name exposes all of its series, a refused one none.
func (n *Network) registerChannel(c *Channel) {
	// A scrape takes n.mu under the registry's lock, so the registry is
	// not called with n.mu held: the cap is read before, and a refusal
	// counted after.
	reg := n.scope.Registry()
	limit := reg.SeriesLimit()
	n.mu.Lock()
	rec := n.names[c.name]
	if rec == nil && (limit == 0 || len(n.order) < limit) {
		rec = &record{name: c.name, index: len(n.order)}
		n.names[c.name] = rec
		n.order = append(n.order, rec)
	}
	c.rec = rec
	if len(n.channels) >= n.sweepAt {
		// A long-lived network — a compute server's — would otherwise
		// keep every channel it ever carried, buffer and instruments
		// included. Sweeping when the list has doubled keeps
		// registration amortised O(1).
		n.sweep(nil)
		n.sweepAt = max(2*len(n.channels), 64)
	}
	n.channels = append(n.channels, c)
	n.mu.Unlock()
	n.generation.Add(1)
	n.noteQuiescence() // the bump voids a pass in progress
	if rec == nil {
		reg.Drop("dpn_conduit_*")
	}
}

// Channels returns a snapshot of the registered channels. Channels
// that can carry no more data drop out of it over time.
func (n *Network) Channels() []*Channel { return n.AppendChannels(nil) }

// AppendChannels appends the registered channels to dst, in
// registration order, and returns the extended slice. A caller that
// walks the list often reuses one slice and allocates nothing.
func (n *Network) AppendChannels(dst []*Channel) []*Channel {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append(dst, n.channels...)
}

// Spawn starts p (a Process or Stepper) in its own goroutine — "each
// process executes in its own thread" (§3.2) — and returns its handle.
// When the body returns, every port the process holds is closed,
// propagating termination through the graph.
func (n *Network) Spawn(p any) *Proc {
	proc := &Proc{name: nameOf(p), body: p, net: n, done: make(chan struct{})}
	if _, isProcess := p.(Process); !isProcess {
		if _, isStepper := p.(Stepper); isStepper {
			proc.park = newParkState()
		}
	}
	n.wg.Add(1)
	n.gLive.Add(1)
	n.cSpawned.Inc()
	n.scope.Record(obs.EvSpawn, proc.name, "", 0)
	n.generation.Add(1)
	n.hold(proc, PortsOf(p))
	go func() {
		defer n.finish(proc)
		env := &Env{net: n, proc: proc}
		err := runBody(p, env)
		switch {
		case errors.Is(err, errEjected):
			proc.ejected = true
		case err != nil && !IsTermination(err):
			proc.err = fmt.Errorf("process %s: %w", proc.name, err)
		}
	}()
	return proc
}

func (n *Network) finish(proc *Proc) {
	// An ejected process keeps its ports open: it is leaving this
	// goroutine to continue elsewhere (§6.1 migration). Every other
	// exit closes the ports, propagating termination (§3.4).
	if !proc.ejected {
		for _, c := range PortsOf(proc.body) {
			c.Close()
		}
	}
	n.release(proc)
	if proc.park != nil {
		proc.park.markFinished()
	}
	proc.state.Store(int32(StateDone))
	detail := ""
	if proc.err != nil {
		n.mu.Lock()
		n.errs = append(n.errs, proc.err)
		n.mu.Unlock()
		n.cFailures.Inc()
		detail = proc.err.Error()
	}
	n.scope.Record(obs.EvStop, proc.name, detail, 0)
	n.gLive.Add(-1)
	n.generation.Add(1)
	n.noteQuiescence()
	close(proc.done)
	n.wg.Done()
}

// Wait blocks until every spawned process (including ones spawned during
// execution) has finished. It returns the first recorded failure, if
// any.
func (n *Network) Wait() error {
	n.wg.Wait()
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.errs) > 0 {
		return n.errs[0]
	}
	return nil
}

// Errors returns all recorded process failures.
func (n *Network) Errors() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]error, len(n.errs))
	copy(out, n.errs)
	return out
}

// Live reports the number of processes currently executing. It is a
// thin wrapper over the registry-backed dpn_net_procs_live gauge.
func (n *Network) Live() int64 { return n.gLive.Value() }

// Blocked reports the number of parties parked inside a registered
// channel's pipe (reading an empty buffer or writing a full one) that
// the pipe has not signalled yet: processes, and any goroutine a caller
// drives a channel from directly. A transport link parked in a pipe it
// drives is not a process and does not count (see stream.Pipe.Link). A
// party counts from its park to its wake-up signal, not to when it runs
// again, so Blocked() >= Live() holds only while no hand-off is in
// flight. It is a thin wrapper over the dpn_net_procs_blocked gauge.
func (n *Network) Blocked() int64 { return n.gBlocked.Value() }

// Generation returns a counter bumped on every scheduling transition: a
// park, a wake-up signal, a spawn, an exit, a channel registration. Data
// moving between running parties does not bump it. The deadlock monitor
// uses it to take stable snapshots: a pass that saw Blocked() >= Live()
// is voided only by some process starting to move data, and no process
// can do that without first being signalled, spawned or exiting — all
// of which bump it. A goroutine that is not a process wakes a process
// only by signalling it, which bumps it too.
func (n *Network) Generation() uint64 { return n.generation.Load() }

// Quiescent returns a channel that receives a value whenever an event
// after which the deadlock monitor's test can newly hold leaves
// Blocked() >= Live(): a process parking or exiting, a channel
// registering (its generation bump voids a pass in progress), and a
// transport link parking on a side it drives or returning from that
// park (see stream.Observer.PipeLinkWait). It is the only wake of a
// monitor without peers, so an event missing from this list is a hang.
// The channel has one slot, so signals raised while one is pending
// merge into it; a consumer must drain it before it inspects the
// network, and there must be one consumer per network (the monitor) —
// a second would take signals the first needs.
func (n *Network) Quiescent() <-chan struct{} { return n.quiet }

// noteQuiescence signals Quiescent if every live process may be blocked.
// It runs after the transition's counter and generation updates, so a
// consumer woken by it observes them.
func (n *Network) noteQuiescence() {
	if n.gBlocked.Value() < n.gLive.Value() {
		return
	}
	select {
	case n.quiet <- struct{}{}:
	default:
	}
}

// Network implements stream.Observer so registered pipes report blocking
// transitions.

// PipeBlocked implements stream.Observer.
func (n *Network) PipeBlocked(*stream.Pipe, bool) {
	n.gBlocked.Add(1)
	n.generation.Add(1)
	n.noteQuiescence()
}

// PipeLinkWait implements stream.Observer. A link is not a process, so
// neither its park nor its return moves a counter.
func (n *Network) PipeLinkWait(*stream.Pipe, bool) { n.noteQuiescence() }

// PipeUnblocked implements stream.Observer.
func (n *Network) PipeUnblocked(*stream.Pipe, bool) {
	n.gBlocked.Add(-1)
	n.generation.Add(1)
}

// Env is passed to every process body. It gives a process access to its
// execution context so that self-modifying graphs can create channels
// and spawn processes at run time — reconfiguration is initiated by
// processes, not by an external agent, preserving determinism (§3.3).
type Env struct {
	net  *Network
	proc *Proc
}

// Network returns the executing network.
func (e *Env) Network() *Network { return e.net }

// Self returns the handle of the calling process.
func (e *Env) Self() *Proc { return e.proc }

// Spawn starts a new process in the same network.
func (e *Env) Spawn(p any) *Proc { return e.net.Spawn(p) }

// NewChannel creates a channel in the same network. The runtime does
// not know which of its ends the calling process keeps, so a process
// that makes channels itself is never cut (see cut.go); InsertUpstream
// is the helper that records the hand-over.
func (e *Env) NewChannel(name string, capacity int) *Channel {
	e.net.mu.Lock()
	e.proc.opaque = true
	e.net.mu.Unlock()
	return e.net.NewChannel(name, capacity)
}

// Composite groups processes so they can be treated — and in particular
// serialized and shipped to a compute server — as a unit. Running a
// composite starts every component in its own goroutine and waits for
// all of them: executing components' steps in sequence could introduce
// deadlock, so a separate thread of control per component is retained
// (§3.2).
type Composite struct {
	Name string
	// Procs are the component processes (each a Process or Stepper).
	Procs []any
}

// Add appends a component process and returns the composite for
// chaining, echoing the CompositeProcess.add API in Figure 6.
func (c *Composite) Add(p any) *Composite {
	c.Procs = append(c.Procs, p)
	return c
}

// ProcessName implements Namer.
func (c *Composite) ProcessName() string {
	if c.Name != "" {
		return "Composite(" + c.Name + ")"
	}
	return "Composite"
}

// Run implements Process.
func (c *Composite) Run(env *Env) error {
	procs := make([]*Proc, 0, len(c.Procs))
	for _, p := range c.Procs {
		procs = append(procs, env.Spawn(p))
	}
	var first error
	for _, p := range procs {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Ports implements PortHolder: a composite owns no ports itself; its
// components close their own.
func (c *Composite) Ports() []io.Closer { return nil }
