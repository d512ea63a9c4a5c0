package core

import (
	"errors"
	"sync"
	"sync/atomic"
)

// The paper lists re-distributing processes *after execution has
// already begun* as future work (§6.1: "making it possible to
// re-distribute processes after execution has already begun with the
// possibility that processes will be moved more than once"). This file
// implements the runtime half of that feature: a running process can be
// cooperatively suspended at a step boundary and then either resumed in
// place or ejected — removed from its goroutine with every port left
// open — so the migration machinery (package wire) can ship it to
// another machine and spawn it there. Unconsumed channel data moves or
// is re-routed exactly as in a pre-execution move.
//
// Suspension is cooperative: it takes effect when the process next
// completes a Step. A process blocked reading an empty channel parks as
// soon as data arrives and the step finishes; processes that are busy
// (the intended migration targets — e.g. a worker on an overloaded
// machine) park promptly. Only Stepper-based processes are suspendable;
// a Process implementing Run directly never reaches a step boundary.

// ErrNotSuspendable is returned by Suspend for processes that do not
// run through the step loop.
var ErrNotSuspendable = errors.New("core: process is not a Stepper; cannot suspend")

// ErrFinished is returned by Suspend when the process ends before
// parking.
var ErrFinished = errors.New("core: process finished before it could be suspended")

// ErrNotParked is returned by Resume and Eject when the process is not
// suspended.
var ErrNotParked = errors.New("core: process is not suspended")

// errEjected is the sentinel the step loop returns when the process
// was ejected; the runtime then skips closing the process's ports.
var errEjected = errors.New("core: process ejected for migration")

type parkAction int

const (
	actNone parkAction = iota
	actResume
	actEject
)

// parkState carries the suspension handshake for one process.
type parkState struct {
	mu   sync.Mutex
	cond *sync.Cond

	// requested is atomic so the step loop can test it without the
	// mutex: it is tested between every two Steps, and a process that
	// moves one element per Step pays that test per element (a run
	// process pays it once per run). It is only ever written under mu.
	requested atomic.Bool
	parked    bool
	action    parkAction
	finished  bool
}

func newParkState() *parkState {
	ps := &parkState{}
	ps.cond = sync.NewCond(&ps.mu)
	return ps
}

// checkpoint is called by the step loop between steps. It returns true
// if the process has been ejected and must unwind without closing its
// ports.
func (ps *parkState) checkpoint() (ejected bool) {
	if ps == nil || !ps.requested.Load() {
		return false
	}
	return ps.park()
}

// park is checkpoint's slow path: a suspension has been requested (only
// this goroutine ever clears the request, so it still stands).
func (ps *parkState) park() (ejected bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.parked = true
	ps.cond.Broadcast()
	for ps.action == actNone {
		ps.cond.Wait()
	}
	act := ps.action
	ps.action = actNone
	if act != actEject {
		// An ejected process stays "asked to suspend" while it unwinds,
		// so the cut leaves the ports it is taking elsewhere alone.
		ps.requested.Store(false)
	}
	ps.parked = false
	ps.cond.Broadcast()
	return act == actEject
}

// markFinished wakes suspenders when the process ends on its own.
func (ps *parkState) markFinished() {
	ps.mu.Lock()
	ps.finished = true
	ps.cond.Broadcast()
	ps.mu.Unlock()
}

// Suspend asks the process to park at its next step boundary and
// blocks until it has parked. While parked, the process performs no
// channel operations, so its ports can be detached safely.
func (p *Proc) Suspend() error {
	if p.park == nil {
		return ErrNotSuspendable
	}
	ps := p.park
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.finished {
		return ErrFinished
	}
	ps.requested.Store(true)
	ps.cond.Broadcast()
	for !ps.parked && !ps.finished {
		ps.cond.Wait()
	}
	if ps.finished && !ps.parked {
		return ErrFinished
	}
	return nil
}

// Suspended reports whether the process is currently parked.
func (p *Proc) Suspended() bool {
	if p.park == nil {
		return false
	}
	p.park.mu.Lock()
	defer p.park.mu.Unlock()
	return p.park.parked
}

// Resume lets a suspended process continue running in place.
func (p *Proc) Resume() error {
	return p.release(actResume, false)
}

// Eject terminates a suspended process's goroutine *without closing its
// ports* and returns the process value, ready to be exported to another
// machine (wire.Export) and spawned there. The local Proc handle
// reports completion with a nil error.
func (p *Proc) Eject() (any, error) {
	if err := p.release(actEject, true); err != nil {
		return nil, err
	}
	return p.body, nil
}

func (p *Proc) release(act parkAction, wait bool) error {
	if p.park == nil {
		return ErrNotSuspendable
	}
	ps := p.park
	ps.mu.Lock()
	if !ps.parked {
		ps.mu.Unlock()
		return ErrNotParked
	}
	ps.action = act
	ps.cond.Broadcast()
	ps.mu.Unlock()
	if wait {
		<-p.done
	}
	return nil
}
