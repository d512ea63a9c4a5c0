package core

import "io"

// The cut. The §3.4 cascade tells a producer that its consumer is gone
// only on the producer's next write, so a stage whose output nobody
// reads keeps working until its next surviving element reaches it: in
// the sieve, the unbounded source keeps feeding every filter for long
// after the collector has its primes. The cut applies the eraser rule
// of interaction nets (Mackie, "Compiling Process Networks to
// Interaction Nets", PAPERS.md) at once instead. When a consuming end
// closes, a local writer all of whose outputs have lost their consumers
// has the consuming ends of its inputs closed too, and the rule runs
// again from each of them. A process cut this way gets ErrReadClosed
// from its next port operation, which is already a termination.
//
// The runtime records on each local channel which local process holds
// each of its ends: at Spawn, and when InsertUpstream gives its caller
// a new input. A process handed a port by Spawn takes it over from
// whoever held it, Detach forgets an end, and a finishing process
// forgets all of its own. That the consuming end was closed is kept
// after its holders are gone, and it stays true: the pipe stays
// read-closed, so a writer that takes the producing end later has lost
// its consumer too. A writer is cut only if it holds at least one
// output, every port it holds is registered to it, every output has
// lost its consumer, and it is neither suspended nor asked to suspend.
// So these are never cut: sinks; a Duplicate with one live output; a
// process holding a port the runtime did not register to it (a foreign
// or detached port, a channel of another network, any channel it made
// itself with Env.NewChannel); and a writer on another node — the cut
// does not cross a link, so cross-node channels keep the lazy rule.
//
// Determinacy holds because only streams that no consumer will ever
// read stop sooner: every byte a live consumer reads was written by a
// process with a live output, and such a process is never cut.

// ends records the local processes holding a channel's two ends. It is
// a field of the channel, guarded by its network's lock.
type ends struct {
	w, r *Proc
	// rclosed is set when the consuming end was closed through a port
	// bound to the channel, or by a cut.
	rclosed bool
}

// hold registers ports to proc, which holds them from now on, and cuts
// proc at once if every output it holds has lost its consumer (the
// consumer may have closed while the ports changed hands).
func (n *Network) hold(proc *Proc, ports []io.Closer) {
	n.mu.Lock()
	for _, c := range ports {
		var ch *Channel
		write := false
		switch p := c.(type) {
		case *ReadPort:
			ch = p.Channel()
		case *WritePort:
			ch, write = p.Channel(), true
		}
		if ch == nil || ch.net != n {
			proc.opaque = true
			continue
		}
		n.setHolder(ch, write, proc)
	}
	closing := n.walk(proc)
	n.mu.Unlock()
	closeConsumers(closing)
}

// release forgets every end proc holds. It runs when proc finishes.
func (n *Network) release(proc *Proc) {
	n.mu.Lock()
	for _, ch := range proc.ins {
		ch.held.r = nil
	}
	for _, ch := range proc.outs {
		ch.held.w = nil
	}
	proc.ins, proc.outs = nil, nil
	n.mu.Unlock()
}

// forget records that nobody holds ch's producing (write) or consuming
// end any more: its port was detached.
func (n *Network) forget(ch *Channel, write bool) {
	n.mu.Lock()
	n.setHolder(ch, write, nil)
	n.mu.Unlock()
}

// setHolder makes proc (nil: nobody) the holder of one end of ch. With
// n.mu held.
func (n *Network) setHolder(ch *Channel, write bool, proc *Proc) {
	slot := &ch.held.r
	if write {
		slot = &ch.held.w
	}
	if old := *slot; old != proc {
		if old != nil {
			old.drop(ch, write)
		}
		if proc != nil {
			*proc.list(write) = append(*proc.list(write), ch)
		}
		*slot = proc
	}
}

// consumerClosed runs the cut from ch, whose consuming end a port bound
// to it has just closed.
func (n *Network) consumerClosed(ch *Channel) {
	n.mu.Lock()
	var closing []*Channel
	if e := &ch.held; !e.rclosed {
		e.rclosed = true
		closing = n.walk(e.w)
	}
	n.mu.Unlock()
	closeConsumers(closing)
}

// walk applies the rule to w and, through each input it marks closed,
// to that input's writer, on the records alone. It returns the
// consuming ends to close, downstream first. With n.mu held.
func (n *Network) walk(w *Proc) (closing []*Channel) {
	var todo []*Proc
	for {
		if n.cuttable(w) {
			for _, ch := range w.ins {
				e := &ch.held
				if e.rclosed {
					continue
				}
				e.rclosed = true
				closing = append(closing, ch)
				if e.w != nil {
					todo = append(todo, e.w)
				}
			}
		}
		if len(todo) == 0 {
			return closing
		}
		w, todo = todo[len(todo)-1], todo[:len(todo)-1]
	}
}

// cuttable reports whether the rule cuts w: it holds an output, holds
// only registered ports, is neither suspended nor asked to suspend, and
// every output it holds has lost its consumer. With n.mu held.
func (n *Network) cuttable(w *Proc) bool {
	if w == nil || w.opaque || len(w.outs) == 0 {
		return false
	}
	if ps := w.park; ps != nil && ps.requested.Load() {
		return false // parked, parking, or ejected and taking its ports elsewhere
	}
	for _, ch := range w.outs {
		if !ch.held.rclosed {
			return false
		}
	}
	return true
}

// closeConsumers closes the consuming ends a walk marked, upstream first,
// so the source of a long chain is the first to stop.
func closeConsumers(closing []*Channel) {
	for i := len(closing) - 1; i >= 0; i-- {
		closing[i].cd.Buffer().CloseRead()
	}
}

// list returns p's registered outputs (write) or inputs.
func (p *Proc) list(write bool) *[]*Channel {
	if write {
		return &p.outs
	}
	return &p.ins
}

// drop removes ch from p's registered outputs (write) or inputs.
func (p *Proc) drop(ch *Channel, write bool) {
	l := p.list(write)
	for i, c := range *l {
		if c == ch {
			last := len(*l) - 1
			(*l)[i] = (*l)[last]
			(*l)[last] = nil
			*l = (*l)[:last]
			return
		}
	}
}
