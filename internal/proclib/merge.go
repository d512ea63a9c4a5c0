package proclib

import (
	"errors"
	"io"

	"dpn/internal/core"
)

// OrderedMerge merges N ascending int64 streams into one ascending
// stream, eliminating duplicates — the Merge process of the Hamming
// network (Figure 12). An input that reaches end of stream simply drops
// out of the merge; the merge itself ends when every input has ended.
//
// Heads, Loaded and Done are elements already taken from the inputs and
// not yet emitted; they are exported so they ship with a migrating
// process instead of being lost with it.
type OrderedMerge struct {
	core.Iterative
	Ins []*core.ReadPort
	Out *core.WritePort

	Heads  []int64
	Loaded []bool
	Done   []bool
}

// Step implements core.Stepper. Each step emits one element.
func (m *OrderedMerge) Step(env *core.Env) error {
	if len(m.Heads) != len(m.Ins) {
		m.Heads = make([]int64, len(m.Ins))
		m.Loaded = make([]bool, len(m.Ins))
		m.Done = make([]bool, len(m.Ins))
	}
	// Fill every head slot.
	for i := range m.Ins {
		if m.Loaded[i] || m.Done[i] {
			continue
		}
		v, err := m.Ins[i].Tokens().ReadInt64()
		if err == io.EOF {
			m.Done[i] = true
			continue
		}
		if err != nil {
			return err
		}
		m.Heads[i] = v
		m.Loaded[i] = true
	}
	// Find the minimum head.
	var minV int64
	found := false
	for i := range m.Ins {
		if m.Loaded[i] && (!found || m.Heads[i] < minV) {
			minV = m.Heads[i]
			found = true
		}
	}
	if !found {
		return io.EOF // every input ended
	}
	// Consume the minimum from every input that carries it (dedup).
	for i := range m.Ins {
		if m.Loaded[i] && m.Heads[i] == minV {
			m.Loaded[i] = false
		}
	}
	return m.Out.Tokens().WriteInt64(minV)
}

// ModSplit is the "mod" process of Figure 13: values divisible by N go
// to OutMultiple, all other values go to OutOther. With a small
// OutOther buffer the downstream ordered merge deadlocks even though
// the graph is acyclic — the paper's demonstration that bounded
// channels need run-time buffer management.
type ModSplit struct {
	core.Iterative
	N           int64
	In          *core.ReadPort
	OutMultiple *core.WritePort
	OutOther    *core.WritePort
}

// Step implements core.Stepper.
func (m *ModSplit) Step(env *core.Env) error {
	v, err := m.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	if v%m.N == 0 {
		return m.OutMultiple.Tokens().WriteInt64(v)
	}
	return m.OutOther.Tokens().WriteInt64(v)
}

// Scatter distributes length-prefixed blocks from In to its outputs in
// round-robin order — the static load-balancing distributor of
// Figure 16: every worker receives the same number of tasks.
//
// Two failure modes are handled without poisoning the fan-out. If the
// input closes mid-block (a torn block: the length prefix or payload is
// cut short), nothing at all is emitted for the partial block — every
// downstream sees only whole length-prefixed blocks, because
// token.ReadBlock refuses to surface a truncated element and
// token.WriteBlock emits header and payload as one atomic sink write.
// If one downstream closes early, that lane is retired from the
// rotation and its block is redelivered to the next live lane; Scatter
// terminates only when the input ends or every lane is gone.
type Scatter struct {
	core.Iterative
	In   *core.ReadPort
	Outs []*core.WritePort

	next int
	done []bool
	live int
	buf  []byte
	init bool
}

// Step implements core.Stepper.
func (s *Scatter) Step(env *core.Env) error {
	if !s.init {
		s.done = make([]bool, len(s.Outs))
		s.live = len(s.Outs)
		s.init = true
	}
	if s.live == 0 {
		return io.EOF
	}
	b, err := s.In.Tokens().ReadBlockBuf(s.buf)
	if err != nil {
		// Torn block (io.ErrUnexpectedEOF) or end of input: either way
		// no partial element was surfaced, so nothing is emitted and the
		// close cascades cleanly (§3.4).
		return err
	}
	s.buf = b[:0]
	for s.live > 0 {
		for s.done[s.next] {
			s.next = (s.next + 1) % len(s.Outs)
		}
		out := s.Outs[s.next]
		s.next = (s.next + 1) % len(s.Outs)
		err := out.Tokens().WriteBlock(b)
		if err == nil {
			return nil
		}
		if !core.IsTermination(err) {
			return err
		}
		// This lane's consumer is gone: retire it and redeliver the
		// block to the next live lane.
		s.retire(out)
	}
	return io.EOF // every lane retired with a block in hand
}

func (s *Scatter) retire(out *core.WritePort) {
	for i, o := range s.Outs {
		if o == out && !s.done[i] {
			s.done[i] = true
			s.live--
			o.Close()
		}
	}
}

// Gather collects length-prefixed blocks from its inputs in round-robin
// order — the static load-balancing collector of Figure 16. Because it
// insists on reading from worker k before worker k+1, all workers
// proceed in lock-step with the slowest one, which is exactly the
// behaviour the paper's evaluation shows to be wasteful on heterogeneous
// clusters.
//
// An input that ends mid-round is retired from the rotation and the
// merge continues over the survivors; the close cascades downstream
// only when every input has ended. (Without this, one early-closing
// upstream used to tear down the whole merge, stranding the blocks the
// other lanes were still producing.) A corrupt input — torn mid-block —
// still fails the merge: retiring it would silently drop data.
type Gather struct {
	core.Iterative
	Ins []*core.ReadPort
	Out *core.WritePort

	next int
	done []bool
	live int
	init bool
}

// Step implements core.Stepper. Each step forwards one block.
func (g *Gather) Step(env *core.Env) error {
	if !g.init {
		g.done = make([]bool, len(g.Ins))
		g.live = len(g.Ins)
		g.init = true
	}
	for g.live > 0 {
		for g.done[g.next] {
			g.next = (g.next + 1) % len(g.Ins)
		}
		in := g.Ins[g.next]
		b, err := in.Tokens().ReadBlock()
		if err == nil {
			g.next = (g.next + 1) % len(g.Ins)
			return g.Out.Tokens().WriteBlock(b)
		}
		if !errors.Is(err, io.EOF) {
			return err // torn block or transport fault: not a clean close
		}
		// This lane ended: retire it and keep rotating.
		g.done[g.next] = true
		g.live--
		in.Close()
		g.next = (g.next + 1) % len(g.Ins)
	}
	return io.EOF // all inputs ended; cascade the close
}
