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
// It is a run process (see runLen) built like workload.MergeByTag.
// Heads[i] queues the elements already taken from input i and not yet
// emitted; Ended[i] records that input i has ended. Both ship with a
// migrating process. A Step reloads every empty live queue (blocking,
// as Kahn requires, and then taking only what is buffered), then emits
// the least head for as long as it is decidable, i.e. until some live
// input's queue runs dry, in one write. Equal heads are consumed
// together, so the output order and de-duplication are those of an
// element-at-a-time merge; its limit counts the elements it emits.
type OrderedMerge struct {
	core.Iterative
	Ins []*core.ReadPort
	Out *core.WritePort

	Heads [][]int64
	Ended []bool

	bufs [][runLen]int64 // Heads[i] windows bufs[i] between reloads
	out  [runLen]int64
}

// Step implements core.Stepper.
func (m *OrderedMerge) Step(env *core.Env) error {
	if len(m.Heads) != len(m.Ins) {
		m.Heads = make([][]int64, len(m.Ins))
		m.Ended = make([]bool, len(m.Ins))
	}
	if len(m.bufs) != len(m.Ins) {
		m.bufs = make([][runLen]int64, len(m.Ins))
	}
	for i, in := range m.Ins {
		if len(m.Heads[i]) > 0 || m.Ended[i] {
			continue
		}
		buf := m.bufs[i][:]
		n, err := in.Tokens().ReadInt64s(buf)
		if err == io.EOF {
			m.Ended[i] = true
			continue
		}
		if err != nil {
			return err
		}
		m.Heads[i] = buf[:n]
	}
	out := m.out[:0]
	for k := runOf(&m.Iterative); len(out) < k; {
		v, ok := m.least()
		if !ok {
			break
		}
		for i, h := range m.Heads {
			if len(h) > 0 && h[0] == v {
				m.Heads[i] = h[1:]
			}
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return io.EOF // every input ended and every queue is empty
	}
	if err := m.Out.Tokens().WriteInt64s(out); err != nil {
		return err
	}
	m.Done += int64(len(out))
	return nil
}

// least returns the smallest queued head, or false when that is not
// decidable: a live input's queue is empty (it could still deliver a
// smaller head) or every input is exhausted.
func (m *OrderedMerge) least() (int64, bool) {
	var v int64
	found := false
	for i, h := range m.Heads {
		switch {
		case len(h) > 0:
			if !found || h[0] < v {
				v, found = h[0], true
			}
		case !m.Ended[i]:
			return 0, false
		}
	}
	return v, found
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

	// Next is the lane the next block goes to and Retired marks the
	// lanes whose consumer has gone; both ship with a migrating process.
	Next    int
	Retired []bool

	buf []byte
}

// Step implements core.Stepper.
func (s *Scatter) Step(env *core.Env) error {
	if len(s.Retired) != len(s.Outs) {
		s.Retired = make([]bool, len(s.Outs))
	}
	if live(s.Retired) == 0 {
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
	for live(s.Retired) > 0 {
		for s.Retired[s.Next] {
			s.Next = (s.Next + 1) % len(s.Outs)
		}
		i := s.Next
		s.Next = (s.Next + 1) % len(s.Outs)
		err := s.Outs[i].Tokens().WriteBlock(b)
		if err == nil {
			return nil
		}
		if !core.IsTermination(err) {
			return err
		}
		// This lane's consumer is gone: retire it and redeliver the
		// block to the next live lane.
		s.Retired[i] = true
		s.Outs[i].Close()
	}
	return io.EOF // every lane retired with a block in hand
}

// live counts the lanes not retired.
func live(retired []bool) int {
	n := 0
	for _, r := range retired {
		if !r {
			n++
		}
	}
	return n
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

	// Next is the lane the next block is read from and Retired marks
	// the lanes that have ended; both ship with a migrating process.
	Next    int
	Retired []bool
}

// Step implements core.Stepper. Each step forwards one block.
func (g *Gather) Step(env *core.Env) error {
	if len(g.Retired) != len(g.Ins) {
		g.Retired = make([]bool, len(g.Ins))
	}
	for live(g.Retired) > 0 {
		for g.Retired[g.Next] {
			g.Next = (g.Next + 1) % len(g.Ins)
		}
		in := g.Ins[g.Next]
		b, err := in.Tokens().ReadBlock()
		if err == nil {
			g.Next = (g.Next + 1) % len(g.Ins)
			return g.Out.Tokens().WriteBlock(b)
		}
		if !errors.Is(err, io.EOF) {
			return err // torn block or transport fault: not a clean close
		}
		// This lane ended: retire it and keep rotating.
		g.Retired[g.Next] = true
		in.Close()
		g.Next = (g.Next + 1) % len(g.Ins)
	}
	return io.EOF // all inputs ended; cascade the close
}
