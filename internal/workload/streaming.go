// Package workload holds the process types of the streaming-analytics
// pipeline, the stages a graph ships to a compute server: ShardByKey
// routes (key, value) records to shards, WindowReduce closes per-key
// tumbling windows, and MergeByTag merges the shards' emissions into
// one deterministic order. Every reduce emission is a (tag, key, sum)
// triple whose tag is the global record index that closed the window.
// Tags are strictly increasing within a shard and unique across
// shards, so the merge ordered by (tag, key) produces one total order
// regardless of scheduling — the Kahn guarantee, checkable against a
// sequential oracle. The stages are registered with gob here, so every
// binary that links the package can run them.
//
// The package's tests hold the scenario suite that verifies them: the
// generator and the oracles, a growing sieve, a graph-shape fuzzer,
// the many-client soak and the kill-restart harness.
package workload

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"

	"dpn/internal/core"
)

// flushTag orders end-of-stream partial windows after every closed
// window; flush entries share the tag and are disambiguated by key
// (unique, since key→shard assignment is a function).
const flushTag = int64(1) << 62

// readChunk bounds how many elements the batch processes below take
// per Step: large enough that a full upstream batch moves in one pipe
// operation, small enough to live inside the process struct.
const readChunk = 384

// ShardByKey reads the pair stream in batches, assigns each record its
// global index, and routes (idx, key, valbits) triples to
// Outs[key mod shards], the residue taken non-negative so a negative
// key routes like any other. Reads drain only buffered bytes past the
// first element, so a batch may split a pair — the odd element is
// carried to the next step.
//
// Idx, Carry and Have are the process's position in the stream and ship
// with it; buf and stage are scratch, empty at every step boundary.
type ShardByKey struct {
	In    *core.ReadPort
	Outs  []*core.WritePort
	Float bool

	Idx   int64
	Carry int64
	Have  bool

	buf   [readChunk]int64
	stage [][]int64
}

// Step implements core.Stepper.
func (s *ShardByKey) Step(env *core.Env) error {
	if s.stage == nil {
		s.stage = make([][]int64, len(s.Outs))
	}
	// Float streams are read as raw IEEE-754 bits: values travel as
	// bits from here on anyway, so no precision is created or lost, and
	// only the key (a small integer, exact in float64) is decoded.
	n, err := s.In.Tokens().ReadInt64s(s.buf[:])
	if err != nil {
		return err
	}
	for _, v := range s.buf[:n] {
		if !s.Have {
			s.Carry, s.Have = v, true
			continue
		}
		key, val := s.Carry, v
		s.Have = false
		if s.Float {
			key = int64(math.Float64frombits(uint64(key)))
		}
		sh := int(key % int64(len(s.Outs)))
		if sh < 0 {
			sh += len(s.Outs)
		}
		s.stage[sh] = append(s.stage[sh], s.Idx, key, val)
		s.Idx++
	}
	for sh, st := range s.stage {
		if len(st) == 0 {
			continue
		}
		if err := s.Outs[sh].Tokens().WriteInt64s(st); err != nil {
			return err
		}
		s.stage[sh] = st[:0]
	}
	return nil
}

// WindowReduce keeps per-key running sums and emits (closeIdx, key,
// sum) when a key's tumbling window fills. At end of stream it flushes
// the partial windows, ordered by key under the shared flushTag.
//
// Open holds one slot per key seen: a record costs one lookup, and a
// key's first record is its only insert. A window that closes resets
// its slot in place, so a slot with Count 0 has no open window. The
// slots and the elements of a triple split across two reads (Carry, at
// most two) ship with the process; buf and stage are scratch.
type WindowReduce struct {
	In     *core.ReadPort
	Out    *core.WritePort
	Window int64
	Float  bool

	Open  map[int64]*Window
	Carry []int64

	buf   [readChunk]int64
	stage []int64
}

// Window is one key's open window: its record count and running sum,
// integer or float as the stream is.
type Window struct {
	Count int64
	Sum   int64
	Fsum  float64
}

// take returns the window's sum encoding and resets the slot.
func (w *Window) take(float bool) int64 {
	enc := w.Sum
	if float {
		enc = int64(math.Float64bits(w.Fsum))
	}
	*w = Window{}
	return enc
}

// Step implements core.Stepper.
func (r *WindowReduce) Step(env *core.Env) error {
	if r.Open == nil {
		r.Open = make(map[int64]*Window)
	}
	have := copy(r.buf[:], r.Carry)
	n, err := r.In.Tokens().ReadInt64s(r.buf[have:])
	if err != nil {
		if err == io.EOF {
			return r.flush()
		}
		return err
	}
	vals := r.buf[:have+n]
	r.stage = r.stage[:0]
	for ; len(vals) >= 3; vals = vals[3:] {
		idx, key, val := vals[0], vals[1], vals[2]
		w := r.Open[key]
		if w == nil {
			w = &Window{}
			r.Open[key] = w
		}
		w.Count++
		if r.Float {
			w.Fsum += math.Float64frombits(uint64(val))
		} else {
			w.Sum += val
		}
		if w.Count >= r.Window {
			r.stage = append(r.stage, idx, key, w.take(r.Float))
		}
	}
	r.Carry = append(r.Carry[:0], vals...)
	if len(r.stage) > 0 {
		return r.Out.Tokens().WriteInt64s(r.stage)
	}
	return nil
}

// flush emits every partial window sorted by key, then terminates.
func (r *WindowReduce) flush() error {
	keys := make([]int64, 0, len(r.Open))
	for k, w := range r.Open {
		if w.Count > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]int64, 0, 3*len(keys))
	for _, k := range keys {
		out = append(out, flushTag, k, r.Open[k].take(r.Float))
	}
	if len(out) > 0 {
		if err := r.Out.Tokens().WriteInt64s(out); err != nil {
			return err
		}
	}
	return io.EOF
}

// MergeByTag is the streaming k-way merge: it repeatedly emits the
// head triple with the least (tag, key) among its inputs. Within each
// input tags ascend, so the output is the globally sorted sequence —
// one deterministic total order over the whole pipeline's emissions.
//
// Heads[i] queues the whole triples already taken from input i and not
// yet emitted; Done[i] records that input i has ended. Both ship with
// the process. A Step loads every empty queue (blocking, as Kahn
// requires), then emits heads for as long as the least one is
// decidable, i.e. until some live input's queue runs dry — in one
// write. The order is that of a triple-at-a-time merge.
type MergeByTag struct {
	Ins []*core.ReadPort
	Out *core.WritePort

	Heads [][]int64
	Done  []bool

	bufs  [][]int64 // Heads[i] windows bufs[i] between reloads
	stage []int64
}

// Step implements core.Stepper.
func (m *MergeByTag) Step(env *core.Env) error {
	if len(m.Heads) != len(m.Ins) {
		m.Heads = make([][]int64, len(m.Ins))
		m.Done = make([]bool, len(m.Ins))
	}
	for i := range m.Ins {
		if len(m.Heads[i]) == 0 && !m.Done[i] {
			if err := m.reload(i); err != nil {
				return err
			}
		}
	}
	m.stage = m.stage[:0]
	for best := m.least(); best >= 0; best = m.least() {
		m.stage = append(m.stage, m.Heads[best][:3]...)
		m.Heads[best] = m.Heads[best][3:]
	}
	if len(m.stage) == 0 {
		return io.EOF // every input ended and every queue is empty
	}
	return m.Out.Tokens().WriteInt64s(m.stage)
}

// least returns the input whose queued head is smallest, or -1 when
// that is not decidable: a live input's queue is empty (it could still
// deliver a smaller head) or every input is exhausted.
func (m *MergeByTag) least() int {
	best := -1
	for i, h := range m.Heads {
		switch {
		case len(h) > 0:
			if best < 0 || less(h, m.Heads[best]) {
				best = i
			}
		case !m.Done[i]:
			return -1
		}
	}
	return best
}

func less(a, b []int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// reload refills input i's empty queue with the whole triples that can
// be had for one blocking read: the first element blocks, the rest are
// whatever the channel already holds, and a triple the drain split is
// completed. EOF at a triple boundary retires the input.
func (m *MergeByTag) reload(i int) error {
	if m.bufs == nil {
		m.bufs = make([][]int64, len(m.Ins))
	}
	if m.bufs[i] == nil {
		m.bufs[i] = make([]int64, readChunk)
	}
	buf, rd := m.bufs[i], m.Ins[i].Tokens()
	n, err := rd.ReadInt64s(buf)
	if err == io.EOF {
		m.Done[i] = true
		return nil
	}
	for err == nil && n%3 != 0 {
		var k int
		k, err = rd.ReadInt64s(buf[n : n+3-n%3])
		n += k
	}
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("merge input %d: truncated triple: %w", i, io.ErrUnexpectedEOF)
		}
		return err
	}
	m.Heads[i] = buf[:n]
	return nil
}

func init() {
	gob.Register(&ShardByKey{})
	gob.Register(&WindowReduce{})
	gob.Register(&MergeByTag{})
}
