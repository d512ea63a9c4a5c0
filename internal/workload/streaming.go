package workload

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dpn/internal/core"
)

// The streaming-analytics pipeline: generator → shard-by-key →
// per-key tumbling-window reduce → deterministic merge. Records are
// (key, value) pairs moved with the batched token APIs; every reduce
// emission is a (tag, key, sum) triple where the tag is the global
// record index that closed the window. Tags are strictly increasing
// within a shard and unique across shards, so a streaming k-way merge
// ordered by (tag, key) produces one total order regardless of
// scheduling — the Kahn guarantee, made checkable against a
// sequential oracle.

// flushTag orders end-of-stream partial windows after every closed
// window; flush entries share the tag and are disambiguated by key
// (unique, since key→shard assignment is a function).
const flushTag = int64(1) << 62

// streamSpec parameterizes one streaming scenario.
type streamSpec struct {
	records int64
	keys    int64
	window  int64
	shards  int
	batch   int
	float   bool // move values through the float64 batch APIs
}

// splitmix is splitmix64, the generator seeding the record stream.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// genRecord derives record i of the seeded stream: a key and both
// value representations. Float values are multiples of 1/16 below
// 1000, so float sums stay exact and order-independent — determinism
// checks then compare bit patterns, not approximations.
func genRecord(seed, i, keys int64) (key, vi int64, vf float64) {
	k := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*2)
	v := splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*2 + 1)
	key = int64(k % uint64(keys))
	vi = int64(v % 100003)
	vf = float64(v%16000) / 16
	return key, vi, vf
}

// KeyedGen emits the seeded record stream as (key, value) pairs, in
// batches through WriteInt64s (or WriteFloat64s when Float — keys are
// small integers, exact in float64). It stays on the origin node, so
// its cursor needs no export.
type KeyedGen struct {
	Out     *core.WritePort
	Records int64
	Keys    int64
	Seed    int64
	Batch   int
	Float   bool
	Pace    time.Duration

	i    int64
	ibuf []int64
	fbuf []float64
}

// Step implements core.Stepper.
func (g *KeyedGen) Step(env *core.Env) error {
	if g.i >= g.Records {
		return io.EOF
	}
	if g.Pace > 0 {
		time.Sleep(g.Pace)
	}
	batch := int64(g.Batch)
	if batch <= 0 {
		batch = 64
	}
	if rem := g.Records - g.i; batch > rem {
		batch = rem
	}
	w := g.Out.Tokens()
	if g.Float {
		g.fbuf = g.fbuf[:0]
		for j := int64(0); j < batch; j++ {
			key, _, vf := genRecord(g.Seed, g.i+j, g.Keys)
			g.fbuf = append(g.fbuf, float64(key), vf)
		}
		if err := w.WriteFloat64s(g.fbuf); err != nil {
			return err
		}
	} else {
		g.ibuf = g.ibuf[:0]
		for j := int64(0); j < batch; j++ {
			key, vi, _ := genRecord(g.Seed, g.i+j, g.Keys)
			g.ibuf = append(g.ibuf, key, vi)
		}
		if err := w.WriteInt64s(g.ibuf); err != nil {
			return err
		}
	}
	g.i += batch
	return nil
}

// readChunk bounds how many elements the batch processes below take
// per Step: large enough that a full upstream batch moves in one pipe
// operation, small enough to live inside the process struct.
const readChunk = 384

// ShardByKey reads the pair stream in batches, assigns each record its
// global index, and routes (idx, key, valbits) triples to
// Outs[key mod shards]. Reads drain only buffered bytes past the first
// element, so a batch may split a pair — the odd element is carried to
// the next step.
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
		sh := int(key) % len(s.Outs)
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
// The open windows (Sums, Fsums, Counts) and the elements of a triple
// split across two reads (Carry, at most two) ship with the process;
// buf and stage are scratch.
type WindowReduce struct {
	In     *core.ReadPort
	Out    *core.WritePort
	Window int64
	Float  bool

	Sums   map[int64]int64
	Fsums  map[int64]float64
	Counts map[int64]int64
	Carry  []int64

	buf   [readChunk]int64
	stage []int64
}

// Step implements core.Stepper.
func (r *WindowReduce) Step(env *core.Env) error {
	if r.Counts == nil {
		r.Counts = make(map[int64]int64)
		r.Sums = make(map[int64]int64)
		r.Fsums = make(map[int64]float64)
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
		r.Counts[key]++
		if r.Float {
			r.Fsums[key] += math.Float64frombits(uint64(val))
		} else {
			r.Sums[key] += val
		}
		if r.Counts[key] >= r.Window {
			r.stage = append(r.stage, idx, key, r.take(key))
		}
	}
	r.Carry = append(r.Carry[:0], vals...)
	if len(r.stage) > 0 {
		return r.Out.Tokens().WriteInt64s(r.stage)
	}
	return nil
}

// take returns the key's accumulated sum encoding and resets it.
func (r *WindowReduce) take(key int64) int64 {
	var enc int64
	if r.Float {
		enc = int64(math.Float64bits(r.Fsums[key]))
		delete(r.Fsums, key)
	} else {
		enc = r.Sums[key]
		delete(r.Sums, key)
	}
	delete(r.Counts, key)
	return enc
}

// flush emits every partial window sorted by key, then terminates.
func (r *WindowReduce) flush() error {
	keys := make([]int64, 0, len(r.Counts))
	for k, c := range r.Counts {
		if c > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]int64, 0, 3*len(keys))
	for _, k := range keys {
		out = append(out, flushTag, k, r.take(k))
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
	gob.Register(&KeyedGen{})
	gob.Register(&ShardByKey{})
	gob.Register(&WindowReduce{})
	gob.Register(&MergeByTag{})
}

// buildStream wires (without spawning) the full pipeline into n and
// returns each stage, so callers choose their own cut: scenarios ship
// the merge+collector tail, the soak driver ships the middle stages
// and keeps the generator and collector client-side.
func buildStream(n *core.Network, spec streamSpec, seed int64, pace time.Duration) (gen *KeyedGen, shard *ShardByKey, reduces []any, merge *MergeByTag, tail *Collector) {
	const chanCap = 1 << 14
	pairs := n.NewChannel(fmt.Sprintf("wl.pairs.%d", seed), chanCap)
	gen = &KeyedGen{
		Out: pairs.Writer(), Records: spec.records, Keys: spec.keys,
		Seed: seed, Batch: spec.batch, Float: spec.float, Pace: pace,
	}
	shard = &ShardByKey{In: pairs.Reader(), Float: spec.float}
	merge = &MergeByTag{}
	for s := 0; s < spec.shards; s++ {
		byKey := n.NewChannel(fmt.Sprintf("wl.shard%d.%d", s, seed), chanCap)
		windows := n.NewChannel(fmt.Sprintf("wl.win%d.%d", s, seed), chanCap)
		shard.Outs = append(shard.Outs, byKey.Writer())
		reduces = append(reduces, &WindowReduce{
			In: byKey.Reader(), Out: windows.Writer(),
			Window: spec.window, Float: spec.float,
		})
		merge.Ins = append(merge.Ins, windows.Reader())
	}
	merged := n.NewChannel(fmt.Sprintf("wl.merged.%d", seed), chanCap)
	merge.Out = merged.Writer()
	tail = &Collector{In: merged.Reader()}
	return gen, shard, reduces, merge, tail
}

// streamOracle replays the pipeline sequentially: global per-key
// window state in record order (key→shard assignment is a function of
// the key, so per-shard and global replay close identical windows),
// closes in index order, flushes sorted by key.
func streamOracle(spec streamSpec, seed int64) []int64 {
	sums := make(map[int64]int64)
	fsums := make(map[int64]float64)
	counts := make(map[int64]int64)
	var out []int64
	for i := int64(0); i < spec.records; i++ {
		key, vi, vf := genRecord(seed, i, spec.keys)
		counts[key]++
		if spec.float {
			fsums[key] += vf
		} else {
			sums[key] += vi
		}
		if counts[key] >= spec.window {
			var enc int64
			if spec.float {
				enc = int64(math.Float64bits(fsums[key]))
				delete(fsums, key)
			} else {
				enc = sums[key]
				delete(sums, key)
			}
			delete(counts, key)
			out = append(out, i, key, enc)
		}
	}
	keys := make([]int64, 0, len(counts))
	for k, c := range counts {
		if c > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		var enc int64
		if spec.float {
			enc = int64(math.Float64bits(fsums[k]))
		} else {
			enc = sums[k]
		}
		out = append(out, flushTag, k, enc)
	}
	return out
}

// Streaming constructs the scenario form of the pipeline: Build spawns
// generator, shard, and reduces on the origin network; the cut is the
// merge plus collector, so under distributed deployments every
// reduce→merge channel crosses the wire.
func Streaming(name string, spec streamSpec) Scenario {
	return Scenario{
		Name: name,
		Build: func(seed int64, pace time.Duration, n *core.Network) *Graph {
			gen, shard, reduces, merge, tail := buildStream(n, spec, seed, pace)
			n.Spawn(gen)
			n.Spawn(shard)
			for _, r := range reduces {
				n.Spawn(r)
			}
			return &Graph{Cut: []any{merge, tail}, Tail: tail}
		},
		Oracle: func(seed int64) []int64 { return streamOracle(spec, seed) },
	}
}
