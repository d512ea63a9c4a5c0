package workload

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
)

// The graph-shape fuzzer: seed-replayable random DAG topologies —
// varying source counts, fan-in (Add), fan-out (Duplicate), depth
// (Scale/PassThrough layers), and per-channel buffer bounds — run to
// quiescence and checked against a pure-Go evaluation of the same
// plan. Every operator is length-preserving and the final Interleave
// reads to EOF, so termination is a single downward cascade and the
// output is one deterministic sequence. Channel capacities are
// randomized but never below the full stream size, which rules out
// artificial (buffer-induced) deadlock by construction: quiescence is
// guaranteed, only the computed sequence is at stake.

const (
	opScale = iota
	opPass
	opAdd
	opDup
)

// fuzzOp transforms the ordered working set of streams: Scale/Pass
// replace stream A; Add folds streams A and B (A < B) into one; Dup
// replaces A with two copies. Cap is the operator's output-channel
// capacity in bytes.
type fuzzOp struct {
	Kind   int
	A, B   int
	Factor int64
	// Cap (and Cap2 for Dup's second branch) are output-channel
	// capacities in bytes.
	Cap, Cap2 int
}

// FuzzPlan is one seeded topology. Plans are value-replayable: the
// same seed regenerates the same plan, graph, and oracle.
type FuzzPlan struct {
	Seed    int64
	Len     int64 // every stream carries exactly Len elements
	Sources int
	Ops     []fuzzOp
}

// NewFuzzPlan derives a plan from the seed.
func NewFuzzPlan(seed int64) *FuzzPlan {
	r := rand.New(rand.NewSource(seed))
	p := &FuzzPlan{
		Seed:    seed,
		Len:     48 + r.Int63n(80),
		Sources: 2 + r.Intn(3),
	}
	minCap := int(p.Len * 8)
	streams := p.Sources
	depth := 4 + r.Intn(6)
	for i := 0; i < depth; i++ {
		op := fuzzOp{Cap: minCap * (1 + r.Intn(4))}
		switch k := r.Intn(4); {
		case k == opAdd && streams >= 2:
			op.Kind = opAdd
			op.A = r.Intn(streams - 1)
			op.B = op.A + 1 + r.Intn(streams-op.A-1)
			streams--
		case k == opDup && streams < 8:
			op.Kind = opDup
			op.A = r.Intn(streams)
			op.Cap2 = minCap * (1 + r.Intn(4))
			streams++
		case k == opScale:
			op.Kind = opScale
			op.A = r.Intn(streams)
			op.Factor = 2 + r.Int63n(7)
		default:
			op.Kind = opPass
			op.A = r.Intn(streams)
		}
		p.Ops = append(p.Ops, op)
	}
	return p
}

// fuzzVal is element j of source stream i under the plan seed.
func fuzzVal(seed int64, i, j int64) int64 {
	return int64(splitmix(uint64(seed)^uint64(i)<<32^uint64(j)) % 1_000_003)
}

// FuzzSource emits the seeded stream for one source index.
type FuzzSource struct {
	Seed  int64
	Idx   int64
	N     int64
	Every time.Duration
	Out   *core.WritePort

	j int64
}

// Step implements core.Stepper.
func (s *FuzzSource) Step(env *core.Env) error {
	if s.j >= s.N {
		return io.EOF
	}
	if s.Every > 0 {
		time.Sleep(s.Every)
	}
	v := fuzzVal(s.Seed, s.Idx, s.j)
	s.j++
	return s.Out.Tokens().WriteInt64(v)
}

// Interleave round-robins one element from each input into Out. With
// equal-length inputs the first EOF arrives on input 0 at a round
// boundary, so the output is exactly the row-major interleaving.
type Interleave struct {
	Ins []*core.ReadPort
	Out *core.WritePort

	next int
}

// Step implements core.Stepper.
func (il *Interleave) Step(env *core.Env) error {
	v, err := il.Ins[il.next].Tokens().ReadInt64()
	if err != nil {
		return err
	}
	il.next = (il.next + 1) % len(il.Ins)
	return il.Out.Tokens().WriteInt64(v)
}

func init() {
	gob.Register(&FuzzSource{})
	gob.Register(&Interleave{})
}

// Scenario wraps the plan as a self-checking workload scenario. The
// cut is the interleave plus collector, so under TCP every surviving
// stream crosses the wire as its own channel (fan-in rendezvous).
func (p *FuzzPlan) Scenario() Scenario {
	return Scenario{
		Name: fmt.Sprintf("fuzz-%d", p.Seed),
		Build: func(seed int64, pace time.Duration, n *core.Network) *Graph {
			minCap := int(p.Len * 8)
			streams := make([]*core.ReadPort, 0, 8)
			for i := 0; i < p.Sources; i++ {
				ch := n.NewChannel(fmt.Sprintf("wl.fz.src%d", i), minCap*2)
				n.Spawn(&FuzzSource{Seed: p.Seed, Idx: int64(i), N: p.Len, Every: pace, Out: ch.Writer()})
				streams = append(streams, ch.Reader())
			}
			for oi, op := range p.Ops {
				mk := func(capBytes int) *core.Channel {
					return n.NewChannel(fmt.Sprintf("wl.fz.op%d", oi), capBytes)
				}
				switch op.Kind {
				case opScale:
					out := mk(op.Cap)
					n.Spawn(&proclib.Scale{Factor: op.Factor, In: streams[op.A], Out: out.Writer()})
					streams[op.A] = out.Reader()
				case opPass:
					out := mk(op.Cap)
					n.Spawn(&proclib.PassThrough{In: streams[op.A], Out: out.Writer()})
					streams[op.A] = out.Reader()
				case opAdd:
					out := mk(op.Cap)
					n.Spawn(&proclib.Add{InA: streams[op.A], InB: streams[op.B], Out: out.Writer()})
					streams[op.A] = out.Reader()
					streams = append(streams[:op.B], streams[op.B+1:]...)
				case opDup:
					o1, o2 := mk(op.Cap), n.NewChannel(fmt.Sprintf("wl.fz.op%db", oi), op.Cap2)
					n.Spawn(&proclib.Duplicate{In: streams[op.A], Outs: []*core.WritePort{o1.Writer(), o2.Writer()}})
					streams[op.A] = o1.Reader()
					streams = append(streams, o2.Reader())
				}
			}
			out := n.NewChannel("wl.fz.out", minCap*len(streams)+4096)
			il := &Interleave{Ins: streams, Out: out.Writer()}
			tail := &Collector{In: out.Reader()}
			return &Graph{Cut: []any{il, tail}, Tail: tail}
		},
		Oracle: func(seed int64) []int64 { return p.Eval() },
	}
}

// Eval computes the plan's expected output sequentially.
func (p *FuzzPlan) Eval() []int64 {
	streams := make([][]int64, 0, 8)
	for i := 0; i < p.Sources; i++ {
		s := make([]int64, p.Len)
		for j := range s {
			s[j] = fuzzVal(p.Seed, int64(i), int64(j))
		}
		streams = append(streams, s)
	}
	for _, op := range p.Ops {
		switch op.Kind {
		case opScale:
			s := streams[op.A]
			out := make([]int64, len(s))
			for j, v := range s {
				out[j] = v * op.Factor
			}
			streams[op.A] = out
		case opPass:
			// identity
		case opAdd:
			a, b := streams[op.A], streams[op.B]
			out := make([]int64, len(a))
			for j := range a {
				out[j] = a[j] + b[j]
			}
			streams[op.A] = out
			streams = append(streams[:op.B], streams[op.B+1:]...)
		case opDup:
			streams = append(streams, streams[op.A])
		}
	}
	out := make([]int64, 0, p.Len*int64(len(streams)))
	for j := int64(0); j < p.Len; j++ {
		for _, s := range streams {
			out = append(out, s[j])
		}
	}
	return out
}
