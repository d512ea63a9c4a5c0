package workload

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
)

// The graph-shape fuzzer: seed-replayable random DAG topologies —
// varying source counts, fan-in (Add), fan-out (Duplicate), depth
// (Scale/PassThrough layers), and per-channel buffer bounds — run to
// quiescence and checked against a pure-Go evaluation of the same
// plan. Every operator is length-preserving and the final interleave
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

// fuzzPlan is one seeded topology. Plans are value-replayable: the
// same seed regenerates the same plan, graph, and oracle.
type fuzzPlan struct {
	Seed    int64
	Len     int64 // every stream carries exactly Len elements
	Sources int
	Ops     []fuzzOp
}

// newFuzzPlan derives a plan from the seed.
func newFuzzPlan(seed int64) *fuzzPlan {
	r := rand.New(rand.NewSource(seed))
	p := &fuzzPlan{
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

// fuzzSource emits the seeded stream for one source index.
type fuzzSource struct {
	Seed  int64
	Idx   int64
	N     int64
	Every time.Duration
	Out   *core.WritePort

	j int64
}

// Step implements core.Stepper.
func (s *fuzzSource) Step(env *core.Env) error {
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

// interleave round-robins one element from each input into Out. With
// equal-length inputs the first EOF arrives on input 0 at a round
// boundary, so the output is exactly the row-major interleaving.
type interleave struct {
	Ins []*core.ReadPort
	Out *core.WritePort

	next int
}

// Step implements core.Stepper.
func (il *interleave) Step(env *core.Env) error {
	v, err := il.Ins[il.next].Tokens().ReadInt64()
	if err != nil {
		return err
	}
	il.next = (il.next + 1) % len(il.Ins)
	return il.Out.Tokens().WriteInt64(v)
}

func init() {
	gob.Register(&fuzzSource{})
	gob.Register(&interleave{})
}

// asScenario wraps the plan as a self-checking workload scenario. The
// cut is the interleave plus collector, so under TCP every surviving
// stream crosses the wire as its own channel (fan-in rendezvous).
func (p *fuzzPlan) asScenario() scenario {
	return scenario{
		Name: fmt.Sprintf("fuzz-%d", p.Seed),
		Build: func(seed int64, pace time.Duration, n *core.Network) *graph {
			minCap := int(p.Len * 8)
			streams := make([]*core.ReadPort, 0, 8)
			for i := 0; i < p.Sources; i++ {
				ch := n.NewChannel(fmt.Sprintf("wl.fz.src%d", i), minCap*2)
				n.Spawn(&fuzzSource{Seed: p.Seed, Idx: int64(i), N: p.Len, Every: pace, Out: ch.Writer()})
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
			il := &interleave{Ins: streams, Out: out.Writer()}
			tail := &collector{In: out.Reader()}
			return &graph{Cut: []any{il, tail}, Tail: tail}
		},
		Oracle: func(seed int64) []int64 { return p.eval() },
	}
}

// eval computes the plan's expected output sequentially.
func (p *fuzzPlan) eval() []int64 {
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

// TestGraphFuzzLoopbackVsTCP generates seed-replayable random DAG
// topologies, runs each to quiescence on one network and again with
// the interleave/collector tail exported over TCP, and asserts both
// match the plan's pure-Go evaluation — with no goroutine left behind.
// A failure names the exact seed; WORKLOAD_SEED replays it.
func TestGraphFuzzLoopbackVsTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("graph fuzzing in -short mode")
	}
	base := workloadSeed(t, 1715)
	rounds := int64(6)
	baseline := runtime.NumGoroutine()
	for s := base; s < base+rounds; s++ {
		plan := newFuzzPlan(s)
		sc := plan.asScenario()
		t.Logf("workload seed %d: %d sources, %d ops, len %d", s, plan.Sources, len(plan.Ops), plan.Len)
		for _, d := range []deployment{deployLoopback, deployTCP} {
			if err := check(sc, s, d, runOptions{}); err != nil {
				t.Fatalf("replay with WORKLOAD_SEED=%d: %v", s, err)
			}
		}
	}
	settled(t, baseline)
}

// TestGraphFuzzChaos folds the fuzzer's plan space into the chaos
// gate (the ROADMAP leftover from PR 7): random DAG topologies run
// over TCP with seeded latency/jitter/drop fault injection and
// resilient, compressed links, and every one must still match the
// plan's pure-Go oracle byte for byte. A failure names the exact
// seed; WORKLOAD_SEED replays it.
func TestGraphFuzzChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("graph fuzzing in -short mode")
	}
	base := workloadSeed(t, 9091)
	rounds := int64(4)
	baseline := runtime.NumGoroutine()
	for s := base; s < base+rounds; s++ {
		plan := newFuzzPlan(s)
		sc := plan.asScenario()
		t.Logf("workload seed %d: %d sources, %d ops, len %d", s, plan.Sources, len(plan.Ops), plan.Len)
		if err := check(sc, s, deployChaos, deployOptions(deployChaos, s)); err != nil {
			t.Fatalf("replay with WORKLOAD_SEED=%d: %v", s, err)
		}
	}
	settled(t, baseline)
}

// TestFuzzPlanReplay: the same seed must regenerate an identical plan
// and oracle — the property the replay workflow rests on.
func TestFuzzPlanReplay(t *testing.T) {
	seed := workloadSeed(t, 40291)
	a, b := newFuzzPlan(seed), newFuzzPlan(seed)
	if a.Len != b.Len || a.Sources != b.Sources || len(a.Ops) != len(b.Ops) {
		t.Fatalf("plan shape not replayable: %+v vs %+v", a, b)
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	if err := equal(a.eval(), b.eval()); err != nil {
		t.Fatalf("oracle not replayable: %v", err)
	}
}
