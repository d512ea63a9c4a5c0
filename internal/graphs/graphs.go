// Package graphs builds the program graphs used throughout the paper:
// the Fibonacci network (Figures 2 and 6), the Sieve of Eratosthenes
// (Figures 7 and 8), Newton's square-root network (Figure 11), and the
// Hamming 2^k·3^m·5^n network (Figure 12). Examples, tests, and the
// benchmark harness all construct their graphs here so the wiring is
// written once.
package graphs

import (
	"dpn/internal/core"
	"dpn/internal/proclib"
)

// Fibonacci wires the network of Figure 6 into n and returns the
// collector that receives the first `count` Fibonacci numbers
// (1, 1, 2, 3, 5, …). If selfRemovingCons is set, the two Cons
// processes splice themselves out of the graph after delivering their
// head elements (Figure 9), exercising run-time reconfiguration.
func Fibonacci(n *core.Network, count int64, selfRemovingCons bool) *proclib.Collect {
	// Channel names follow Figure 6.
	ab := n.NewChannel("ab", 0)
	be := n.NewChannel("be", 0)
	cd := n.NewChannel("cd", 0)
	df := n.NewChannel("df", 0)
	ed := n.NewChannel("ed", 0)
	eg := n.NewChannel("eg", 0)
	fg := n.NewChannel("fg", 0)
	fh := n.NewChannel("fh", 0)
	gb := n.NewChannel("gb", 0)

	one1 := &proclib.Constant{Value: 1, Out: ab.Writer()}
	one1.Iterations = 1
	n.Spawn(one1)
	n.Spawn(&proclib.Cons{HeadIn: ab.Reader(), In: gb.Reader(), Out: be.Writer(), SelfRemove: selfRemovingCons})
	n.Spawn(&proclib.Duplicate{In: be.Reader(), Outs: []*core.WritePort{ed.Writer(), eg.Writer()}})
	n.Spawn(&proclib.Add{InA: eg.Reader(), InB: fg.Reader(), Out: gb.Writer()})
	one2 := &proclib.Constant{Value: 1, Out: cd.Writer()}
	one2.Iterations = 1
	n.Spawn(one2)
	n.Spawn(&proclib.Cons{HeadIn: cd.Reader(), In: ed.Reader(), Out: df.Writer(), SelfRemove: selfRemovingCons})
	n.Spawn(&proclib.Duplicate{In: df.Reader(), Outs: []*core.WritePort{fh.Writer(), fg.Writer()}})
	sink := &proclib.Collect{In: fh.Reader()}
	sink.Iterations = count
	n.Spawn(sink)
	return sink
}

// SieveMode selects the self-modification style of the sieve.
type SieveMode int

const (
	// SieveIterative uses the Sift of Figure 8, which stays in the graph
	// and inserts Modulo processes upstream of itself.
	SieveIterative SieveMode = iota
	// SieveRecursive uses the Sift of Figure 7, which replaces itself
	// with a Modulo process and a fresh Sift.
	SieveRecursive
)

// SieveBounded wires the Sieve of Eratosthenes to compute all primes
// less than limit: the integer source has the iteration limit, and the
// collector drains until the cascade of closings reaches it (§3.4,
// "compute all prime numbers less than 100").
func SieveBounded(n *core.Network, limit int64, mode SieveMode) *proclib.Collect {
	src := n.NewChannel("ints", 0)
	out := n.NewChannel("primes", 0)
	seq := &proclib.Sequence{From: 2, Stride: 1, Out: src.Writer()}
	seq.Iterations = limit - 2 // integers 2..limit-1
	n.Spawn(seq)
	spawnSift(n, mode, src, out)
	sink := &proclib.Collect{In: out.Reader()}
	n.Spawn(sink)
	return sink
}

// SieveFirstN wires the sieve to compute the first `count` primes: the
// integer source is unbounded and the *collector* carries the iteration
// limit; its stopping poisons the chain upstream (§3.4, "compute the
// first 100 prime numbers"). The runtime's cut (core/cut.go) closes
// every filter's input, and so the source's output, as soon as the
// collector closes, instead of each stage learning it only when its
// next surviving element reaches it.
func SieveFirstN(n *core.Network, count int64, mode SieveMode) *proclib.Collect {
	src := n.NewChannel("ints", 0)
	out := n.NewChannel("primes", 0)
	n.Spawn(&proclib.Sequence{From: 2, Stride: 1, Out: src.Writer()})
	spawnSift(n, mode, src, out)
	sink := &proclib.Collect{In: out.Reader()}
	sink.Iterations = count
	n.Spawn(sink)
	return sink
}

func spawnSift(n *core.Network, mode SieveMode, src, out *core.Channel) {
	switch mode {
	case SieveRecursive:
		n.Spawn(&proclib.SiftRecursive{In: src.Reader(), Out: out.Writer()})
	default:
		n.Spawn(&proclib.Sift{In: src.Reader(), Out: out.Writer()})
	}
}

// Hamming wires the network of Figure 12, producing the ascending
// sequence of integers of the form 2^k·3^m·5^n (1, 2, 3, 4, 5, 6, 8,
// …) into the returned collector, which stops after `count` elements.
// The graph is unbounded: each merged element fans out to three Scale
// processes, so channel demand grows without limit and, with bounded
// buffers, the graph eventually deadlocks unless a deadlock monitor
// grows the buffers (§3.5). capacity sets the initial channel capacity
// in bytes; pass 0 for the network default.
func Hamming(n *core.Network, count int64, capacity int) *proclib.Collect {
	seed := n.NewChannel("seed", capacity)
	merged := n.NewChannel("merged", capacity)
	out := n.NewChannel("out", capacity)
	loop := n.NewChannel("loop", capacity)
	d2 := n.NewChannel("d2", capacity)
	d3 := n.NewChannel("d3", capacity)
	d5 := n.NewChannel("d5", capacity)
	s2 := n.NewChannel("s2", capacity)
	s3 := n.NewChannel("s3", capacity)
	s5 := n.NewChannel("s5", capacity)

	// out = cons(1, merge(scale2(out), scale3(out), scale5(out)))
	one := &proclib.Constant{Value: 1, Out: seed.Writer()}
	one.Iterations = 1
	n.Spawn(one)
	n.Spawn(&proclib.Cons{HeadIn: seed.Reader(), In: merged.Reader(), Out: out.Writer()})
	n.Spawn(&proclib.Duplicate{In: out.Reader(), Outs: []*core.WritePort{
		loop.Writer(), d2.Writer(),
	}})
	n.Spawn(&proclib.Duplicate{In: d2.Reader(), Outs: []*core.WritePort{
		d3.Writer(), d5.Writer(),
	}})
	n.Spawn(&proclib.Scale{Factor: 2, In: d3.Reader(), Out: s2.Writer()})
	n.Spawn(&proclib.Scale{Factor: 3, In: d5.Reader(), Out: s3.Writer()})
	// The third scale taps the loop channel through a second duplicate.
	d5b := n.NewChannel("d5b", capacity)
	sinkIn := n.NewChannel("sinkIn", capacity)
	n.Spawn(&proclib.Duplicate{In: loop.Reader(), Outs: []*core.WritePort{
		d5b.Writer(), sinkIn.Writer(),
	}})
	n.Spawn(&proclib.Scale{Factor: 5, In: d5b.Reader(), Out: s5.Writer()})
	n.Spawn(&proclib.OrderedMerge{
		Ins: []*core.ReadPort{s2.Reader(), s3.Reader(), s5.Reader()},
		Out: merged.Writer(),
	})
	sink := &proclib.Collect{In: sinkIn.Reader()}
	sink.Iterations = count
	n.Spawn(sink)
	return sink
}

// Sqrt wires Newton's square-root network of Figure 11 for input x with
// initial estimate r0, returning the collector that receives the single
// converged result. The loop refines r ← (x/r + r)/2 until two
// successive estimates are bit-identical; Equal then emits true, Guard
// passes the estimate once and stops, and the cascade tears the rest of
// the network down.
func Sqrt(n *core.Network, x, r0 float64) *proclib.CollectFloat {
	// x fan-out: the Divide process needs x every iteration.
	xs := n.NewChannel("xs", 0)
	n.Spawn(&proclib.ConstantFloat{Value: x, Out: xs.Writer()})

	seed := n.NewChannel("seed", 0)
	rIn := n.NewChannel("rIn", 0)   // cons(r0, next) — current estimate r_{n-1}
	rDup := n.NewChannel("rDup", 0) // estimate copies
	toDiv := n.NewChannel("toDiv", 0)
	toAvg := n.NewChannel("toAvg", 0)
	toEqA := n.NewChannel("toEqA", 0)
	quot := n.NewChannel("quot", 0)   // x / r
	next := n.NewChannel("next", 0)   // r_n = (x/r + r)/2
	nextD := n.NewChannel("nextD", 0) // next estimate copies
	toEqB := n.NewChannel("toEqB", 0) // r_n for convergence test
	toGrd := n.NewChannel("toGrd", 0) // r_n data into the guard
	toLoop := n.NewChannel("toLoop", 0)
	ctl := n.NewChannel("ctl", 0) // bool convergence stream
	res := n.NewChannel("res", 0)

	one := &proclib.ConstantFloat{Value: r0, Out: seed.Writer()}
	one.Iterations = 1
	n.Spawn(one)
	n.Spawn(&proclib.Cons{HeadIn: seed.Reader(), In: toLoop.Reader(), Out: rIn.Writer()})
	n.Spawn(&proclib.Duplicate{In: rIn.Reader(), Outs: []*core.WritePort{rDup.Writer(), toDiv.Writer()}})
	n.Spawn(&proclib.Duplicate{In: rDup.Reader(), Outs: []*core.WritePort{toAvg.Writer(), toEqA.Writer()}})
	n.Spawn(&proclib.Divide{InA: xs.Reader(), InB: toDiv.Reader(), Out: quot.Writer()})
	n.Spawn(&proclib.Average{InA: quot.Reader(), InB: toAvg.Reader(), Out: next.Writer()})
	n.Spawn(&proclib.Duplicate{In: next.Reader(), Outs: []*core.WritePort{nextD.Writer(), toLoop.Writer()}})
	n.Spawn(&proclib.Duplicate{In: nextD.Reader(), Outs: []*core.WritePort{toEqB.Writer(), toGrd.Writer()}})
	n.Spawn(&proclib.Equal{InA: toEqA.Reader(), InB: toEqB.Reader(), Out: ctl.Writer()})
	n.Spawn(&proclib.Guard{In: toGrd.Reader(), Control: ctl.Reader(), Out: res.Writer(), StopAfterPass: true})
	sink := &proclib.CollectFloat{In: res.Reader()}
	n.Spawn(sink)
	return sink
}
