package proclib

import (
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"dpn/internal/core"
)

// filled returns the read end of a channel of n holding vs, closed.
func filled(t *testing.T, n *core.Network, name string, vs []int64) *core.ReadPort {
	t.Helper()
	ch := n.NewChannel(name, len(vs)*8+8)
	if err := ch.Writer().Tokens().WriteInt64s(vs); err != nil {
		t.Fatal(err)
	}
	ch.Writer().Close()
	return ch.Reader()
}

func ints(from, stride int64, n int) []int64 {
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = from + int64(i)*stride
	}
	return vs
}

// tokens scrapes the elements counted on one end of a channel.
func tokens(n *core.Network, channel, op string) int64 {
	var sum int64
	for _, s := range n.Obs().Registry().Samples() {
		if s.Name == "dpn_conduit_tokens_total" && s.Label("channel") == channel && s.Label("op") == op {
			sum += s.Value
		}
	}
	return sum
}

// TestRunProcessesHonourElementLimits: a run process moves many
// elements per Step, but its iteration limit still counts elements. Each
// process gets a limit of 77 (not a multiple of runLen) on a channel
// holding more, and must move exactly 77 — counted by the channel's own
// token counter, not by the process.
func TestRunProcessesHonourElementLimits(t *testing.T) {
	const held = 200
	lim := core.Iterative{Iterations: 77}
	cases := []struct {
		name    string
		build   func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper
		channel string // where the limit is counted
		op      string
	}{
		{"Sequence", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			return &Sequence{Iterative: lim, From: 1, Out: out}
		}, "out", "write"},
		{"Scale", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			return &Scale{Iterative: lim, Factor: 2, In: filled(t, n, "in", ints(1, 1, held)), Out: out}
		}, "in", "read"},
		{"Modulo", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			return &Modulo{Iterative: lim, P: 3, In: filled(t, n, "in", ints(1, 1, held)), Out: out}
		}, "in", "read"},
		{"OrderedMerge", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			return &OrderedMerge{Iterative: lim, Ins: []*core.ReadPort{
				filled(t, n, "in2", ints(2, 2, held)),
				filled(t, n, "in3", ints(3, 3, held)),
				filled(t, n, "in5", ints(5, 5, held)),
			}, Out: out}
		}, "out", "write"},
		{"Collect", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			out.Close() // a sink: nothing to drain
			return &Collect{Iterative: lim, In: filled(t, n, "in", ints(1, 1, held))}
		}, "in", "read"},
		{"Count", func(t *testing.T, n *core.Network, out *core.WritePort) core.Stepper {
			out.Close()
			return &Count{Iterative: lim, In: filled(t, n, "in", ints(1, 1, held))}
		}, "in", "read"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := core.NewNetwork()
			n.Obs().Registry().SetSeriesLimit(0)
			out := n.NewChannel("out", held*8)
			n.Spawn(c.build(t, n, out.Writer()))
			n.Spawn(&Discard{In: out.Reader()})
			if err := n.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := tokens(n, c.channel, c.op); got != lim.Iterations {
				t.Fatalf("%d elements counted on %s (%s), want %d", got, c.channel, c.op, lim.Iterations)
			}
		})
	}
}

// elementMerge is the element-at-a-time OrderedMerge as a function: take
// the least head, consume it from every input whose head it is, emit it.
func elementMerge(ins [][]int64) []int64 {
	var out []int64
	for {
		found := false
		var v int64
		for _, in := range ins {
			if len(in) > 0 && (!found || in[0] < v) {
				v, found = in[0], true
			}
		}
		if !found {
			return out
		}
		for i, in := range ins {
			if len(in) > 0 && in[0] == v {
				ins[i] = in[1:]
			}
		}
		out = append(out, v)
	}
}

// TestOrderedMergeRunsMatchElementMerge: inputs already in their
// channels are taken in whole runs, and the merge still emits exactly
// what the element-at-a-time merge emits — repeats within one input
// included, equal heads across inputs consumed together.
func TestOrderedMergeRunsMatchElementMerge(t *testing.T) {
	f := func(xs, ys, zs []int8) bool {
		var ins [][]int64
		n := core.NewNetwork()
		var ports []*core.ReadPort
		for i, raw := range [][]int8{xs, ys, zs} {
			in := make([]int64, len(raw))
			for j, v := range raw {
				in[j] = int64(v)
			}
			sortInt64(in)
			ins = append(ins, in)
			ports = append(ports, filled(t, n, string(rune('a'+i)), in))
		}
		o := n.NewChannel("o", 0)
		n.Spawn(&OrderedMerge{Ins: ports, Out: o.Writer()})
		sink := &Collect{In: o.Reader()}
		n.Spawn(sink)
		if n.Wait() != nil {
			return false
		}
		want := elementMerge(ins)
		got := sink.Values()
		return reflect.DeepEqual(got, want) || len(got)+len(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// drive steps p the way the step loop does — the limit, and Done counted
// for a Step that does not count itself — for at most steps Steps (< 0:
// until p ends).
func drive(t *testing.T, p core.Stepper, steps int) {
	t.Helper()
	it := new(core.Iterative) // a process without one, as the step loop does
	if f := reflect.ValueOf(p).Elem().FieldByName("Iterative"); f.IsValid() {
		it = f.Addr().Interface().(*core.Iterative)
	}
	for i := 0; steps < 0 || i < steps; i++ {
		if it.Iterations > 0 && it.Done >= it.Iterations {
			return
		}
		done := it.Done
		if err := p.Step(nil); err == io.EOF {
			return
		} else if err != nil {
			t.Fatal(err)
		}
		if it.Done == done {
			it.Done++
		}
	}
}

// shipped returns a fresh value of p's type holding only p's exported
// fields: what gob carries to the destination of a migration.
func shipped(p core.Stepper) core.Stepper {
	src := reflect.ValueOf(p).Elem()
	dst := reflect.New(src.Type())
	for i := 0; i < src.NumField(); i++ {
		if src.Type().Field(i).IsExported() {
			dst.Elem().Field(i).Set(src.Field(i))
		}
	}
	return dst.Interface().(core.Stepper)
}

// start runs p's OnStart, as the step loop does on every host.
func start(t *testing.T, p core.Stepper) {
	t.Helper()
	if s, ok := p.(core.Starter); ok {
		if err := s.OnStart(nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExportedFieldsCarryStreamState: what a process keeps between
// steps and needs to go on — a position, a count, queued heads, a filter
// history, a round-robin lane, a delivered head — is in exported fields,
// so a process moved mid-stream with only those goes on exactly where
// it stopped. Each process runs once straight through and once moved
// after `at` steps; every output must match byte for byte.
func TestExportedFieldsCarryStreamState(t *testing.T) {
	floats := func(n *core.Network, vs ...float64) *core.ReadPort {
		ch := n.NewChannel("in", 1<<12)
		if err := ch.Writer().Tokens().WriteFloat64s(vs); err != nil {
			t.Fatal(err)
		}
		ch.Writer().Close()
		return ch.Reader()
	}
	blocks := func(n *core.Network, name string, k int) *core.ReadPort {
		ch := n.NewChannel(name, 1<<12)
		for i := 0; i < k; i++ {
			if err := ch.Writer().Tokens().WriteBlock([]byte(name + string(rune('a'+i)))); err != nil {
				t.Fatal(err)
			}
		}
		ch.Writer().Close()
		return ch.Reader()
	}
	cases := []struct {
		name  string
		at    int
		build func(n *core.Network, outs []*core.WritePort) core.Stepper
	}{
		{"Sequence", 1, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			p := &Sequence{From: 5, Stride: 3, Out: outs[0]}
			p.Iterations = 100
			return p
		}},
		{"SliceSource", 3, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &SliceSource{Values: ints(1, 1, 10), Out: outs[0]}
		}},
		{"FloatSliceSource", 2, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &FloatSliceSource{Values: []float64{0.5, 1.5, 2.5, 3.5}, Out: outs[0]}
		}},
		{"Take", 5, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &Take{N: 20, In: filled(t, n, "in", ints(1, 1, 50)), Out: outs[0]}
		}},
		{"OrderedMerge", 2, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &OrderedMerge{Ins: []*core.ReadPort{
				filled(t, n, "in2", ints(2, 2, 100)),
				filled(t, n, "in3", ints(3, 3, 100)),
				filled(t, n, "in5", ints(5, 5, 100)),
			}, Out: outs[0]}
		}},
		{"Cons", 0, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return NewConsInt64(42, filled(t, n, "in", ints(1, 1, 10)), outs[0], false)
		}},
		{"Delay", 0, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &Delay{Initial: []float64{0.5, 0.25}, In: floats(n, 1, 2, 3), Out: outs[0]}
		}},
		{"FIR", 5, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &FIR{Taps: []float64{1, 0.5, 0.25}, In: floats(n, 1, 2, 3, 4, 5, 6, 7, 8, 9), Out: outs[0]}
		}},
		{"Scatter", 4, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &Scatter{In: blocks(n, "in", 11), Outs: outs}
		}},
		{"Gather", 4, func(n *core.Network, outs []*core.WritePort) core.Stepper {
			return &Gather{Ins: []*core.ReadPort{blocks(n, "x", 4), blocks(n, "y", 3), blocks(n, "z", 4)}, Out: outs[0]}
		}},
	}
	// output runs one process, moved after `at` steps when at >= 0, and
	// returns the bytes on each of its three output channels.
	output := func(build func(*core.Network, []*core.WritePort) core.Stepper, at int) [][]byte {
		n := core.NewNetwork()
		var chs []*core.Channel
		var outs []*core.WritePort
		for _, name := range []string{"o0", "o1", "o2"} {
			ch := n.NewChannel(name, 1<<12)
			chs, outs = append(chs, ch), append(outs, ch.Writer())
		}
		p := build(n, outs)
		start(t, p)
		if at >= 0 {
			drive(t, p, at)
			p = shipped(p)
			start(t, p)
		}
		drive(t, p, -1)
		var got [][]byte
		for _, ch := range chs {
			ch.Writer().Close()
			b, err := io.ReadAll(ch.Reader())
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b)
		}
		return got
	}
	for _, c := range cases {
		want := output(c.build, -1)
		if len(want[0]) == 0 {
			t.Fatalf("%s: the straight run wrote nothing", c.name)
		}
		if got := output(c.build, c.at); !reflect.DeepEqual(got, want) {
			t.Errorf("%s moved after %d steps: wrote %q, want %q", c.name, c.at, got, want)
		}
	}
}
