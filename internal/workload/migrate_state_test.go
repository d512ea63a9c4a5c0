package workload

import (
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/proclib"
	"dpn/internal/wire"
)

// The processes below keep live stream state between steps: a record
// index, open windows, heads taken from the inputs but not yet
// emitted. Moving one mid-stream must ship that state — a process that
// arrives with its counters zeroed or its heads dropped repeats or
// loses elements, and no byte-level check on the channels can see it.
// Each test migrates one such process A→B while the stream is flowing
// and compares the collected output with the single-threaded oracle.

// migrateMidStream spawns everything in procs on node a, waits until
// the collector has seen a quarter of want, migrates victim to a fresh
// node b, and checks the final output against want.
func migrateMidStream(t *testing.T, a *wire.Node, procs []any, victim any, tail *collector, want []int64) {
	t.Helper()
	b, err := newNode()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var h *core.Proc
	for _, p := range procs {
		if pr := a.Net.Spawn(p); p == victim {
			h = pr
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for tail.progress() < int64(len(want)/4) {
		if time.Now().After(deadline) {
			t.Fatalf("no progress before migration (at %d of %d)", tail.progress(), len(want))
		}
		time.Sleep(200 * time.Microsecond)
	}
	parcel, err := wire.Migrate(a, b.Broker.Addr(), h)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if at := tail.progress(); at >= int64(len(want)) {
		t.Fatalf("migration did not land mid-stream: collector already at %d of %d", at, len(want))
	}
	shipped, err := ship(parcel)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := wire.Import(b, shipped)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	for _, p := range moved {
		b.Net.Spawn(p)
	}
	if err := waitNet(a.Net, "origin node", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := waitNet(b.Net, "destination node", 30*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := equal(tail.Vals, want); err != nil {
		t.Fatalf("%T moved mid-stream: %v", victim, err)
	}
}

func TestMigrateStreamStagesMidStream(t *testing.T) {
	seed := workloadSeed(t, 2003)
	for _, float := range []bool{false, true} {
		spec := streamSpec{records: 6000, keys: 24, window: 5, shards: 3, batch: 16, float: float}
		want := streamOracle(spec, seed)
		for _, stage := range []string{"ShardByKey", "WindowReduce", "MergeByTag"} {
			t.Run(fmt.Sprintf("%s/float=%v", stage, float), func(t *testing.T) {
				a, err := newNode()
				if err != nil {
					t.Fatal(err)
				}
				defer a.Close()
				gen, shard, reduces, merge, tail := buildStream(a.Net, spec, seed, 300*time.Microsecond)
				procs := append([]any{gen, shard, merge, tail}, reduces...)
				victim := map[string]any{"ShardByKey": shard, "WindowReduce": reduces[1], "MergeByTag": merge}[stage]
				migrateMidStream(t, a, procs, victim, tail, want)
			})
		}
	}
}

// pacedMultiples emits Stride, 2·Stride, …, N·Stride with a pause
// between elements; it stays on the origin node.
type pacedMultiples struct {
	Out    *core.WritePort
	Stride int64
	N      int64

	k int64
}

func (s *pacedMultiples) Step(*core.Env) error {
	if s.k >= s.N {
		return io.EOF
	}
	time.Sleep(100 * time.Microsecond)
	s.k++
	return s.Out.Tokens().WriteInt64(s.k * s.Stride)
}

func TestMigrateOrderedMergeMidStream(t *testing.T) {
	a, err := newNode()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 400
	merge := &proclib.OrderedMerge{}
	procs := []any{merge}
	seen := make(map[int64]bool)
	for _, stride := range []int64{2, 3, 5} {
		ch := a.Net.NewChannel(fmt.Sprintf("mult%d", stride), 256)
		procs = append(procs, &pacedMultiples{Out: ch.Writer(), Stride: stride, N: n})
		merge.Ins = append(merge.Ins, ch.Reader())
		for k := int64(1); k <= n; k++ {
			seen[k*stride] = true
		}
	}
	want := make([]int64, 0, len(seen))
	for v := range seen {
		want = append(want, v)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	out := a.Net.NewChannel("merged", 256)
	merge.Out = out.Writer()
	tail := &collector{In: out.Reader()}
	migrateMidStream(t, a, append(procs, tail), merge, tail, want)
}

// pacedCopy forwards int64 elements with a pause between them; it stays
// on the origin node and keeps the stream flowing slowly enough that a
// fast source upstream of it is still mid-stream when it moves.
type pacedCopy struct {
	In  *core.ReadPort
	Out *core.WritePort
}

func (p *pacedCopy) Step(*core.Env) error {
	v, err := p.In.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	time.Sleep(100 * time.Microsecond)
	return p.Out.Tokens().WriteInt64(v)
}

// TestMigrateSequenceMidStream: a bounded source keeps its position and
// its count of elements written in shipped state. One that arrives with
// them zeroed starts its sequence again and writes its whole limit a
// second time.
func TestMigrateSequenceMidStream(t *testing.T) {
	a, err := newNode()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 1000
	ints := a.Net.NewChannel("ints", 64)
	paced := a.Net.NewChannel("paced", 64)
	seq := &proclib.Sequence{From: 1, Out: ints.Writer()}
	seq.Iterations = n
	tail := &collector{In: paced.Reader()}
	want := make([]int64, n)
	for i := range want {
		want[i] = int64(i + 1)
	}
	procs := []any{seq, &pacedCopy{In: ints.Reader(), Out: paced.Writer()}, tail}
	migrateMidStream(t, a, procs, seq, tail, want)
}
