package workload

import (
	"testing"

	"dpn/internal/core"
)

// The batch processes of the streaming pipeline allocate nothing per
// Step once their scratch has settled: codecs live on the ports, read
// buffers in the process, and staging slices keep their capacity.
// WindowReduce allocates a slot on a key's first record only; a window
// that closes resets its slot, so a settled key set allocates nothing.

const allocSteps = 50

// filled returns a closed channel holding vals.
func filled(t *testing.T, vals []int64) *core.ReadPort {
	t.Helper()
	ch := core.NewChannel("in", len(vals)*8)
	if err := ch.Writer().Tokens().WriteInt64s(vals); err != nil {
		t.Fatal(err)
	}
	ch.Writer().Close()
	return ch.Reader()
}

func roomy() *core.Channel { return core.NewChannel("out", 4<<20) }

// stepAllocs warms p up for two Steps, then reports allocations per
// Step over allocSteps more.
func stepAllocs(t *testing.T, p core.Stepper) float64 {
	t.Helper()
	var err error
	step := func() {
		if e := p.Step(nil); e != nil && err == nil {
			err = e
		}
	}
	step()
	step()
	got := testing.AllocsPerRun(allocSteps, step)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestShardByKeyStepAllocatesNothing(t *testing.T) {
	// Keys cycle over the shards, so every Step stages the same number
	// of triples per shard and no staging slice grows after warm-up.
	pairs := make([]int64, 0, (allocSteps+4)*readChunk)
	for i := int64(0); len(pairs) < cap(pairs); i++ {
		pairs = append(pairs, i%4, i*7)
	}
	s := &ShardByKey{In: filled(t, pairs)}
	for i := 0; i < 4; i++ {
		s.Outs = append(s.Outs, roomy().Writer())
	}
	if got := stepAllocs(t, s); got != 0 {
		t.Errorf("ShardByKey: %v allocations per Step, want 0", got)
	}
}

func TestMergeByTagStepAllocatesNothing(t *testing.T) {
	// Input i carries tags i, i+4, i+8, …: the queues drain evenly and
	// the merge reloads them in rotation.
	const triples = (allocSteps + 4) * readChunk / 3
	m := &MergeByTag{Out: roomy().Writer()}
	for i := int64(0); i < 4; i++ {
		vals := make([]int64, 0, 3*triples)
		for k := int64(0); k < triples; k++ {
			vals = append(vals, i+4*k, i, k)
		}
		m.Ins = append(m.Ins, filled(t, vals))
	}
	if got := stepAllocs(t, m); got != 0 {
		t.Errorf("MergeByTag: %v allocations per Step, want 0", got)
	}
}

func TestWindowReduceStepAllocatesNothing(t *testing.T) {
	// 64 keys, all seen in the first warm-up Step; windows close and
	// reopen on every Step after.
	vals := make([]int64, 0, (allocSteps+4)*readChunk)
	for i := int64(0); len(vals) < cap(vals); i++ {
		vals = append(vals, i, i%64, i*3)
	}
	r := &WindowReduce{In: filled(t, vals), Out: roomy().Writer(), Window: 5}
	if got := stepAllocs(t, r); got != 0 {
		t.Errorf("WindowReduce: %v allocations per Step, want 0", got)
	}
}
