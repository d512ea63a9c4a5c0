package workload

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"dpn/internal/core"
)

// The streaming pipeline's test side: a seeded generator in front of
// the stages streaming.go ships, the sequential oracle their merged
// output must equal, and the pipeline's scenario form.

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

// keyedGen emits the seeded record stream as (key, value) pairs, in
// batches through WriteInt64s (or WriteFloat64s when Float — keys are
// small integers, exact in float64). It stays on the origin node, so
// its cursor needs no export.
type keyedGen struct {
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
func (g *keyedGen) Step(env *core.Env) error {
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

// buildStream wires (without spawning) the full pipeline into n and
// returns each stage, so callers choose their own cut: scenarios ship
// the merge+collector tail, the soak driver ships the middle stages
// and keeps the generator and collector client-side.
func buildStream(n *core.Network, spec streamSpec, seed int64, pace time.Duration) (gen *keyedGen, shard *ShardByKey, reduces []any, merge *MergeByTag, tail *collector) {
	const chanCap = 1 << 14
	pairs := n.NewChannel(fmt.Sprintf("wl.pairs.%d", seed), chanCap)
	gen = &keyedGen{
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
	tail = &collector{In: merged.Reader()}
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

// streaming constructs the scenario form of the pipeline: Build spawns
// generator, shard, and reduces on the origin network; the cut is the
// merge plus collector, so under distributed deployments every
// reduce→merge channel crosses the wire.
func streaming(name string, spec streamSpec) scenario {
	return scenario{
		Name: name,
		Build: func(seed int64, pace time.Duration, n *core.Network) *graph {
			gen, shard, reduces, merge, tail := buildStream(n, spec, seed, pace)
			n.Spawn(gen)
			n.Spawn(shard)
			for _, r := range reduces {
				n.Spawn(r)
			}
			return &graph{Cut: []any{merge, tail}, Tail: tail}
		},
		Oracle: func(seed int64) []int64 { return streamOracle(spec, seed) },
	}
}
