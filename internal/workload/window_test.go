package workload

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"dpn/internal/core"
)

// The stages' open state, driven one Step at a time with no network:
// WindowReduce against a small sequential oracle, across a window
// that closes exactly and reopens, a flush after exact closes, and a
// gob round trip of the process mid-stream; ShardByKey on keys whose
// residue a truncating modulo makes negative.

// record is one (key, value) pair of a hand-written stream; float
// values are multiples of 1/4, so float sums are exact.
type record struct {
	key int64
	val float64
}

// windowOracle closes per-key tumbling windows of n records in record
// order, then flushes the partial windows sorted by key.
func windowOracle(recs []record, n int64, float bool) []int64 {
	counts := make(map[int64]int64)
	sums := make(map[int64]float64)
	enc := func(s float64) int64 {
		if float {
			return int64(math.Float64bits(s))
		}
		return int64(s)
	}
	var out []int64
	for i, rec := range recs {
		v := rec.val
		if !float {
			v = math.Trunc(v)
		}
		counts[rec.key]++
		sums[rec.key] += v
		if counts[rec.key] == n {
			out = append(out, int64(i), rec.key, enc(sums[rec.key]))
			counts[rec.key], sums[rec.key] = 0, 0
		}
	}
	var keys []int64
	for k, c := range counts {
		if c > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		out = append(out, flushTag, k, enc(sums[k]))
	}
	return out
}

// triples encodes recs[from:] as WindowReduce input: (idx, key, value
// bits when float, else the integer value).
func triples(recs []record, from int, float bool) []int64 {
	var vals []int64
	for i := from; i < len(recs); i++ {
		v := int64(recs[i].val)
		if float {
			v = int64(math.Float64bits(recs[i].val))
		}
		vals = append(vals, int64(i), recs[i].key, v)
	}
	return vals
}

// stepToEOF steps p until it ends, turning a panic into an error.
func stepToEOF(p core.Stepper) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("step panicked: %v", v)
		}
	}()
	for {
		if err := p.Step(nil); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// drain steps p until it ends and returns what out holds.
func drain(t *testing.T, p core.Stepper, out *core.Channel) []int64 {
	t.Helper()
	if err := stepToEOF(p); err != nil {
		t.Fatal(err)
	}
	return contents(t, out)
}

// contents closes ch's writer and reads everything ch holds.
func contents(t *testing.T, ch *core.Channel) []int64 {
	t.Helper()
	ch.Writer().Close()
	var got []int64
	for {
		v, err := ch.Reader().Tokens().ReadInt64()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
}

// slotStream: key 7 closes exactly on its third record and reopens
// from zero; key 2 closes exactly twice and key 5 once, and neither
// ends with an open window; key 9 never fills; key −4 closes once and
// reopens.
var slotStream = []record{
	{7, 1}, {2, 10}, {7, 2.25}, {5, 4}, {9, 5}, {7, 3.5},
	{5, 8}, {-4, 1}, {5, 0.5}, {2, 20}, {7, 100}, {-4, 2},
	{2, 30}, {-4, 3}, {9, 6.75}, {2, 1}, {-4, 4}, {2, 2},
	{2, 3},
}

func TestWindowReduceSlotsResetOnClose(t *testing.T) {
	const window = 3
	for _, float := range []bool{false, true} {
		t.Run(fmt.Sprintf("float=%v", float), func(t *testing.T) {
			want := windowOracle(slotStream, window, float)
			out := roomy()
			r := &WindowReduce{In: filled(t, triples(slotStream, 0, float)), Out: out.Writer(), Window: window, Float: float}
			got := drain(t, r, out)
			if err := equal(got, want); err != nil {
				t.Fatalf("%v\n got %v\nwant %v", err, got, want)
			}
			flushed := map[int64]bool{}
			for i := 0; i < len(got); i += 3 {
				if got[i] == flushTag {
					flushed[got[i+1]] = true
				}
			}
			if flushed[2] || flushed[5] || !flushed[7] || !flushed[9] || !flushed[-4] {
				t.Fatalf("flushed keys %v: want 7, 9 and -4, and not 2 or 5, whose last windows closed exactly", flushed)
			}
		})
	}
}

func TestWindowReduceResumesAfterGobRoundTrip(t *testing.T) {
	// Cut after record 8: key 5 has just closed its window there and
	// gets no record after it, key 7 closed on record 5, so both slots
	// are reset with no open record; keys 2, 9 and −4 hold one record
	// each. The moved process must not flush key 5.
	const window, cut = 3, 9
	for _, float := range []bool{false, true} {
		t.Run(fmt.Sprintf("float=%v", float), func(t *testing.T) {
			want := windowOracle(slotStream, window, float)
			out := roomy()
			head := core.NewChannel("head", 1<<12)
			if err := head.Writer().Tokens().WriteInt64s(triples(slotStream[:cut], 0, float)); err != nil {
				t.Fatal(err)
			}
			r := &WindowReduce{In: head.Reader(), Out: out.Writer(), Window: window, Float: float}
			if err := r.Step(nil); err != nil {
				t.Fatal(err)
			}

			snap := *r
			snap.In, snap.Out = nil, nil
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
				t.Fatal(err)
			}
			moved := &WindowReduce{}
			if err := gob.NewDecoder(&buf).Decode(moved); err != nil {
				t.Fatal(err)
			}
			moved.In = filled(t, triples(slotStream, cut, float))
			moved.Out = out.Writer()
			got := drain(t, moved, out)
			if err := equal(got, want); err != nil {
				t.Fatalf("%v\n got %v\nwant %v", err, got, want)
			}
		})
	}
}

func TestShardByKeyRoutesNegativeKeys(t *testing.T) {
	const shards = 3
	for _, float := range []bool{false, true} {
		t.Run(fmt.Sprintf("float=%v", float), func(t *testing.T) {
			keys := []int64{-3, -8, 5, -2, 0, 10}
			var pairs []int64
			for i := 0; i < 4; i++ {
				for _, k := range keys {
					if float {
						pairs = append(pairs, int64(math.Float64bits(float64(k))), int64(math.Float64bits(0.5)))
					} else {
						pairs = append(pairs, k, int64(i))
					}
				}
			}
			s := &ShardByKey{In: filled(t, pairs), Float: float}
			var outs []*core.Channel
			for i := 0; i < shards; i++ {
				outs = append(outs, roomy())
				s.Outs = append(s.Outs, outs[i].Writer())
			}
			if err := stepToEOF(s); err != nil {
				t.Fatal(err)
			}
			shardOf := map[int64]int{}
			for sh, ch := range outs {
				for tri := contents(t, ch); len(tri) >= 3; tri = tri[3:] {
					key := tri[1]
					if prev, ok := shardOf[key]; ok && prev != sh {
						t.Fatalf("key %d routed to shards %d and %d", key, prev, sh)
					}
					shardOf[key] = sh
				}
			}
			for _, k := range keys {
				sh, ok := shardOf[k]
				if !ok {
					t.Fatalf("key %d reached no shard", k)
				}
				if k >= 0 && sh != int(k%shards) {
					t.Fatalf("key %d on shard %d, want %d", k, sh, k%shards)
				}
			}
		})
	}
}
