package blocks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// beInt64s renders vs in the channel wire format (big-endian 8-byte
// elements), the byte shape EncodeBE operates on.
func beInt64s(vs []int64) []byte {
	b := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[i*8:], uint64(v))
	}
	return b
}

func beFloat64s(vs []float64) []byte {
	b := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.BigEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// roundTripBE seals src with the given shape and decodes it back,
// requiring byte identity. Runs that refuse to seal under the link's
// size limit take the raw-block fallback, exactly as writeData does.
func roundTripBE(t *testing.T, src []byte, shape Shape) (ratio float64) {
	t.Helper()
	var e Encoder
	block, ok := e.EncodeBE(nil, src, shape, len(src))
	if !ok {
		block = AppendRaw(nil, src)
	}
	got, err := DecodeBE(nil, block, len(src))
	if err != nil {
		t.Fatalf("DecodeBE: %v", err)
	}
	if string(got) != string(src) {
		t.Fatalf("round trip diverged: %d bytes in, %d out", len(src), len(got))
	}
	return float64(len(src)) / float64(len(block))
}

func TestCodecRoundTripInt64Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := map[string][]int64{
		"monotone":  nil,
		"constant":  nil,
		"walk":      nil,
		"wide":      nil,
		"extremes":  {math.MinInt64, math.MaxInt64, 0, -1, 1, math.MinInt64, math.MaxInt64},
		"single":    {42},
		"negatives": nil,
	}
	mono := make([]int64, 4096)
	cons := make([]int64, 4096)
	walk := make([]int64, 4096)
	wide := make([]int64, 4096)
	negs := make([]int64, 512)
	v := int64(0)
	for i := range mono {
		mono[i] = int64(i) * 3
		cons[i] = -7
		v += rng.Int63n(64) - 32
		walk[i] = v
		wide[i] = rng.Int63() - rng.Int63()
	}
	for i := range negs {
		negs[i] = -int64(i) * 1000003
	}
	cases["monotone"], cases["constant"], cases["walk"], cases["wide"], cases["negatives"] =
		mono, cons, walk, wide, negs
	for name, vs := range cases {
		t.Run(name, func(t *testing.T) {
			ratio := roundTripBE(t, beInt64s(vs), ShapeInt64)
			t.Logf("%s: %.2fx", name, ratio)
		})
	}
}

func TestCodecRoundTripFloat64Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mono := make([]float64, 4096)
	cons := make([]float64, 4096)
	walk := make([]float64, 4096)
	for i := range mono {
		mono[i] = float64(i) * 0.5
		cons[i] = 3.25
		if i > 0 {
			walk[i] = walk[i-1] + float64(rng.Intn(16))/16
		}
	}
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64}
	for name, vs := range map[string][]float64{
		"monotone": mono, "constant": cons, "walk": walk, "special": special,
	} {
		t.Run(name, func(t *testing.T) {
			ratio := roundTripBE(t, beFloat64s(vs), ShapeFloat64)
			t.Logf("%s: %.2fx", name, ratio)
		})
	}
}

// TestCodecRatioFloor is the -codec gate's compression floor: monotone
// int64 runs (sieve output, task sequence numbers) must compress at
// least 4x, and the raw fallback block must never cost more than 1.02x
// the unencoded bytes.
func TestCodecRatioFloor(t *testing.T) {
	vs := make([]int64, 4096)
	for i := range vs {
		vs[i] = int64(i)
	}
	src := beInt64s(vs)
	var e Encoder
	block, ok := e.EncodeBE(nil, src, ShapeInt64, len(src))
	if !ok {
		t.Fatal("monotone run did not compress")
	}
	if ratio := float64(len(src)) / float64(len(block)); ratio < 4 {
		t.Fatalf("monotone int64 ratio %.2fx below the 4x floor", ratio)
	} else {
		t.Logf("monotone int64: %.2fx (%d -> %d bytes)", ratio, len(src), len(block))
	}
	// Incompressible data: EncodeBE refuses (the link then ships the
	// bytes raw at exactly 1.00x), and the explicit raw block's header
	// overhead stays under 2%.
	rng := rand.New(rand.NewSource(77))
	wide := make([]int64, 64)
	for i := range wide {
		wide[i] = int64(rng.Uint64())
	}
	wsrc := beInt64s(wide)
	if _, ok := e.EncodeBE(nil, wsrc, ShapeInt64, len(wsrc)-len(wsrc)/8); ok {
		t.Fatal("full-width random run claimed to compress below 7/8 of raw")
	}
	raw := AppendRaw(nil, wsrc)
	if over := float64(len(raw)) / float64(len(wsrc)); over > 1.02 {
		t.Fatalf("raw fallback overhead %.4fx exceeds 1.02x", over)
	}
	got, err := DecodeBE(nil, raw, len(wsrc))
	if err != nil || string(got) != string(wsrc) {
		t.Fatalf("raw fallback round trip: %v", err)
	}
}

// TestCodecValueAPIs covers the []int64/[]float64 convenience surface,
// including its raw fallback path.
func TestCodecValueAPIs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ints := make([]int64, 1000)
	floats := make([]float64, 1000)
	for i := range ints {
		ints[i] = int64(i * i)
		floats[i] = rng.NormFloat64()
	}
	ib := AppendInt64s(nil, ints)
	gotI, err := DecodeInt64s(nil, ib)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range ints {
		if gotI[i] != v {
			t.Fatalf("int64 %d: got %d want %d", i, gotI[i], v)
		}
	}
	fb := AppendFloat64s(nil, floats)
	gotF, err := DecodeFloat64s(nil, fb)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range floats {
		if math.Float64bits(gotF[i]) != math.Float64bits(v) {
			t.Fatalf("float64 %d: got %v want %v", i, gotF[i], v)
		}
	}
	// The empty run round-trips through the value APIs, nil or not.
	for _, vs := range [][]int64{nil, {}} {
		got, err := DecodeInt64s(nil, AppendInt64s(nil, vs))
		if err != nil || len(got) != 0 {
			t.Fatalf("empty int64 run: got %v, %v", got, err)
		}
	}
	for _, vs := range [][]float64{nil, {}} {
		got, err := DecodeFloat64s([]float64{1}, AppendFloat64s([]byte{0xEE}, vs)[1:])
		if err != nil || len(got) != 1 {
			t.Fatalf("empty float64 run: got %v, %v", got, err)
		}
	}
}

// TestCodecRejectsMalformed drives the decoder through the corruption
// taxonomy: every case must return an error wrapping ErrCorrupt, with
// no panic and no over-read.
func TestCodecRejectsMalformed(t *testing.T) {
	vs := make([]int64, 512)
	for i := range vs {
		vs[i] = int64(i)
	}
	good := AppendInt64s(nil, vs)
	cases := map[string][]byte{
		"empty":         {},
		"tag-only":      {TagIntPacked},
		"unknown-tag":   append([]byte{0x90}, good[1:]...),
		"flipped-tag":   append([]byte{TagFloatXOR}, good[1:]...),
		"truncated":     good[:len(good)/2],
		"trailing":      append(append([]byte{}, good...), 0xAB),
		"zero-count":    {TagRaw, 0x00},
		"huge-count":    {TagIntRLE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01},
		"bad-selector":  {TagIntPacked, 0x03, 0, 0, 0, 0, 0, 0, 0, 1, 0x10, 0, 0, 0, 0, 0, 0, 0},
		"xor-bad-ctrl":  {TagFloatXOR, 0x02, 0xFF, 0x80},
		"xor-truncated": {TagFloatXOR, 0x02, 0x07},
	}
	for name, block := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeBE(nil, block, 1<<20); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("want ErrCorrupt, got %v", err)
			}
		})
	}
	// A count that is well-formed but exceeds the caller's frame bound
	// must be rejected before any output is produced.
	if _, err := DecodeBE(nil, good, 64); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized count: want ErrCorrupt, got %v", err)
	}
}

// TestCodecEncodeBounds covers EncodeBE's input contract: misaligned
// and empty runs are refused, and a limit below the achievable size
// returns false with dst untouched.
func TestCodecEncodeBounds(t *testing.T) {
	var e Encoder
	if _, ok := e.EncodeBE(nil, make([]byte, 12), ShapeInt64, 12); ok {
		t.Fatal("accepted a misaligned run")
	}
	if _, ok := e.EncodeBE(nil, nil, ShapeInt64, 8); ok {
		t.Fatal("accepted an empty run")
	}
	src := beInt64s([]int64{1, 2, 3, 4})
	dst := []byte{0xEE}
	out, ok := e.EncodeBE(dst, src, ShapeInt64, 2)
	if ok {
		t.Fatal("4 elements cannot seal into 2 bytes")
	}
	if len(out) != 1 || out[0] != 0xEE {
		t.Fatal("failed encode modified dst")
	}
}

// TestCodecZeroAlloc verifies the link-path contract: with scratch
// capacity in place, sealing and unsealing a chunk allocates nothing.
func TestCodecZeroAlloc(t *testing.T) {
	vs := make([]int64, 4096)
	for i := range vs {
		vs[i] = int64(i) * 5
	}
	src := beInt64s(vs)
	var e Encoder
	enc := make([]byte, 0, len(src))
	dec := make([]byte, 0, len(src))
	// Warm the Encoder's delta scratch.
	e.EncodeBE(enc, src, ShapeInt64, len(src))
	allocs := testing.AllocsPerRun(100, func() {
		block, ok := e.EncodeBE(enc[:0], src, ShapeInt64, len(src))
		if !ok {
			t.Fatal("encode failed")
		}
		if _, err := DecodeBE(dec[:0], block, len(src)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("seal+unseal allocated %.1f times per run", allocs)
	}
	// The refuse path: 40-bit values give deltas one per simple8b word,
	// so the trial refuses the 7/8 limit, and a warm Encoder allocates
	// nothing doing so either.
	rng := rand.New(rand.NewSource(40))
	for i := range vs {
		vs[i] = rng.Int63n(1 << 40)
	}
	wide := beInt64s(vs)
	limit := len(wide) - len(wide)/8
	e.EncodeBE(enc[:0], wide, ShapeInt64, limit)
	allocs = testing.AllocsPerRun(100, func() {
		if _, ok := e.EncodeBE(enc[:0], wide, ShapeInt64, limit); ok {
			t.Fatal("40-bit values packed within 7/8 of raw")
		}
	})
	if allocs != 0 {
		t.Fatalf("refusal allocated %.1f times per run", allocs)
	}
}

// TestCodecEncodeMatchesReference pins the int64 trial to the encoder
// it replaced (refEncodeInt): the same bytes and the same verdict on
// every run and limit, so old peers decode new blocks and a replayed
// chunk re-seals identically.
func TestCodecEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	walk := func(n int, step int64) []int64 {
		vs := make([]int64, n)
		v := rng.Int63()
		for i := range vs {
			d := rng.Int63n(step + 1)
			if rng.Intn(2) == 0 {
				d = -d
			}
			v += d
			vs[i] = v
		}
		return vs
	}
	// mixed walks runs of random length whose deltas share a random
	// bit width from 0 to 64, so words mix widths at every boundary.
	mixed := func(n int) []int64 {
		vs := make([]int64, n)
		v := rng.Int63()
		w := 0
		for i := range vs {
			if rng.Intn(8) == 0 {
				w = rng.Intn(65)
			}
			d := int64(rng.Uint64() >> (64 - w)) // 0 when w is 0
			if rng.Intn(2) == 0 {
				d = -d
			}
			v += d
			vs[i] = v
		}
		return vs
	}
	// partial ends every selector's deltas one to count-1 values into
	// its final word: n-1 = q*count + r deltas of exactly its width
	// (for 1-bit deltas, of either width 0 or 1, or the run would be
	// constant and seal as RLE).
	partial := func(sel, q, r int) []int64 {
		bw := s8bBits[sel]
		vs := make([]int64, 1+q*s8bCount[sel]+r)
		for i := 1; i < len(vs); i++ {
			z := rng.Uint64() >> (64 - bw)
			if bw > 1 {
				z |= 1 << (bw - 1)
			}
			vs[i] = vs[i-1] + unzigzag(z)
		}
		return vs
	}
	cases := map[string][]int64{}
	for _, n := range []int{1, 2, 60, 61, 16384} {
		for _, step := range []int64{1, 2, 64, 1 << 10, 1 << 30, 1 << 62} {
			cases[fmt.Sprintf("walk%d/n%d", step, n)] = walk(n, step)
		}
		cases[fmt.Sprintf("mixed/n%d", n)] = mixed(n)
	}
	for sel := 2; sel <= 15; sel++ {
		for r := 1; r < s8bCount[sel]; r++ {
			cases[fmt.Sprintf("partial/sel%d/r%d", sel, r)] = partial(sel, 2, r)
		}
	}
	for i := 0; i < 200; i++ {
		cases[fmt.Sprintf("mixed/seed%d", i)] = mixed(1 + rng.Intn(700))
	}
	var e Encoder
	for name, vs := range cases {
		src := beInt64s(vs)
		n := len(vs)
		for _, limit := range []int{len(src), len(src) - len(src)/8, 2 * n, 16} {
			if err := matchReference(&e, src, limit); err != nil {
				t.Fatalf("%s, limit %d: %v", name, limit, err)
			}
		}
	}
}

// matchReference runs EncodeBE and refEncodeInt on src under limit,
// both appending to the same non-empty prefix, and reports any
// difference in the verdict or the bytes.
func matchReference(e *Encoder, src []byte, limit int) error {
	prefix := []byte{0xEE, 0xEF}
	got, ok := e.EncodeBE(append([]byte(nil), prefix...), src, ShapeInt64, limit)
	want, wantOK := refEncodeInt(append([]byte(nil), prefix...), src, limit)
	if ok != wantOK {
		return fmt.Errorf("ok %v, reference %v", ok, wantOK)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		return fmt.Errorf("%d bytes, reference %d, first difference at byte %d", len(got), len(want), i)
	}
	return nil
}

// refEncodeInt is the int64 trial as it stood before selectors were
// chosen in one scan: the full delta and width columns, then per word
// the first of selectors 2..15 whose width covers its whole prefix.
// It is the definition the encoder must reproduce byte for byte.
func refEncodeInt(dst, src []byte, limit int) ([]byte, bool) {
	n := len(src) / 8
	if n == 0 || len(src)%8 != 0 || n > MaxCount || limit <= 0 {
		return dst, false
	}
	deltas := make([]uint64, 0, n)
	widths := make([]uint8, 0, n)
	first := binary.BigEndian.Uint64(src)
	prev := first
	constant := true
	maxWidth := 0
	for i := 1; i < n; i++ {
		v := binary.BigEndian.Uint64(src[i*8:])
		z := zigzag(int64(v - prev))
		prev = v
		if i > 1 && z != deltas[0] {
			constant = false
		}
		w := bits.Len64(z)
		if w > maxWidth {
			maxWidth = w
		}
		deltas = append(deltas, z)
		widths = append(widths, uint8(w))
	}
	base := len(dst)
	if constant {
		dst = append(dst, TagIntRLE)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.BigEndian.AppendUint64(dst, first)
		if n > 1 {
			dst = binary.AppendUvarint(dst, deltas[0])
		}
		if len(dst)-base > limit {
			return dst[:base], false
		}
		return dst, true
	}
	if maxWidth > s8bMaxBits {
		return dst[:base], false
	}
	dst = append(dst, TagIntPacked)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.BigEndian.AppendUint64(dst, first)
	for len(deltas) > 0 {
		if len(dst)-base+8 > limit {
			return dst[:base], false
		}
		word, k := refPackWord(deltas, widths)
		dst = binary.BigEndian.AppendUint64(dst, word)
		deltas = deltas[k:]
		widths = widths[k:]
	}
	if len(dst)-base > limit {
		return dst[:base], false
	}
	return dst, true
}

// refPackWord packs a prefix of deltas into one simple8b word with the
// densest selector whose bit width covers every packed value; only the
// final word may pack fewer than its selector's count.
func refPackWord(deltas []uint64, widths []uint8) (word uint64, k int) {
	for sel := 2; sel <= 15; sel++ {
		cnt, bw := s8bCount[sel], s8bBits[sel]
		k = min(cnt, len(deltas))
		fits := true
		for j := 0; j < k; j++ {
			if int(widths[j]) > bw {
				fits = false
				break
			}
		}
		if !fits {
			continue
		}
		word = uint64(sel) << 60
		for j := 0; j < k; j++ {
			word |= deltas[j] << (j * bw)
		}
		return word, k
	}
	panic("blocks: unpackable delta")
}
