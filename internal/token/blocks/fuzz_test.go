package blocks

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeBE throws arbitrary bytes at the strict decoder. The
// invariants: never panic, never over-read past maxBytes, and any block
// that decodes successfully must re-decode to identical bytes (decode
// is a pure function of the block).
func FuzzDecodeBE(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{TagRaw, 0x01, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{TagIntRLE, 0x02, 0, 0, 0, 0, 0, 0, 0, 9, 0x04})
	f.Add([]byte{TagIntPacked, 0x03, 0, 0, 0, 0, 0, 0, 0, 1, 0x20, 0, 0, 0, 0, 0, 0, 0x12})
	f.Add([]byte{TagFloatXOR, 0x01, 0x07, 0x40})
	seed := make([]int64, 300)
	for i := range seed {
		seed[i] = int64(i * 17)
	}
	f.Add(AppendInt64s(nil, seed))
	f.Fuzz(func(t *testing.T, block []byte) {
		const maxBytes = 1 << 16
		out, err := DecodeBE(nil, block, maxBytes)
		if err != nil {
			return
		}
		if len(out) == 0 || len(out)%8 != 0 || len(out) > maxBytes {
			t.Fatalf("decoded %d bytes from a %d-byte block", len(out), len(block))
		}
		again, err := DecodeBE(nil, block, maxBytes)
		if err != nil || !bytes.Equal(out, again) {
			t.Fatalf("decode is not deterministic: %v", err)
		}
	})
}

// FuzzCodecInt64RoundTrip seals arbitrary element runs as int64 shapes
// and requires byte-exact recovery, on both the compressed and the
// raw-fallback paths.
func FuzzCodecInt64RoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzRoundTrip(t, raw, ShapeInt64)
	})
}

// FuzzCodecFloat64RoundTrip is the float-shape twin; NaN payloads,
// infinities, and denormals all travel as opaque bit patterns.
func FuzzCodecFloat64RoundTrip(f *testing.F) {
	f.Add([]byte{0x7F, 0xF8, 0, 0, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0x3F, 0xF0, 0, 0, 0, 0, 0, 0}, 16))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fuzzRoundTrip(t, raw, ShapeFloat64)
	})
}

func fuzzRoundTrip(t *testing.T, raw []byte, shape Shape) {
	src := raw[:len(raw)-len(raw)%8]
	if len(src) == 0 || len(src) > MaxCount*8 {
		return
	}
	var e Encoder
	block, ok := e.EncodeBE(nil, src, shape, len(src))
	if !ok {
		block = AppendRaw(nil, src)
	}
	got, err := DecodeBE(nil, block, len(src))
	if err != nil {
		t.Fatalf("decoding our own block: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip diverged at %d bytes (shape %d)", len(src), shape)
	}
}

// FuzzCodecInt64MatchesReference requires the int64 trial to match
// refEncodeInt byte for byte, verdict included, on arbitrary element
// runs and on walks whose delta widths the input bytes choose, under
// the link's limits and one the input picks.
func FuzzCodecInt64MatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3}, uint32(16))
	f.Add(bytes.Repeat([]byte{7, 40, 9, 1, 61, 2, 0, 33}, 40), uint32(300))
	f.Fuzz(func(t *testing.T, raw []byte, lim uint32) {
		if len(raw) > 1<<16 {
			return
		}
		var e Encoder
		for _, src := range [][]byte{raw[:len(raw)-len(raw)%8], widthWalk(raw)} {
			if len(src) == 0 {
				continue
			}
			n := len(src) / 8
			for _, limit := range []int{len(src), len(src) - len(src)/8, 2 * n, 16, int(lim % uint32(len(src)+64))} {
				if err := matchReference(&e, src, limit); err != nil {
					t.Fatalf("%d elements, limit %d: %v", n, limit, err)
				}
			}
		}
	})
}

// widthWalk renders raw as a walk of len(raw) deltas, one per byte:
// byte b gives a delta of up to b%62 bits, negative when b is odd.
func widthWalk(raw []byte) []byte {
	src := make([]byte, 8, 8*(len(raw)+1))
	v := uint64(0)
	for _, b := range raw {
		d := uint64(b) * 0x9E3779B97F4A7C15 >> (64 - b%62)
		if b&1 == 1 {
			d = -d
		}
		v += d
		src = binary.BigEndian.AppendUint64(src, v)
	}
	return src
}
