// Package blocks implements the columnar block compression used on
// conduit TCP transports: runs of fixed-width 8-byte elements (the
// token codec's int64/float64 wire format) are sealed into
// self-describing blocks that shrink monotone and slowly varying
// streams 4-8x, so a link's logical tokens/sec ceiling multiplies
// without touching the NIC.
//
// The encoding shapes follow the pd1 storage engine (see SNIPPETS.md):
// int64 runs are delta + zigzag encoded and bit-packed with a
// hand-written simple8b variant (plus a run-length tag for the
// constant-delta case that dominates sequence-number streams), float64
// runs are XOR-chained with a lead/trail zero-byte split, and every
// block carries a one-byte encoding tag with an uncompressed raw
// fallback for incompressible data.
//
// A sealed block is one atomic unit: it is produced from one outbound
// link chunk and decoded whole on the receiving side before any byte
// enters the local pipe, so channel streams, migration drains
// (SealAndDrain), and §4.3 redirection only ever see the raw element
// bytes. Decoding is strictly bounds-checked: truncated, corrupt, or
// flipped-tag blocks return an error wrapping ErrCorrupt and never
// panic or over-read.
package blocks

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Shape is the advisory element-shape hint a transport-boundary codec
// uses to order its encoding trials. Values are stable: the stream and
// token layers carry them as plain uint32 so those packages stay
// structurally decoupled from this one.
type Shape uint32

const (
	// ShapeNone means no batch writer has hinted the stream's element
	// type; encoders default to the integer trial.
	ShapeNone Shape = iota
	// ShapeInt64 marks a stream of big-endian int64 elements.
	ShapeInt64
	// ShapeFloat64 marks a stream of big-endian IEEE-754 float64
	// elements.
	ShapeFloat64
)

// Encoding tags (the first byte of every sealed block). The high
// nibble selects the encoding, mirroring pd1's per-block type nibble;
// the low nibble is reserved and must be zero.
const (
	// TagRaw is the uncompressed fallback: count uvarint followed by
	// count*8 element bytes, verbatim.
	TagRaw = 0x10
	// TagIntRLE encodes a constant-delta int64 run: first element (8
	// bytes big-endian) plus one zigzag-uvarint delta.
	TagIntRLE = 0x20
	// TagIntPacked encodes an int64 run as the first element followed
	// by simple8b words bit-packing the zigzag deltas.
	TagIntPacked = 0x30
	// TagFloatXOR encodes a float64 run by XOR-chaining consecutive
	// bit patterns and storing only the non-zero middle bytes behind a
	// lead/trail control byte.
	TagFloatXOR = 0x40
)

// MaxCount bounds the element count of a single block defensively; a
// link frame holds at most coalesceMax/8 = 16Ki elements, so any
// larger count is corrupt by construction.
const MaxCount = 1 << 24

// ErrCorrupt is wrapped by every decode error: truncated payloads,
// invalid tags or selectors, counts exceeding the caller's bound.
// Compare with errors.Is.
var ErrCorrupt = errors.New("blocks: corrupt block")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// simple8b selector table. Selector s packs s8bCount[s] values of
// s8bBits[s] bits each into the low 60 bits of a word (value j at bit
// j*width, LSB first); the selector occupies the top 4 bits. Selectors
// 0 and 1 are unused by the encoder and rejected by the decoder.
var (
	s8bCount = [16]int{0, 0, 60, 30, 20, 15, 12, 10, 8, 7, 6, 5, 4, 3, 2, 1}
	s8bBits  = [16]int{0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 20, 30, 60}
)

// s8bMaxBits is the widest value simple8b can pack (selector 15).
const s8bMaxBits = 60

// s8bLCM is the least common multiple of the selector counts, the
// unit of s8bWeight.
const s8bLCM = 840

// s8bTooWide is the weight of a value wider than s8bMaxBits: larger
// than any word budget a block can have (at most MaxCount words of
// s8bLCM each), so adding it refuses the trial at once.
const s8bTooWide = 1 << 40

// Tables derived from the selector table:
//
//   - selByWidth[w]: the densest selector whose width covers w bits
//     (w is bits.Len64 of a value, or of an OR of values);
//   - s8bWeight[w]: the least share of a word a value of width w takes,
//     in s8bLCM-ths: s8bLCM over selByWidth[w]'s count, or s8bTooWide
//     past 60 bits;
//   - selByCount[p]: the densest selector holding at most p values;
//   - maxByLen[m]: the widest value m+1 values in one word may have.
var selByWidth, s8bWeight, selByCount, maxByLen = s8bTables()

func s8bTables() (selW, weight [65]int, selC [s8bMaxBits + 1]int, maxL [s8bMaxBits]uint64) {
	for w := range selW {
		weight[w] = s8bTooWide
		for sel := 2; sel <= 15; sel++ {
			if s8bBits[sel] >= w {
				selW[w], weight[w] = sel, s8bLCM/s8bCount[sel]
				break
			}
		}
	}
	for p := 1; p <= s8bMaxBits; p++ {
		for sel := 2; sel <= 15; sel++ {
			if s8bCount[sel] <= p {
				selC[p] = sel
				break
			}
		}
		for sel := 15; sel >= 2; sel-- {
			if s8bCount[sel] >= p {
				maxL[p-1] = 1<<s8bBits[sel] - 1
				break
			}
		}
	}
	return
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(z uint64) int64 { return int64(z>>1) ^ -int64(z&1) }

// Encoder holds the reusable scratch an encode pass needs (the delta
// column), so a long-lived owner — one outbound link — compresses
// every chunk with zero steady-state allocation. The zero value is
// ready to use. An Encoder is not safe for concurrent use.
type Encoder struct {
	deltas []uint64
}

// EncodeBE appends one sealed block encoding of src — a run of
// big-endian 8-byte elements — to dst and reports whether the encoded
// block fit within limit bytes. shape orders the encoding trials
// (ShapeFloat64 tries the XOR split, anything else the int64 delta
// paths); a run that does not compress within limit under its trial
// returns (dst unmodified, false) and the caller ships the raw bytes
// instead — the fallback is the unmodified wire format, so it can
// never cost more than the uncompressed stream.
//
// len(src) must be a positive multiple of 8 and len(src)/8 at most
// MaxCount; EncodeBE returns false otherwise. When cap(dst) leaves at
// least limit bytes free, EncodeBE performs no allocation.
func (e *Encoder) EncodeBE(dst, src []byte, shape Shape, limit int) ([]byte, bool) {
	n := len(src) / 8
	if n == 0 || len(src)%8 != 0 || n > MaxCount || limit <= 0 {
		return dst, false
	}
	if shape == ShapeFloat64 {
		return e.encodeFloat(dst, src, limit)
	}
	return e.encodeInt(dst, src, limit)
}

// encodeInt tries the delta paths: a constant delta seals as
// TagIntRLE; otherwise one pass computes the zigzag delta column and
// the deltas are simple8b-packed as TagIntPacked, each word with the
// densest selector that covers its values. The trial refuses as soon
// as it is decided: on a delta wider than 60 bits, or once a lower
// bound on the words any packing needs overruns limit.
func (e *Encoder) encodeInt(dst, src []byte, limit int) ([]byte, bool) {
	n := len(src) / 8
	first := binary.BigEndian.Uint64(src)
	// RLE probe first: one branch-light pass with no scratch traffic.
	// The shapes this layer exists for — counters, sequence numbers,
	// zero fill — are constant-delta runs, and on the link hot path the
	// probe IS the encode cost, so it must not materialize the delta
	// column it will immediately discard. Non-constant runs exit on the
	// first mismatching delta, typically within a few elements.
	constant := true
	var d0 uint64
	if n >= 2 {
		prev := binary.BigEndian.Uint64(src[8:])
		d0 = prev - first // wraparound-exact mod 2^64
		if d0 == 0 {
			// Zero delta means one 8-byte pattern repeated, which a
			// vectorized shifted-compare verifies at memcmp speed.
			constant = bytes.Equal(src[8:], src[:len(src)-8])
		} else {
			for i := 2; i < n; i++ {
				v := binary.BigEndian.Uint64(src[i*8:])
				if v-prev != d0 {
					constant = false
					break
				}
				prev = v
			}
		}
	}
	base := len(dst)
	if constant {
		dst = append(dst, TagIntRLE)
		dst = binary.AppendUvarint(dst, uint64(n))
		dst = binary.BigEndian.AppendUint64(dst, first)
		if n > 1 {
			dst = binary.AppendUvarint(dst, zigzag(int64(d0)))
		}
		if len(dst)-base > limit {
			return dst[:base], false
		}
		return dst, true
	}

	// The word budget: every word after the header costs 8 bytes, and
	// no packing needs more words than there are deltas.
	var count [binary.MaxVarintLen64]byte
	header := 1 + binary.PutUvarint(count[:], uint64(n)) + 8
	if limit < header+8 {
		return dst, false
	}
	maxWords := min((limit-header)/8, n-1)
	if cap(e.deltas) < n-1 {
		e.deltas = make([]uint64, n-1)
	}
	deltas := e.deltas[:n-1]
	if !deltaColumn(deltas, src, maxWords) {
		return dst, false
	}
	dst = append(dst, TagIntPacked)
	dst = binary.AppendUvarint(dst, uint64(n))
	dst = binary.BigEndian.AppendUint64(dst, first)
	dst = slices.Grow(dst, 8*maxWords)
	words := dst[len(dst) : len(dst)+8*maxWords]
	size, ok := packWords(words, deltas)
	if !ok {
		return dst[:base], false
	}
	return dst[:len(dst)+size], true
}

// deltaColumn is the trial's one pass over src: it fills deltas with
// the zigzag deltas of its elements and reports whether they might fit
// maxWords simple8b words. It keeps an exact lower bound on the words
// any packing needs — one word holds at most c values of width w,
// where c is the count of selByWidth[w], so the sum of 1/c over the
// deltas (s8bWeight, in s8bLCM-ths) never exceeds the word count — and
// returns false as soon as the bound does. A delta wider than 60 bits
// weighs s8bTooWide and returns false at once.
func deltaColumn(deltas []uint64, src []byte, maxWords int) bool {
	budget := maxWords * s8bLCM
	weight := 0
	prev := binary.BigEndian.Uint64(src)
	src = src[8:]
	// Four deltas a step, so their chains overlap; the lengths in the
	// loop conditions let the compiler drop every bounds check.
	for len(deltas) >= 4 && len(src) >= 32 {
		v0 := binary.BigEndian.Uint64(src[:8])
		v1 := binary.BigEndian.Uint64(src[8:16])
		v2 := binary.BigEndian.Uint64(src[16:24])
		v3 := binary.BigEndian.Uint64(src[24:32])
		z0 := zigzag(int64(v0 - prev)) // wraparound-exact mod 2^64
		z1 := zigzag(int64(v1 - v0))
		z2 := zigzag(int64(v2 - v1))
		z3 := zigzag(int64(v3 - v2))
		prev = v3
		deltas[0], deltas[1], deltas[2], deltas[3] = z0, z1, z2, z3
		weight += s8bWeight[bits.Len64(z0)] + s8bWeight[bits.Len64(z1)] +
			s8bWeight[bits.Len64(z2)] + s8bWeight[bits.Len64(z3)]
		if weight > budget {
			return false
		}
		deltas, src = deltas[4:], src[32:]
	}
	for len(deltas) > 0 && len(src) >= 8 {
		v := binary.BigEndian.Uint64(src)
		z := zigzag(int64(v - prev))
		prev = v
		deltas[0] = z
		weight += s8bWeight[bits.Len64(z)]
		deltas, src = deltas[1:], src[8:]
	}
	return weight <= budget
}

// packWords writes the simple8b words packing deltas into out and
// returns their size in bytes, or reports false if they do not fit.
func packWords(out []byte, deltas []uint64) (int, bool) {
	free := out
	for len(deltas) > 0 {
		if len(free) < 8 {
			return 0, false
		}
		sel, k := selectWord(deltas)
		// Two values a step into two halves of the word, so the shifts
		// overlap; j*bw < 60, and the masks drop Go's shift-overflow check.
		bw := s8bBits[sel]
		w0, w1 := uint64(sel)<<60, uint64(0)
		d := deltas[:k]
		j := 0
		for ; j+1 < len(d); j += 2 {
			w0 |= d[j] << (j * bw & 63)
			w1 |= d[j+1] << ((j + 1) * bw & 63)
		}
		if j < len(d) {
			w0 |= d[j] << (j * bw & 63)
		}
		binary.BigEndian.PutUint64(free, w0|w1)
		free = free[8:]
		deltas = deltas[k:]
	}
	return len(out) - len(free), true
}

// selectWord picks the selector of the next simple8b word in one scan:
// it ORs deltas into a running value and stops at the first prefix
// whose OR exceeds the widest value that many deltas may have in one
// word (maxByLen). The word then takes the densest selector holding at
// most the prefix that fit. A prefix reaching the end of deltas takes
// the densest selector covering its width instead: only the final word
// packs fewer values than its count (the decoder stops at the block's
// element count). Every delta must be at most 60 bits wide.
func selectWord(deltas []uint64) (sel, k int) {
	scan := deltas[:min(len(deltas), len(maxByLen))]
	var acc uint64
	m := 0
	// Two deltas a step: maxByLen never grows with m, so a pair that
	// fits means its first delta fit too.
	for ; m+1 < len(scan); m += 2 {
		first := acc | scan[m]
		acc = first | scan[m+1]
		if acc > maxByLen[m+1] {
			if first > maxByLen[m] {
				sel = selByCount[m]
			} else {
				sel = selByCount[m+1]
			}
			return sel, s8bCount[sel]
		}
	}
	if m < len(scan) {
		acc |= scan[m]
		if acc > maxByLen[m] {
			sel = selByCount[m]
			return sel, s8bCount[sel]
		}
	}
	return selByWidth[bits.Len64(acc)], len(scan)
}

// encodeFloat seals src as a TagFloatXOR block: each element's bit
// pattern is XORed with its predecessor and the result stored as a
// control byte (leading/trailing zero-byte counts) plus the meaningful
// middle bytes — 0xFF alone when the XOR is zero.
func (e *Encoder) encodeFloat(dst, src []byte, limit int) ([]byte, bool) {
	n := len(src) / 8
	base := len(dst)
	dst = append(dst, TagFloatXOR)
	dst = binary.AppendUvarint(dst, uint64(n))
	prev := uint64(0)
	for i := 0; i < n; i++ {
		v := binary.BigEndian.Uint64(src[i*8:])
		x := v ^ prev
		prev = v
		if x == 0 {
			dst = append(dst, 0xFF)
		} else {
			lead := bits.LeadingZeros64(x) >> 3
			trail := bits.TrailingZeros64(x) >> 3
			mid := 8 - lead - trail
			dst = append(dst, byte(lead<<4|trail))
			sig := x >> (trail * 8)
			for b := mid - 1; b >= 0; b-- {
				dst = append(dst, byte(sig>>(b*8)))
			}
		}
		if len(dst)-base > limit {
			return dst[:base], false
		}
	}
	return dst, true
}

// AppendRaw appends the uncompressed fallback block for src (big-endian
// 8-byte elements): tag, element count, verbatim bytes. Its overhead is
// the two-to-four byte header, under 2% for runs of 32 elements and up.
func AppendRaw(dst, src []byte) []byte {
	dst = append(dst, TagRaw)
	dst = binary.AppendUvarint(dst, uint64(len(src)/8))
	return append(dst, src...)
}

// DecodeBE appends the element bytes of the sealed block to dst and
// returns the extended slice. The block must span exactly len(block)
// bytes — a link frame carries one block and nothing else. maxBytes
// bounds the decoded size (the receiver's frame cap), so a corrupt
// count can never balloon the output; every malformed input returns an
// error wrapping ErrCorrupt with dst unmodified. When cap(dst) covers
// maxBytes, DecodeBE performs no allocation.
func DecodeBE(dst, block []byte, maxBytes int) ([]byte, error) {
	if len(block) < 2 {
		return dst, corrupt("block of %d bytes has no header", len(block))
	}
	tag := block[0]
	count, k := binary.Uvarint(block[1:])
	if k <= 0 {
		return dst, corrupt("unterminated element count")
	}
	body := block[1+k:]
	if count == 0 || count > MaxCount {
		return dst, corrupt("element count %d out of range", count)
	}
	n := int(count)
	if n*8 > maxBytes {
		return dst, corrupt("%d elements exceed the %d-byte frame bound", n, maxBytes)
	}
	base := len(dst)
	var err error
	switch tag {
	case TagRaw:
		if len(body) != n*8 {
			return dst, corrupt("raw block carries %d bytes for %d elements", len(body), n)
		}
		return append(dst, body...), nil
	case TagIntRLE:
		dst, err = decodeIntRLE(dst, body, n)
	case TagIntPacked:
		dst, err = decodeIntPacked(dst, body, n)
	case TagFloatXOR:
		dst, err = decodeFloatXOR(dst, body, n)
	default:
		return dst, corrupt("unknown encoding tag %#02x", tag)
	}
	if err != nil {
		return dst[:base], err
	}
	return dst, nil
}

func decodeIntRLE(dst, body []byte, n int) ([]byte, error) {
	if len(body) < 8 {
		return dst, corrupt("rle block truncated before first element")
	}
	v := binary.BigEndian.Uint64(body)
	body = body[8:]
	var delta uint64
	if n > 1 {
		z, k := binary.Uvarint(body)
		if k <= 0 {
			return dst, corrupt("rle block has no delta")
		}
		body = body[k:]
		delta = uint64(unzigzag(z))
	}
	if len(body) != 0 {
		return dst, corrupt("rle block carries %d trailing bytes", len(body))
	}
	dst = binary.BigEndian.AppendUint64(dst, v)
	if delta == 0 && n > 1 {
		// A zero-delta run is one 8-byte pattern repeated; doubling
		// copies rebuild it at memcpy speed instead of per-element
		// stores (zero fill and repeated-token runs are the hot shape).
		base := len(dst) - 8
		if need := (n - 1) * 8; cap(dst)-len(dst) >= need {
			dst = dst[:len(dst)+need]
		} else {
			dst = append(dst, make([]byte, need)...)
		}
		out := dst[base:]
		for filled := 8; filled < len(out); filled *= 2 {
			copy(out[filled:], out[:filled])
		}
		return dst, nil
	}
	for i := 1; i < n; i++ {
		v += delta
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	return dst, nil
}

func decodeIntPacked(dst, body []byte, n int) ([]byte, error) {
	if len(body) < 8 {
		return dst, corrupt("packed block truncated before first element")
	}
	v := binary.BigEndian.Uint64(body)
	body = body[8:]
	dst = binary.BigEndian.AppendUint64(dst, v)
	rem := n - 1
	for rem > 0 {
		if len(body) < 8 {
			return dst, corrupt("packed block short %d deltas", rem)
		}
		word := binary.BigEndian.Uint64(body)
		body = body[8:]
		sel := int(word >> 60)
		if sel < 2 {
			return dst, corrupt("invalid simple8b selector %d", sel)
		}
		cnt, bw := s8bCount[sel], s8bBits[sel]
		if cnt > rem {
			cnt = rem
		}
		mask := uint64(1)<<bw - 1
		for j := 0; j < cnt; j++ {
			z := (word >> (j * bw)) & mask
			v += uint64(unzigzag(z))
			dst = binary.BigEndian.AppendUint64(dst, v)
		}
		rem -= cnt
	}
	if len(body) != 0 {
		return dst, corrupt("packed block carries %d trailing bytes", len(body))
	}
	return dst, nil
}

func decodeFloatXOR(dst, body []byte, n int) ([]byte, error) {
	prev := uint64(0)
	for i := 0; i < n; i++ {
		if len(body) < 1 {
			return dst, corrupt("xor block short %d elements", n-i)
		}
		ctrl := body[0]
		body = body[1:]
		if ctrl != 0xFF {
			lead, trail := int(ctrl>>4), int(ctrl&0x0F)
			mid := 8 - lead - trail
			if lead > 7 || mid < 1 {
				return dst, corrupt("invalid xor control byte %#02x", ctrl)
			}
			if len(body) < mid {
				return dst, corrupt("xor block truncated mid-element")
			}
			var sig uint64
			for b := 0; b < mid; b++ {
				sig = sig<<8 | uint64(body[b])
			}
			body = body[mid:]
			prev ^= sig << (trail * 8)
		}
		dst = binary.BigEndian.AppendUint64(dst, prev)
	}
	if len(body) != 0 {
		return dst, corrupt("xor block carries %d trailing bytes", len(body))
	}
	return dst, nil
}

// AppendInt64s appends one sealed block holding vs to dst, falling back
// to the raw tag when the delta encodings do not pay for themselves.
// It is the value-level convenience over EncodeBE for tools and tests;
// links compress element bytes directly.
func AppendInt64s(dst []byte, vs []int64) []byte {
	src := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.BigEndian.PutUint64(src[i*8:], uint64(v))
	}
	var e Encoder
	if out, ok := e.EncodeBE(dst, src, ShapeInt64, len(src)); ok {
		return out
	}
	return AppendRaw(dst, src)
}

// AppendFloat64s is AppendInt64s for float64 elements.
func AppendFloat64s(dst []byte, vs []float64) []byte {
	src := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.BigEndian.PutUint64(src[i*8:], math.Float64bits(v))
	}
	var e Encoder
	if out, ok := e.EncodeBE(dst, src, ShapeFloat64, len(src)); ok {
		return out
	}
	return AppendRaw(dst, src)
}

// DecodeInt64s appends the elements of one sealed block to dst.
func DecodeInt64s(dst []int64, block []byte) ([]int64, error) {
	raw, err := decodeValues(block)
	if err != nil {
		return dst, err
	}
	for i := 0; i < len(raw); i += 8 {
		dst = append(dst, int64(binary.BigEndian.Uint64(raw[i:])))
	}
	return dst, nil
}

// DecodeFloat64s appends the elements of one sealed block to dst.
func DecodeFloat64s(dst []float64, block []byte) ([]float64, error) {
	raw, err := decodeValues(block)
	if err != nil {
		return dst, err
	}
	for i := 0; i < len(raw); i += 8 {
		dst = append(dst, math.Float64frombits(binary.BigEndian.Uint64(raw[i:])))
	}
	return dst, nil
}

// decodeValues is DecodeBE for the value APIs, which also round-trip
// an empty run: AppendRaw seals it as a TagRaw block of count 0, which
// no link sends and DecodeBE rejects.
func decodeValues(block []byte) ([]byte, error) {
	if len(block) == 2 && block[0] == TagRaw && block[1] == 0 {
		return nil, nil
	}
	return DecodeBE(nil, block, MaxCount*8)
}
