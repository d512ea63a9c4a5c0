// Package blockcodec implements the paper's motivating example for
// embarrassingly parallel computing (§5): "an image can be divided
// into 16x16 blocks of pixels that are compressed independently with
// the results collected and written in order to an image file. In this
// example, a Producer breaks the image down into blocks of pixels, one
// or more Workers compress each block, and a Consumer writes each
// compressed block to an image file."
//
// The codec is deliberately simple — uniform quantization followed by
// run-length encoding — because the experiment is about the process
// network, not the compression: blocks are independent work units of
// meaningful size whose results must be reassembled in order. The
// package provides the image raster, block splitting/assembly, the
// codec, and the meta.Task types that drive the generic
// Producer/Worker/Consumer processes.
package blockcodec

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"dpn/internal/meta"
)

// Image is a simple grayscale raster.
type Image struct {
	W, H int
	Pix  []byte // row-major, len == W*H
}

// NewImage allocates a zeroed raster.
func NewImage(w, h int) *Image {
	return &Image{W: w, H: h, Pix: make([]byte, w*h)}
}

// Synthetic renders a deterministic grayscale test pattern (smooth
// gradients plus ripples), compressible but not trivial.
func Synthetic(w, h int, seed int64) *Image {
	img := NewImage(w, h)
	fs := float64(seed%251) + 3
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 96*math.Sin(float64(x)/fs) + 96*math.Cos(float64(y)/(fs/2)) + 64
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			img.Pix[y*w+x] = byte(v)
		}
	}
	return img
}

// Block is one rectangular tile of an image.
type Block struct {
	Index int // position in row-major block order
	X, Y  int // top-left pixel
	W, H  int
	Pix   []byte // row-major within the block
}

// Split cuts an image into blockSize×blockSize tiles in row-major
// order; edge tiles are smaller when the dimensions do not divide
// evenly.
func Split(img *Image, blockSize int) []Block {
	if blockSize <= 0 {
		blockSize = 16
	}
	var out []Block
	idx := 0
	for y := 0; y < img.H; y += blockSize {
		for x := 0; x < img.W; x += blockSize {
			bw := min(blockSize, img.W-x)
			bh := min(blockSize, img.H-y)
			b := Block{Index: idx, X: x, Y: y, W: bw, H: bh, Pix: make([]byte, bw*bh)}
			for r := 0; r < bh; r++ {
				copy(b.Pix[r*bw:(r+1)*bw], img.Pix[(y+r)*img.W+x:(y+r)*img.W+x+bw])
			}
			out = append(out, b)
			idx++
		}
	}
	return out
}

// Assemble reconstructs an image of the given dimensions from blocks
// (any order; Index/X/Y position them).
func Assemble(w, h int, blocks []Block) (*Image, error) {
	img := NewImage(w, h)
	covered := 0
	for _, b := range blocks {
		if b.X < 0 || b.Y < 0 || b.X+b.W > w || b.Y+b.H > h {
			return nil, fmt.Errorf("blockcodec: block %d out of bounds", b.Index)
		}
		if len(b.Pix) != b.W*b.H {
			return nil, fmt.Errorf("blockcodec: block %d has %d pixels, want %d", b.Index, len(b.Pix), b.W*b.H)
		}
		for r := 0; r < b.H; r++ {
			copy(img.Pix[(b.Y+r)*w+b.X:(b.Y+r)*w+b.X+b.W], b.Pix[r*b.W:(r+1)*b.W])
		}
		covered += b.W * b.H
	}
	if covered != w*h {
		return nil, errors.New("blockcodec: blocks do not tile the image")
	}
	return img, nil
}

// Compressed is one run-length-encoded, quantized block.
type Compressed struct {
	Index int
	X, Y  int
	W, H  int
	Quant int
	Runs  []byte // pairs: count (1..255), value
}

// Quantize maps a pixel onto the q-level grid (q ≤ 1 disables
// quantization).
func Quantize(v byte, q int) byte {
	if q <= 1 {
		return v
	}
	step := 256 / q
	if step < 1 {
		step = 1
	}
	return byte(int(v) / step * step)
}

// Compress quantizes a block to q levels and run-length encodes it.
func Compress(b Block, q int) Compressed {
	c := Compressed{Index: b.Index, X: b.X, Y: b.Y, W: b.W, H: b.H, Quant: q}
	if len(b.Pix) == 0 {
		return c
	}
	cur := Quantize(b.Pix[0], q)
	count := 1
	flush := func() {
		c.Runs = append(c.Runs, byte(count), cur)
	}
	for _, raw := range b.Pix[1:] {
		v := Quantize(raw, q)
		if v == cur && count < 255 {
			count++
			continue
		}
		flush()
		cur, count = v, 1
	}
	flush()
	return c
}

// Decompress expands a compressed block back into pixels (quantized —
// the codec is lossy by the quantization step only).
func Decompress(c Compressed) (Block, error) {
	b := Block{Index: c.Index, X: c.X, Y: c.Y, W: c.W, H: c.H, Pix: make([]byte, 0, c.W*c.H)}
	if len(c.Runs)%2 != 0 {
		return b, errors.New("blockcodec: odd run data")
	}
	for i := 0; i < len(c.Runs); i += 2 {
		count := int(c.Runs[i])
		v := c.Runs[i+1]
		for j := 0; j < count; j++ {
			b.Pix = append(b.Pix, v)
		}
	}
	if len(b.Pix) != c.W*c.H {
		return b, fmt.Errorf("blockcodec: decoded %d pixels, want %d", len(b.Pix), c.W*c.H)
	}
	return b, nil
}

// CompressedSize returns the encoded byte count of a compressed block.
func (c Compressed) CompressedSize() int { return len(c.Runs) }

// ---------------------------------------------------------------------
// meta.Task plumbing: the producer/worker/consumer tasks of §5.
// ---------------------------------------------------------------------

// BlockSource is the producer task: each Run yields the next block's
// CompressTask until the image is exhausted.
type BlockSource struct {
	Blocks []Block
	Quant  int
	Next   int
}

// NewBlockSource splits an image and returns the producer task.
func NewBlockSource(img *Image, blockSize, quant int) *BlockSource {
	return &BlockSource{Blocks: Split(img, blockSize), Quant: quant}
}

// Run implements meta.Task.
func (s *BlockSource) Run() (meta.Task, error) {
	if s.Next >= len(s.Blocks) {
		return nil, nil
	}
	b := s.Blocks[s.Next]
	s.Next++
	return &CompressTask{B: b, Quant: s.Quant}, nil
}

// CompressTask is the worker task: compress one block.
type CompressTask struct {
	B     Block
	Quant int
}

// Run implements meta.Task.
func (t *CompressTask) Run() (meta.Task, error) {
	return &CompressedBlock{C: Compress(t.B, t.Quant)}, nil
}

// CompressedBlock is the consumer task carrying one result.
type CompressedBlock struct {
	C Compressed
}

// Run implements meta.Task.
func (r *CompressedBlock) Run() (meta.Task, error) { return nil, nil }

func init() {
	gob.Register(&BlockSource{})
	gob.Register(&CompressTask{})
	gob.Register(&CompressedBlock{})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
