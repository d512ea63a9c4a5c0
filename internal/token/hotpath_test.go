package token

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dpn/internal/stream"
)

// countingSink records how many Write calls the codec issues. It is a
// plain io.Writer — no WriteVec, no Buffered — so it stands in for a
// migrated transport where a torn element would interleave with other
// traffic.
type countingSink struct {
	bytes.Buffer
	writes int
}

func (c *countingSink) Write(b []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(b)
}

// vecSink additionally offers WriteVec, counting vectored ops
// separately, to check the codec prefers one vectored call for large
// elements instead of staging a copy.
type vecSink struct {
	countingSink
	vecs int
}

func (v *vecSink) WriteVec(bufs ...[]byte) (int, error) {
	v.vecs++
	n := 0
	for _, b := range bufs {
		m, err := v.Buffer.Write(b)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestOneWritePerElement is the regression test for the torn-element
// bug: every element kind must reach a non-vectored sink in exactly one
// Write call, so a concurrent element on a shared transport can never
// land between a length prefix and its payload.
func TestOneWritePerElement(t *testing.T) {
	big := make([]byte, stageMax+100) // larger than the staging buffer
	for i := range big {
		big[i] = byte(i)
	}
	cases := []struct {
		name  string
		write func(e *Writer) error
	}{
		{"Int64", func(e *Writer) error { return e.WriteInt64(-42) }},
		{"Int32", func(e *Writer) error { return e.WriteInt32(7) }},
		{"Float64", func(e *Writer) error { return e.WriteFloat64(3.25) }},
		{"Bool", func(e *Writer) error { return e.WriteBool(true) }},
		{"Byte", func(e *Writer) error { return e.WriteByte(0xAB) }},
		{"Block", func(e *Writer) error { return e.WriteBlock([]byte("payload")) }},
		{"BlockHuge", func(e *Writer) error { return e.WriteBlock(big) }},
		{"String", func(e *Writer) error { return e.WriteString("hello") }},
		{"Object", func(e *Writer) error { return e.WriteObject(struct{ A, B int }{1, 2}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := &countingSink{}
			e := NewWriter(sink)
			if err := tc.write(e); err != nil {
				t.Fatal(err)
			}
			if sink.writes != 1 {
				t.Fatalf("element reached the sink in %d writes, want 1", sink.writes)
			}
		})
	}
}

// TestLargeBlockUsesWriteVec checks that an element too big to stage
// goes out as a single vectored call when the sink supports it, rather
// than being copied into a transient buffer.
func TestLargeBlockUsesWriteVec(t *testing.T) {
	big := make([]byte, stageMax+1)
	sink := &vecSink{}
	e := NewWriter(sink)
	if err := e.WriteBlock(big); err != nil {
		t.Fatal(err)
	}
	if sink.vecs != 1 || sink.writes != 0 {
		t.Fatalf("got %d WriteVec + %d Write calls, want exactly 1 WriteVec", sink.vecs, sink.writes)
	}
	// A small block should be staged into one plain write instead.
	if err := e.WriteBlock([]byte("small")); err != nil {
		t.Fatal(err)
	}
	if sink.vecs != 1 || sink.writes != 1 {
		t.Fatalf("small block: got %d WriteVec + %d Write calls, want 1 + 1", sink.vecs, sink.writes)
	}
}

// TestBatchInt64RoundTrip streams values through a real pipe with the
// batched writer and reader and checks the sequence matches exactly.
// The batch reader may only consume bytes that are already buffered, so
// this also covers the partial-drain path where a batch read returns
// fewer values than the destination holds.
func TestBatchInt64RoundTrip(t *testing.T) {
	const total = 10000
	p := stream.NewPipe(256) // small: forces many partial batches
	e := NewWriter(p.WriteEnd())
	d := NewReader(p.ReadEnd())

	go func() {
		buf := make([]int64, 0, 128)
		for i := 0; i < total; i++ {
			buf = append(buf, int64(i)*3-total)
			if len(buf) == cap(buf) {
				if err := e.WriteInt64s(buf); err != nil {
					t.Errorf("WriteInt64s: %v", err)
					return
				}
				buf = buf[:0]
			}
		}
		if err := e.WriteInt64s(buf); err != nil {
			t.Errorf("WriteInt64s: %v", err)
		}
		p.CloseWrite()
	}()

	got := make([]int64, 0, total)
	dst := make([]int64, 97)
	for len(got) < total {
		n, err := d.ReadInt64s(dst)
		if err != nil {
			t.Fatalf("ReadInt64s after %d values: %v", len(got), err)
		}
		if n == 0 {
			t.Fatal("ReadInt64s returned 0 values without error")
		}
		got = append(got, dst[:n]...)
	}
	for i, v := range got {
		if want := int64(i)*3 - total; v != want {
			t.Fatalf("value %d: got %d, want %d", i, v, want)
		}
	}
}

// TestBatchFloat64RoundTrip does the same for the float batch APIs.
func TestBatchFloat64RoundTrip(t *testing.T) {
	const total = 4096
	p := stream.NewPipe(512)
	e := NewWriter(p.WriteEnd())
	d := NewReader(p.ReadEnd())

	go func() {
		vs := make([]float64, total)
		for i := range vs {
			vs[i] = float64(i) * 0.5
		}
		if err := e.WriteFloat64s(vs); err != nil {
			t.Errorf("WriteFloat64s: %v", err)
		}
		p.CloseWrite()
	}()

	got := make([]float64, 0, total)
	dst := make([]float64, 64)
	for len(got) < total {
		n, err := d.ReadFloat64s(dst)
		if err != nil {
			t.Fatalf("ReadFloat64s after %d values: %v", len(got), err)
		}
		got = append(got, dst[:n]...)
	}
	for i, v := range got {
		if want := float64(i) * 0.5; v != want {
			t.Fatalf("value %d: got %g, want %g", i, v, want)
		}
	}
}

// TestBatchReadOpaqueSource checks the conservative fallback: a source
// without Buffered() still works — each batch read just returns one
// value, since the reader may not block for more than the first.
func TestBatchReadOpaqueSource(t *testing.T) {
	var buf bytes.Buffer
	e := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		if err := e.WriteInt64(int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	d := NewReader(opaqueReader{&buf})
	dst := make([]int64, 16)
	got := []int64{}
	for len(got) < 5 {
		n, err := d.ReadInt64s(dst)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, dst[:n]...)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("value %d: got %d", i, v)
		}
	}
}

// opaqueReader hides bytes.Buffer's other methods so the token reader
// sees a bare io.Reader.
type opaqueReader struct{ b *bytes.Buffer }

func (o opaqueReader) Read(p []byte) (int, error) { return o.b.Read(p) }

// TestConcurrentObjectRoundTrip hammers the pooled gob machinery from
// many goroutines at once. Each goroutine owns a pipe pair; the encode
// and decode scratch buffers come from shared pools, so -race flushes
// out any buffer returned while still referenced.
func TestConcurrentObjectRoundTrip(t *testing.T) {
	type msg struct {
		ID   int
		Name string
		Data []byte
	}
	const (
		goroutines = 8
		iters      = 200
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := stream.NewPipe(4096)
			e := NewWriter(p.WriteEnd())
			d := NewReader(p.ReadEnd())
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < iters; i++ {
					in := msg{ID: g*iters + i, Name: fmt.Sprintf("g%d-i%d", g, i), Data: bytes.Repeat([]byte{byte(i)}, i%64)}
					if err := e.WriteObject(in); err != nil {
						t.Errorf("WriteObject: %v", err)
						return
					}
				}
				p.CloseWrite()
			}()
			for i := 0; i < iters; i++ {
				var out msg
				if err := d.ReadObject(&out); err != nil {
					t.Errorf("ReadObject %d: %v", i, err)
					break
				}
				if out.ID != g*iters+i || out.Name != fmt.Sprintf("g%d-i%d", g, i) || len(out.Data) != i%64 {
					t.Errorf("goroutine %d object %d corrupted: %+v", g, i, out)
					break
				}
			}
			<-done
		}(g)
	}
	wg.Wait()
}

// TestReadBlockBufReuse checks that a destination with enough capacity
// is reused instead of reallocated.
func TestReadBlockBufReuse(t *testing.T) {
	var buf bytes.Buffer
	e := NewWriter(&buf)
	if err := e.WriteBlock([]byte("first block")); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteBlock([]byte("second")); err != nil {
		t.Fatal(err)
	}
	d := NewReader(&buf)
	b1, err := d.ReadBlockBuf(make([]byte, 0, 64))
	if err != nil {
		t.Fatal(err)
	}
	back := b1[:cap(b1)]
	b2, err := d.ReadBlockBuf(b1)
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != "second" {
		t.Fatalf("got %q", b2)
	}
	if &back[0] != &b2[:1][0] {
		t.Fatal("ReadBlockBuf reallocated despite sufficient capacity")
	}
}

// TestStagingGrowsToFit pins the staging policy a long-lived codec
// relies on: nothing is held until a call needs staging, the buffer is
// sized by the calls actually made (at least doubling, so growth is
// logarithmic), and it never exceeds stageMax.
func TestStagingGrowsToFit(t *testing.T) {
	var sink bytes.Buffer
	w := NewWriter(&sink)
	for i := 0; i < 100; i++ {
		w.WriteInt64(int64(i))
	}
	if cap(w.stage) != 0 {
		t.Fatalf("single-element writes left a %d-byte staging buffer", cap(w.stage))
	}
	w.WriteInt64s(make([]int64, 3))
	if got := cap(w.stage); got != 24 {
		t.Fatalf("first 3-element batch staged %d bytes, want 24", got)
	}
	w.WriteInt64s(make([]int64, 4)) // 32 B > 24 B: at least doubles
	if got := cap(w.stage); got != 48 {
		t.Fatalf("growth to fit 32 bytes gave %d, want 48 (doubling)", got)
	}
	w.WriteInt64s(make([]int64, 3*stageMax/8))
	if got := cap(w.stage); got != stageMax {
		t.Fatalf("a batch beyond stageMax left %d bytes staged, want %d", got, stageMax)
	}

	p := stream.NewPipe(1 << 12)
	p.Write(sink.Bytes()[:1<<12])
	r := NewReader(p.ReadEnd())
	for i := 0; i < 10; i++ {
		r.ReadInt64()
	}
	if cap(r.stage) != 0 {
		t.Fatalf("single-element reads left a %d-byte staging buffer", cap(r.stage))
	}
	dst := make([]int64, 5)
	if n, err := r.ReadInt64s(dst); n != 5 || err != nil {
		t.Fatalf("batch read: %d, %v", n, err)
	}
	if got := cap(r.stage); got != 32 { // the first element bypasses staging
		t.Fatalf("5-element batch read staged %d bytes, want 32", got)
	}
}
