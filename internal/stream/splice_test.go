package stream

import (
	"bytes"
	"io"
	"testing"
	"testing/quick"
	"time"
)

func pipeWith(data []byte, closed bool) *Pipe {
	p := NewPipe(len(data) + 1)
	if len(data) > 0 {
		p.Write(data)
	}
	if closed {
		p.CloseWrite()
	}
	return p
}

// spliced returns a pipe with nothing in it and its write end closed,
// whose reads therefore begin at its first continuation.
func spliced(srcs ...*Pipe) *Pipe {
	p := pipeWith(nil, true)
	for _, src := range srcs {
		p.Splice(src)
	}
	return p
}

func TestSpliceSingleSource(t *testing.T) {
	got, err := io.ReadAll(spliced(pipeWith([]byte("abc"), true)).ReadEnd())
	if err != nil || string(got) != "abc" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSpliceOrder(t *testing.T) {
	// The splice-out scenario of Figure 10: the consumer reads the rest of
	// channel 2, then continues seamlessly with channel 1, then with
	// whatever was spliced behind it.
	ch2 := pipeWith([]byte("rest-of-2."), true)
	ch1 := pipeWith([]byte("then-1."), true)
	ch0 := pipeWith([]byte("then-0"), true)
	ch2.Splice(ch1)
	ch2.Splice(ch0) // goes behind ch1, through ch1's own Splice
	got, err := io.ReadAll(ch2.ReadEnd())
	if err != nil || string(got) != "rest-of-2.then-1.then-0" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSpliceAppendBeforeEOFNeverLosesData(t *testing.T) {
	// The splice happens while the first pipe still has data and an open
	// write end; the boundary must be invisible.
	ch2 := pipeWith([]byte("xy"), false)
	ch1 := pipeWith([]byte("z"), true)
	ch2.Splice(ch1)
	ch2.CloseWrite()
	got, err := io.ReadAll(ch2.ReadEnd())
	if err != nil || string(got) != "xyz" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSpliceEmptySources(t *testing.T) {
	p := spliced(pipeWith(nil, true), pipeWith(nil, true), pipeWith([]byte("end"), true))
	got, err := io.ReadAll(p.ReadEnd())
	if err != nil || string(got) != "end" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSpliceNilStart(t *testing.T) {
	// A drained, closed pipe with no continuation ends; a splice onto it
	// afterwards makes it go on.
	p := spliced()
	if _, err := p.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("empty pipe Read = %v, want io.EOF", err)
	}
	p.Splice(pipeWith([]byte("a"), true))
	b := make([]byte, 4)
	n, err := p.Read(b)
	if err != nil || string(b[:n]) != "a" {
		t.Fatalf("got %q, %v", b[:n], err)
	}
}

func TestSpliceCloseClosesContinuation(t *testing.T) {
	p1 := pipeWith([]byte("a"), false)
	p2 := pipeWith([]byte("b"), false)
	p3 := pipeWith([]byte("c"), false)
	p1.Splice(p2)
	p1.Splice(p3)
	p1.CloseRead()
	if !p1.ReadClosed() || !p2.ReadClosed() || !p3.ReadClosed() {
		t.Fatal("CloseRead did not close the spliced continuations")
	}
	if _, err := p1.Read(make([]byte, 1)); err != ErrReadClosed {
		t.Fatalf("Read after CloseRead = %v", err)
	}
	// Splicing onto a closed consumer closes the new source at once,
	// poisoning its writer.
	p4 := pipeWith(nil, false)
	p1.Splice(p4)
	if !p4.ReadClosed() {
		t.Fatal("Splice after CloseRead did not poison the source")
	}
	if _, err := p4.Write([]byte("x")); err != ErrReadClosed {
		t.Fatalf("write into a source spliced onto a closed pipe = %v, want ErrReadClosed", err)
	}
	if err := p1.CloseRead(); err != nil {
		t.Fatalf("double CloseRead = %v", err)
	}
}

// TestReadAfterCloseReadIsErrReadClosed: a drained pipe whose writer
// closed first still tells a read after CloseRead that the read end is
// gone, not that the stream ended.
func TestReadAfterCloseReadIsErrReadClosed(t *testing.T) {
	p := pipeWith([]byte("a"), true)
	p.CloseRead()
	if _, err := p.Read(make([]byte, 1)); err != ErrReadClosed {
		t.Fatalf("Read after CloseWrite and CloseRead = %v, want ErrReadClosed", err)
	}
}

// Property: splitting a byte string across any number of spliced pipes
// yields the concatenation.
func TestSpliceConcatenationProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		var want []byte
		p := spliced()
		for _, part := range parts {
			want = append(want, part...)
			p.Splice(pipeWith(part, true))
		}
		got, err := io.ReadAll(p.ReadEnd())
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Stress: splices racing reads must never lose, duplicate, or reorder
// bytes — the splice-out operation happens while the consumer is
// actively reading.
func TestSpliceConcurrentStress(t *testing.T) {
	const sources = 50
	const perSource = 200
	head := spliced()
	var want []byte
	pipes := make([]*Pipe, sources)
	for i := range pipes {
		pipes[i] = NewPipe(64)
		for j := 0; j < perSource; j++ {
			want = append(want, byte(i), byte(j))
		}
	}
	// Splicer: adds each source, then feeds it, racing the reader.
	go func() {
		for i, p := range pipes {
			head.Splice(p)
			go func(i int, p *Pipe) {
				for j := 0; j < perSource; j++ {
					p.Write([]byte{byte(i), byte(j)})
				}
				p.CloseWrite()
			}(i, p)
		}
	}()
	var got []byte
	buf := make([]byte, 7)
	deadline := time.Now().Add(30 * time.Second)
	for len(got) < len(want) {
		if time.Now().After(deadline) {
			t.Fatalf("stalled at %d of %d bytes", len(got), len(want))
		}
		n, err := head.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			// EOF between splices is possible only if the reader outruns
			// the splicer; keep polling until all bytes arrive.
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("concurrent splice corrupted the stream")
	}
}
