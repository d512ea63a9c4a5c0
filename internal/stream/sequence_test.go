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

func TestSequenceReaderSingleSource(t *testing.T) {
	s := NewSequenceReader(pipeWith([]byte("abc"), true).ReadEnd())
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "abc" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSequenceReaderSplice(t *testing.T) {
	// The splice-out scenario of Figure 10: the consumer reads the rest of
	// channel 2, then continues seamlessly with channel 1.
	ch2 := pipeWith([]byte("rest-of-2."), true)
	ch1 := pipeWith([]byte("then-1"), true)
	s := NewSequenceReader(ch2.ReadEnd())
	s.Append(ch1.ReadEnd())
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "rest-of-2.then-1" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSequenceReaderAppendBeforeEOFNeverLosesData(t *testing.T) {
	// Append happens while the first source still has data; the boundary
	// must be invisible.
	ch2 := pipeWith([]byte("xy"), false)
	ch1 := pipeWith([]byte("z"), true)
	s := NewSequenceReader(ch2.ReadEnd())
	s.Append(ch1.ReadEnd())
	ch2.CloseWrite()
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "xyz" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSequenceReaderEmptySources(t *testing.T) {
	s := NewSequenceReader(pipeWith(nil, true).ReadEnd())
	s.Append(pipeWith(nil, true).ReadEnd())
	s.Append(pipeWith([]byte("end"), true).ReadEnd())
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "end" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestSequenceReaderNilStart(t *testing.T) {
	s := NewSequenceReader(nil)
	if _, err := s.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("empty sequence Read = %v, want io.EOF", err)
	}
	s.Append(pipeWith([]byte("a"), true).ReadEnd())
	b := make([]byte, 4)
	n, err := s.Read(b)
	if err != nil || string(b[:n]) != "a" {
		t.Fatalf("got %q, %v", b[:n], err)
	}
}

func TestSequenceReaderCloseClosesSources(t *testing.T) {
	p1 := pipeWith([]byte("a"), false)
	p2 := pipeWith([]byte("b"), false)
	s := NewSequenceReader(p1.ReadEnd())
	s.Append(p2.ReadEnd())
	s.Close()
	if !p1.ReadClosed() || !p2.ReadClosed() {
		t.Fatal("Close did not close queued sources")
	}
	if _, err := s.Read(make([]byte, 1)); err != ErrReadClosed {
		t.Fatalf("Read after Close = %v", err)
	}
	// Appending after close closes the new source immediately.
	p3 := pipeWith(nil, false)
	s.Append(p3.ReadEnd())
	if !p3.ReadClosed() {
		t.Fatal("Append after Close did not poison source")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestSequenceReaderRetarget(t *testing.T) {
	p1 := pipeWith([]byte("old"), false)
	p2 := pipeWith([]byte("new"), true)
	s := NewSequenceReader(p1.ReadEnd())
	s.Retarget(p2.ReadEnd())
	if !p1.ReadClosed() {
		t.Fatal("Retarget did not close displaced source")
	}
	got, err := io.ReadAll(s)
	if err != nil || string(got) != "new" {
		t.Fatalf("got %q, %v", got, err)
	}
}

// Property: splitting a byte string across any number of sources yields
// the concatenation.
func TestSequenceReaderConcatenationProperty(t *testing.T) {
	f := func(parts [][]byte) bool {
		var want []byte
		s := NewSequenceReader(nil)
		for _, part := range parts {
			want = append(want, part...)
			s.Append(pipeWith(part, true).ReadEnd())
		}
		got, err := io.ReadAll(s)
		return err == nil && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchWriterBasics(t *testing.T) {
	p1 := NewPipe(16)
	p2 := NewPipe(16)
	sw := NewSwitchWriter(p1.WriteEnd())
	sw.Write([]byte("one"))
	old := sw.Retarget(p2.WriteEnd())
	if old == nil {
		t.Fatal("Retarget should return previous sink")
	}
	sw.Write([]byte("two"))
	if got := string(p1.Drain()); got != "one" {
		t.Fatalf("p1 got %q", got)
	}
	if got := string(p2.Drain()); got != "two" {
		t.Fatalf("p2 got %q", got)
	}
	sw.Close()
	if !p2.WriteClosed() {
		t.Fatal("Close did not close current sink")
	}
	if _, err := sw.Write([]byte("x")); err != ErrWriteClosed {
		t.Fatalf("Write after Close = %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
}

func TestSwitchWriterNilSink(t *testing.T) {
	sw := NewSwitchWriter(nil)
	if _, err := sw.Write([]byte("x")); err != ErrWriteClosed {
		t.Fatalf("Write with nil sink = %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// Stress: appends racing reads must never lose, duplicate, or reorder
// bytes — the splice-out operation happens while the consumer is
// actively reading.
func TestSequenceReaderConcurrentAppendStress(t *testing.T) {
	const sources = 50
	const perSource = 200
	s := NewSequenceReader(nil)
	var want []byte
	pipes := make([]*Pipe, sources)
	for i := range pipes {
		pipes[i] = NewPipe(64)
		for j := 0; j < perSource; j++ {
			want = append(want, byte(i), byte(j))
		}
	}
	// Appender: adds each source, then feeds it, racing the reader.
	go func() {
		for i, p := range pipes {
			s.Append(p.ReadEnd())
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
		n, err := s.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			// EOF between appends is possible only if the reader outruns
			// the appender; keep polling until all bytes arrive.
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
