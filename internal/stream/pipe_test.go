package stream

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeBasicWriteRead(t *testing.T) {
	p := NewPipe(8)
	if n, err := p.Write([]byte("hello")); err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	buf := make([]byte, 10)
	n, err := p.Read(buf)
	if err != nil || n != 5 || string(buf[:5]) != "hello" {
		t.Fatalf("Read = %d, %v, %q", n, err, buf[:n])
	}
}

func TestPipeDefaultCapacity(t *testing.T) {
	for _, c := range []int{0, -1, -100} {
		if got := NewPipe(c).Cap(); got != DefaultCapacity {
			t.Errorf("NewPipe(%d).Cap() = %d, want %d", c, got, DefaultCapacity)
		}
	}
	if got := NewPipe(7).Cap(); got != 7 {
		t.Errorf("NewPipe(7).Cap() = %d", got)
	}
}

func TestPipeBlockingWriteUnblocksOnRead(t *testing.T) {
	p := NewPipe(4)
	if _, err := p.Write([]byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := p.Write([]byte{5, 6})
		done <- err
	}()
	// The writer must block: the buffer is full.
	select {
	case err := <-done:
		t.Fatalf("write completed on full pipe: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(p, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("unblocked write failed: %v", err)
	}
	if _, err := io.ReadFull(p, buf[:2]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 5 || buf[1] != 6 {
		t.Fatalf("got %v, want [5 6]", buf[:2])
	}
}

func TestPipeBlockingReadUnblocksOnWrite(t *testing.T) {
	p := NewPipe(4)
	got := make(chan byte, 1)
	go func() {
		b := make([]byte, 1)
		p.Read(b)
		got <- b[0]
	}()
	select {
	case <-got:
		t.Fatal("read completed on empty pipe")
	case <-time.After(20 * time.Millisecond):
	}
	p.Write([]byte{42})
	if b := <-got; b != 42 {
		t.Fatalf("got %d, want 42", b)
	}
}

func TestPipeEOFAfterCloseWriteDrains(t *testing.T) {
	p := NewPipe(8)
	p.Write([]byte("abc"))
	p.CloseWrite()
	buf := make([]byte, 8)
	n, err := p.Read(buf)
	if err != nil || string(buf[:n]) != "abc" {
		t.Fatalf("Read = %d, %v", n, err)
	}
	if _, err := p.Read(buf); err != io.EOF {
		t.Fatalf("Read after drain = %v, want io.EOF", err)
	}
	// EOF is sticky.
	if _, err := p.Read(buf); err != io.EOF {
		t.Fatalf("second Read after drain = %v, want io.EOF", err)
	}
}

func TestPipeWriteAfterCloseRead(t *testing.T) {
	p := NewPipe(8)
	p.Write([]byte("abc"))
	p.CloseRead()
	if _, err := p.Write([]byte("d")); err != ErrReadClosed {
		t.Fatalf("Write after CloseRead = %v, want ErrReadClosed", err)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after CloseRead = %d, want 0 (data discarded)", p.Len())
	}
}

func TestPipeCloseReadUnblocksWriter(t *testing.T) {
	p := NewPipe(2)
	p.Write([]byte{1, 2})
	done := make(chan error, 1)
	go func() {
		_, err := p.Write([]byte{3})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.CloseRead()
	if err := <-done; err != ErrReadClosed {
		t.Fatalf("blocked write after CloseRead = %v, want ErrReadClosed", err)
	}
}

func TestPipeCloseWriteUnblocksReader(t *testing.T) {
	p := NewPipe(2)
	done := make(chan error, 1)
	go func() {
		_, err := p.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	p.CloseWrite()
	if err := <-done; err != io.EOF {
		t.Fatalf("blocked read after CloseWrite = %v, want io.EOF", err)
	}
}

func TestPipeWriteAfterCloseWrite(t *testing.T) {
	p := NewPipe(8)
	p.CloseWrite()
	if _, err := p.Write([]byte{1}); err != ErrWriteClosed {
		t.Fatalf("got %v, want ErrWriteClosed", err)
	}
}

func TestPipeDoubleCloseIsNoop(t *testing.T) {
	p := NewPipe(8)
	if err := p.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseRead(); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseRead(); err != nil {
		t.Fatal(err)
	}
}

func TestPipeLargeWriteSpansBuffer(t *testing.T) {
	// A write larger than the capacity must complete incrementally as the
	// reader drains.
	p := NewPipe(16)
	src := make([]byte, 1000)
	for i := range src {
		src[i] = byte(i * 7)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var werr error
	go func() {
		defer wg.Done()
		_, werr = p.Write(src)
		p.CloseWrite()
	}()
	got, err := io.ReadAll(p.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("data corrupted: got %d bytes", len(got))
	}
}

func TestPipeGrowPreservesFIFO(t *testing.T) {
	p := NewPipe(8)
	p.Write([]byte{1, 2, 3, 4, 5})
	b := make([]byte, 2)
	io.ReadFull(p, b) // consume 1,2 → ring offset moves
	p.Write([]byte{6, 7, 8, 9, 10})
	if got := p.Grow(32); got != 32 {
		t.Fatalf("Grow = %d", got)
	}
	p.CloseWrite()
	rest, err := io.ReadAll(p.ReadEnd())
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{3, 4, 5, 6, 7, 8, 9, 10}
	if !bytes.Equal(rest, want) {
		t.Fatalf("after Grow got %v, want %v", rest, want)
	}
}

func TestPipeGrowIgnoresShrink(t *testing.T) {
	p := NewPipe(16)
	if got := p.Grow(8); got != 16 {
		t.Fatalf("Grow(8) on cap-16 pipe = %d, want 16", got)
	}
}

func TestPipeGrowUnblocksWriter(t *testing.T) {
	p := NewPipe(2)
	p.Write([]byte{1, 2})
	done := make(chan error, 1)
	go func() {
		_, err := p.Write([]byte{3, 4})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if _, full, _, _ := p.Waits(); !full {
		t.Fatal("writer should be blocked on full pipe")
	}
	p.Grow(8)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.CloseWrite()
	got, _ := io.ReadAll(p.ReadEnd())
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestPipeDrain(t *testing.T) {
	p := NewPipe(8)
	p.Write([]byte{9, 8, 7})
	got := p.Drain()
	if !bytes.Equal(got, []byte{9, 8, 7}) {
		t.Fatalf("Drain = %v", got)
	}
	if p.Len() != 0 {
		t.Fatalf("Len after Drain = %d", p.Len())
	}
}

func TestPipeBlockedCounts(t *testing.T) {
	p := NewPipe(1)
	go p.Read(make([]byte, 1))
	deadline := time.Now().Add(time.Second)
	for p.BlockedReaders() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("reader never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	p.Write([]byte{1}) // release reader
	p.Write([]byte{2}) // fill buffer
	go p.Write([]byte{3})
	deadline = time.Now().Add(time.Second)
	for p.BlockedWriters() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("writer never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	if _, full, _, _ := p.Waits(); !full {
		t.Fatal("Waits should report a writer blocked on a full buffer")
	}
	p.CloseRead()
}

// countObserver counts observer callbacks.
type countObserver struct {
	mu                 sync.Mutex
	blocked, unblocked int
}

func (c *countObserver) PipeBlocked(*Pipe, bool) {
	c.mu.Lock()
	c.blocked++
	c.mu.Unlock()
}
func (*countObserver) PipeLinkWait(*Pipe, bool) {}
func (c *countObserver) PipeUnblocked(*Pipe, bool) {
	c.mu.Lock()
	c.unblocked++
	c.mu.Unlock()
}

func TestPipeObserverCallbacks(t *testing.T) {
	p := NewPipe(1)
	o := &countObserver{}
	p.SetHooks(o, nil)
	p.Write([]byte{1})
	done := make(chan struct{})
	go func() {
		p.Write([]byte{2})
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	p.Read(make([]byte, 1))
	<-done
	p.CloseWrite()
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.blocked == 0 || o.unblocked == 0 {
		t.Fatalf("observer not invoked: %+v", o)
	}
	if o.blocked != o.unblocked {
		t.Fatalf("blocked %d != unblocked %d", o.blocked, o.unblocked)
	}
}

// TestPipeFIFOProperty: for any sequence of chunk sizes, concurrent write
// and read preserve exact byte order (the defining channel property).
func TestPipeFIFOProperty(t *testing.T) {
	f := func(data []byte, capSeed uint8) bool {
		capacity := int(capSeed)%64 + 1
		p := NewPipe(capacity)
		go func() {
			rng := rand.New(rand.NewSource(int64(capSeed)))
			rest := data
			for len(rest) > 0 {
				n := rng.Intn(len(rest)) + 1
				p.Write(rest[:n])
				rest = rest[n:]
			}
			p.CloseWrite()
		}()
		got, err := io.ReadAll(p.ReadEnd())
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPipeInterleavedRandomOps drives a writer and reader with random
// chunk sizes over a small buffer and checks full content equality.
func TestPipeInterleavedRandomOps(t *testing.T) {
	const total = 1 << 16
	p := NewPipe(37)
	src := make([]byte, total)
	rand.New(rand.NewSource(1)).Read(src)
	go func() {
		rng := rand.New(rand.NewSource(2))
		rest := src
		for len(rest) > 0 {
			n := rng.Intn(97) + 1
			if n > len(rest) {
				n = len(rest)
			}
			p.Write(rest[:n])
			rest = rest[n:]
		}
		p.CloseWrite()
	}()
	var got []byte
	rng := rand.New(rand.NewSource(3))
	buf := make([]byte, 128)
	for {
		n, err := p.Read(buf[:rng.Intn(127)+1])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, src) {
		t.Fatal("interleaved transfer corrupted data")
	}
}

func TestPipeZeroLengthRead(t *testing.T) {
	p := NewPipe(4)
	n, err := p.Read(nil)
	if n != 0 || err != nil {
		t.Fatalf("Read(nil) = %d, %v", n, err)
	}
}

func TestPipeReadAfterCloseReadReturnsError(t *testing.T) {
	p := NewPipe(4)
	p.CloseRead()
	if _, err := p.Read(make([]byte, 1)); err != ErrReadClosed {
		t.Fatalf("got %v, want ErrReadClosed", err)
	}
}

func TestPipeEndsAdapters(t *testing.T) {
	p := NewPipe(4)
	w := p.WriteEnd()
	r := p.ReadEnd()
	w.Write([]byte{5})
	b := make([]byte, 1)
	if _, err := r.Read(b); err != nil || b[0] != 5 {
		t.Fatalf("adapter read failed: %v %v", b, err)
	}
	w.Close()
	if !p.WriteClosed() {
		t.Fatal("WriteEnd.Close did not close write side")
	}
	r.Close()
	if !p.ReadClosed() {
		t.Fatal("ReadEnd.Close did not close read side")
	}
}

// TestUnboundReleasesBlockedWriter: lifting the bound wakes a writer
// already parked on a full buffer and lets every later write through,
// growing the buffer by exactly what the writes need.
func TestUnboundReleasesBlockedWriter(t *testing.T) {
	p := NewPipe(8)
	done := make(chan error, 1)
	go func() {
		_, err := p.Write(make([]byte, 20)) // 8 fit, 12 wait
		done <- err
	}()
	for p.BlockedWriters() == 0 {
		time.Sleep(time.Millisecond)
	}
	p.Unbound()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked writer not released by Unbound")
	}
	if _, err := p.Write(make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	if p.Len() != 25 || p.Cap() != 25 {
		t.Fatalf("after unbounded writes: len %d cap %d, want 25 and 25", p.Len(), p.Cap())
	}
}
