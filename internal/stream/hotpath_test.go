package stream

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

// TestGrowRacingReadWrite grows the pipe repeatedly while a producer
// and a consumer are moving a known byte sequence through it. Capacity
// growth mid-transfer must not drop, duplicate, or reorder bytes.
// Run under -race this also checks the lock discipline of Grow against
// the wake-avoidance fast paths.
func TestGrowRacingReadWrite(t *testing.T) {
	const total = 1 << 20
	p := NewPipe(64)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 997) // prime-ish, misaligned with capacities
		seq := byte(0)
		sent := 0
		for sent < total {
			n := len(buf)
			if total-sent < n {
				n = total - sent
			}
			for i := 0; i < n; i++ {
				buf[i] = seq
				seq++
			}
			if _, err := p.Write(buf[:n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			sent += n
		}
		p.CloseWrite()
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		caps := []int{128, 256, 1024, 4096, 65536}
		for _, c := range caps {
			p.Grow(c)
		}
	}()

	got := make([]byte, 0, total)
	buf := make([]byte, 1031)
	for {
		n, err := p.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	wg.Wait()
	if len(got) != total {
		t.Fatalf("got %d bytes, want %d", len(got), total)
	}
	seq := byte(0)
	for i, b := range got {
		if b != seq {
			t.Fatalf("byte %d: got %d, want %d (stream corrupted by Grow)", i, b, seq)
		}
		seq++
	}
}

// TestWriteVecSingleElement checks that a multi-part element written
// with WriteVec arrives contiguously and in order, including when the
// element must block across a full buffer.
func TestWriteVecSingleElement(t *testing.T) {
	p := NewPipe(8) // smaller than the element: WriteVec must block mid-element
	hdr := []byte{0, 0, 0, 12}
	payload := []byte("hello, world")

	done := make(chan error, 1)
	go func() {
		n, err := p.WriteVec(hdr, payload)
		if err == nil && n != len(hdr)+len(payload) {
			t.Errorf("WriteVec wrote %d, want %d", n, len(hdr)+len(payload))
		}
		done <- err
	}()

	got := make([]byte, 0, 16)
	buf := make([]byte, 4)
	for len(got) < len(hdr)+len(payload) {
		n, err := p.Read(buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatalf("WriteVec: %v", err)
	}
	want := append(append([]byte{}, hdr...), payload...)
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// TestWriteVecPoisoned checks the cascading-close rule holds on the
// vectored path: after CloseRead, WriteVec fails with ErrReadClosed.
func TestWriteVecPoisoned(t *testing.T) {
	p := NewPipe(16)
	p.CloseRead()
	if _, err := p.WriteVec([]byte{1}, []byte{2}); err != ErrReadClosed {
		t.Fatalf("got %v, want ErrReadClosed", err)
	}
}

// TestManyWritersManyReadersLiveness exercises the Signal-based wakeups
// with several producers and consumers on one pipe: the baton-passing
// chain (each woken party signals the next when work remains) must not
// strand a blocked goroutine. A lost wakeup shows up as a hang; the
// byte count checks no data is lost.
func TestManyWritersManyReadersLiveness(t *testing.T) {
	const (
		writers  = 4
		readers  = 4
		perWrite = 64
		rounds   = 500
	)
	p := NewPipe(128) // small: constant blocking on both sides

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, perWrite)
			for i := 0; i < rounds; i++ {
				if _, err := p.Write(buf); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		p.CloseWrite()
	}()

	var mu sync.Mutex
	received := 0
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			buf := make([]byte, 96)
			for {
				n, err := p.Read(buf)
				mu.Lock()
				received += n
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	rg.Wait()
	if want := writers * perWrite * rounds; received != want {
		t.Fatalf("received %d bytes, want %d", received, want)
	}
}

// TestSpliceBuffered checks the batch-drain bound: a pipe reports its
// own buffered bytes while it has any, and its continuation's once it
// has drained into it.
func TestSpliceBuffered(t *testing.T) {
	p := NewPipe(64)
	p.Write([]byte{1, 2, 3})
	p.Splice(pipeWith([]byte{4, 5}, true))
	if got := p.Buffered(); got != 3 {
		t.Fatalf("Buffered() = %d, want 3", got)
	}
	p.CloseWrite()
	if got := p.Buffered(); got != 3 {
		t.Fatalf("Buffered() after CloseWrite = %d, want 3 (own bytes first)", got)
	}
	p.Read(make([]byte, 3))
	if got := p.Buffered(); got != 2 {
		t.Fatalf("Buffered() once drained = %d, want the continuation's 2", got)
	}
	if got := p.ReadEnd().Buffered(); got != 2 {
		t.Fatalf("read end Buffered() = %d, want 2", got)
	}
}
