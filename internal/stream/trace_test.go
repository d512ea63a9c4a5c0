package stream

import (
	"testing"
	"time"

	"dpn/internal/obs"
)

func TestPipeTraceMarkTakeOnce(t *testing.T) {
	p := NewPipe(16)
	if got := p.TakeTraceMark(); got != 0 {
		t.Fatalf("fresh pipe mark = %d", got)
	}
	p.MarkTrace(42)
	if got := p.TakeTraceMark(); got != 42 {
		t.Fatalf("mark = %d, want 42", got)
	}
	if got := p.TakeTraceMark(); got != 0 {
		t.Fatalf("mark taken twice: %d", got)
	}
}

func TestPipeTraceMarkZeroIgnored(t *testing.T) {
	p := NewPipe(16)
	p.MarkTrace(7)
	p.MarkTrace(0) // 0 = "not sampled" and must not erase a pending mark
	if got := p.TakeTraceMark(); got != 7 {
		t.Fatalf("mark = %d, want 7", got)
	}
}

func TestPipeTraceMarkLatestWins(t *testing.T) {
	p := NewPipe(16)
	p.MarkTrace(1)
	p.MarkTrace(2)
	if got := p.TakeTraceMark(); got != 2 {
		t.Fatalf("mark = %d, want 2 (latest)", got)
	}
}

// The pipe's read and write halves carry the trace marks, so a
// transport holding a half picks marks up, and a drained pipe hands on
// its continuation's.
func TestTraceMarkThroughEndsAndSplice(t *testing.T) {
	p := NewPipe(16)
	p.WriteEnd().MarkTrace(11)

	head := spliced(p)
	if got := head.ReadEnd().TakeTraceMark(); got != 11 {
		t.Fatalf("mark through a splice = %d, want 11", got)
	}
	if got := head.TakeTraceMark(); got != 0 {
		t.Fatalf("mark through a splice taken twice: %d", got)
	}

	// A pipe that still has bytes of its own keeps its continuation's
	// mark back until it has drained.
	own := pipeWith([]byte("x"), true)
	own.Splice(p)
	p.MarkTrace(12)
	if got := own.TakeTraceMark(); got != 0 {
		t.Fatalf("undrained pipe handed on its continuation's mark %d", got)
	}
	own.Read(make([]byte, 1))
	if got := own.TakeTraceMark(); got != 12 {
		t.Fatalf("drained pipe's mark = %d, want the continuation's 12", got)
	}
}

// Blocking reads and writes must feed the wait-ns watermark counts
// that back dpntop's blocked-time percentages, and count each park
// once, by length.
func TestWaitNanosCounters(t *testing.T) {
	p := NewPipe(4)
	p.SetHooks(nil, &Instruments{Tracer: obs.NewTracer(0), Name: "p"})
	parks := func() Counts {
		c, _ := p.Counts()
		return c
	}

	// Blocked write: fill the pipe, then unblock from a reader.
	if _, err := p.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Write([]byte("x"))
	}()
	time.Sleep(20 * time.Millisecond)
	buf := make([]byte, 8)
	if _, err := p.Read(buf); err != nil {
		t.Fatal(err)
	}
	<-done
	if got := parks().WaitNanos[1]; got < int64(10*time.Millisecond) {
		t.Fatalf("write wait = %dns, want >= 10ms", got)
	}

	// Blocked read: drain, then read against an empty pipe.
	for p.Len() > 0 {
		p.Read(buf)
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		p.Read(buf)
	}()
	time.Sleep(20 * time.Millisecond)
	p.Write([]byte("y"))
	<-done
	if got := parks().WaitNanos[0]; got < int64(10*time.Millisecond) {
		t.Fatalf("read wait = %dns, want >= 10ms", got)
	}
	for op, pk := 0, parks(); op < 2; op++ {
		var slow int64 // parks of 10 ms or more
		for _, n := range pk.Durations[op][5:] {
			slow += n
		}
		if pk.Blocks[op] != 1 || slow != 1 || pk.Durations[op][4] != 0 {
			t.Fatalf("op %d: %d blocks, durations %v; want one park of 10 ms or more", op, pk.Blocks[op], pk.Durations[op])
		}
	}
}
