package core

import (
	"errors"
	"testing"

	"dpn/internal/stream"
)

// TestChannelAllocs pins what a channel is made of: the channel (with
// its ports and their states inside it), its conduit, and the pipe with
// its buffer, and for a registered channel its instruments block. The
// ports read and write the pipe directly, with no object between.
func TestChannelAllocs(t *testing.T) {
	if got := testing.AllocsPerRun(200, func() { NewChannel("c", 64) }); got > 4 {
		t.Errorf("NewChannel: %v allocations, want at most 4", got)
	}
	n := NewNetwork()
	if got := testing.AllocsPerRun(200, func() { n.NewChannel("c", 64) }); got > 5 {
		t.Errorf("Network.NewChannel: %v allocations, want at most 5", got)
	}
}

// readOnRelease holds an input and an output and reads its input only
// when released, raw and through its codec, reporting both errors.
type readOnRelease struct {
	In      *ReadPort
	Out     *WritePort
	release chan struct{}
	errs    chan [2]error
}

func (p *readOnRelease) Run(env *Env) error {
	<-p.release
	_, raw := p.In.Read(make([]byte, 1))
	_, typed := p.In.Tokens().ReadInt64()
	p.errs <- [2]error{raw, typed}
	return nil
}

// TestReadAfterConsumerCloseIsErrReadClosed: once a port's consuming end
// is closed — by ReadPort.Close or by a cut — a read through it says the
// read end is gone, not that the stream ended, even though the writer
// had closed and nothing was left.
func TestReadAfterConsumerCloseIsErrReadClosed(t *testing.T) {
	check := func(how string, errs [2]error) {
		t.Helper()
		if !errors.Is(errs[0], stream.ErrReadClosed) {
			t.Errorf("%s: raw read = %v, want stream.ErrReadClosed", how, errs[0])
		}
		if !errors.Is(errs[1], stream.ErrReadClosed) {
			t.Errorf("%s: typed read = %v, want stream.ErrReadClosed", how, errs[1])
		}
	}

	ch := NewChannel("closed", 16)
	ch.Writer().Close()
	ch.Reader().Close()
	_, raw := ch.Reader().Read(make([]byte, 1))
	_, typed := ch.Reader().Tokens().ReadInt64()
	check("ReadPort.Close", [2]error{raw, typed})

	n := NewNetwork()
	in, out := n.NewChannel("in", 16), n.NewChannel("out", 16)
	in.Writer().Close()
	p := &readOnRelease{In: in.Reader(), Out: out.Writer(), release: make(chan struct{}), errs: make(chan [2]error, 1)}
	n.Spawn(p)
	out.Reader().Close() // p's only output lost its consumer: the cut closes p's input
	if !in.Pipe().ReadClosed() {
		t.Fatal("the cut left the input open")
	}
	close(p.release)
	check("cut", <-p.errs)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestSpliceOutOntoClosedConsumerPoisonsSource: a process that splices
// itself out after its consumer has gone hands its input to nobody, so
// its producer learns of the closed consumer on its next write (§3.4).
func TestSpliceOutOntoClosedConsumerPoisonsSource(t *testing.T) {
	in, out := NewChannel("in", 16), NewChannel("out", 16)
	out.Reader().Close()
	if err := SpliceOut(in.Reader(), out.Writer()); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Writer().Write([]byte("x")); !errors.Is(err, stream.ErrReadClosed) {
		t.Fatalf("write into the spliced input = %v, want stream.ErrReadClosed", err)
	}
}
