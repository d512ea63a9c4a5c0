package proclib

import (
	"reflect"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/token"
)

// TestCutDuplicateWithOneLiveOutputKeepsFeeding: a Duplicate whose
// first output has lost its consumer still feeds the other one, so the
// cut must leave its input open. The element written after the close
// reaches the live output before the Duplicate fails its write to the
// dead one, as it did before the cut existed.
func TestCutDuplicateWithOneLiveOutputKeepsFeeding(t *testing.T) {
	n := core.NewNetwork()
	in := n.NewChannel("in", 64)
	live := n.NewChannel("live", 64)
	dead := n.NewChannel("dead", 64)
	n.Spawn(&Duplicate{In: in.Reader(), Outs: []*core.WritePort{live.Writer(), dead.Writer()}, Chunk: token.Int64Size})
	early := &Collect{In: dead.Reader()}
	early.Iterations = 3
	earlyProc := n.Spawn(early)
	keep := &Collect{In: live.Reader()}
	n.Spawn(keep)

	w := in.Writer().Tokens()
	for v := int64(1); v <= 3; v++ {
		if err := w.WriteInt64(v); err != nil {
			t.Fatal(err)
		}
	}
	<-earlyProc.Done() // its port is closed and the cut has run
	if in.Pipe().ReadClosed() {
		t.Fatal("the cut closed the input of a Duplicate with a live output")
	}
	if err := w.WriteInt64(4); err != nil {
		t.Fatalf("write after one output lost its consumer: %v", err)
	}
	in.Writer().Close()
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := keep.Values(), []int64{1, 2, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("live output got %v, want %v", got, want)
	}
}

// TestCutClosesProducerInputAtOnce: once the only consumer of a
// process closes, the process's input is closed before the consumer's
// Close returns — the producer does not have to write again to learn it.
func TestCutClosesProducerInputAtOnce(t *testing.T) {
	n := core.NewNetwork()
	in := n.NewChannel("in", 64)
	out := n.NewChannel("out", 64)
	n.Spawn(&Scale{Factor: 2, In: in.Reader(), Out: out.Writer()})
	if err := in.Writer().Tokens().WriteInt64(1); err != nil {
		t.Fatal(err)
	}
	if v, err := out.Reader().Tokens().ReadInt64(); err != nil || v != 2 {
		t.Fatalf("read %d, %v", v, err)
	}
	out.Reader().Close()
	if !in.Pipe().ReadClosed() {
		t.Fatal("the producer's input is still open after its only consumer closed")
	}
	in.Writer().Close()
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCutSkipsSuspendedProcess: a suspended process may be on its way
// to another node with its ports, so the cut leaves it alone; it learns
// of the closed consumer on its next write after it resumes.
func TestCutSkipsSuspendedProcess(t *testing.T) {
	n := core.NewNetwork()
	in := n.NewChannel("in", 64)
	out := n.NewChannel("out", 4096)
	s := n.Spawn(&Scale{Factor: 1, In: in.Reader(), Out: out.Writer()})
	w := in.Writer().Tokens()

	// Suspension takes effect at a step boundary, so keep the process
	// stepping until it parks.
	suspended := make(chan error, 1)
	go func() { suspended <- s.Suspend() }()
	for v := int64(1); ; v++ {
		select {
		case err := <-suspended:
			if err != nil {
				t.Fatal(err)
			}
		default:
			if err := w.WriteInt64(v); err != nil {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}

	out.Reader().Close()
	if in.Pipe().ReadClosed() {
		t.Fatal("the cut closed the input of a suspended process")
	}
	if err := w.WriteInt64(-1); err != nil {
		t.Fatalf("the suspended process's input refused a write: %v", err)
	}
	if err := s.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if !in.Pipe().ReadClosed() {
		t.Fatal("the resumed process did not stop at its next write")
	}
}

// handOff gives its input stream to a PassThrough it spawns on its
// first step (Detach, then a foreign port over the detached source),
// and afterwards only waits on Gate.
type handOff struct {
	In, Gate  *core.ReadPort
	Out, Pass *core.WritePort
	handed    bool
}

func (h *handOff) Step(env *core.Env) error {
	if !h.handed {
		h.handed = true
		env.Spawn(&PassThrough{In: core.AttachForeignRead("handed", h.In.Detach()), Out: h.Pass})
		h.Pass = nil
		return nil
	}
	_, err := h.Gate.Read(make([]byte, 1))
	return err
}

// TestCutSparesStreamHandedOnByDetach: a port a process has detached is
// no longer its input. When the process is cut, the stream it handed on
// keeps flowing to the process that reads it now.
func TestCutSparesStreamHandedOnByDetach(t *testing.T) {
	n := core.NewNetwork()
	in := n.NewChannel("in", 64)
	gate := n.NewChannel("gate", 64)
	dead := n.NewChannel("dead", 64)
	pass := n.NewChannel("pass", 64)
	n.Spawn(&handOff{In: in.Reader(), Gate: gate.Reader(), Out: dead.Writer(), Pass: pass.Writer()})
	sink := &Collect{In: pass.Reader()}
	n.Spawn(sink)

	w := in.Writer().Tokens()
	if err := w.WriteInt64(1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); len(sink.Values()) == 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the handed-on stream never reached the sink")
		}
	}
	dead.Reader().Close() // cuts handOff: its gate closes, its old input must not
	if !gate.Pipe().ReadClosed() {
		t.Fatal("handOff was not cut")
	}
	for v := int64(2); v <= 5; v++ {
		if err := w.WriteInt64(v); err != nil {
			t.Fatalf("the handed-on stream refused element %d: %v", v, err)
		}
	}
	in.Writer().Close()
	gate.Writer().Close()
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Values(), []int64{1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("sink got %v, want %v", got, want)
	}
}
