package meta

import (
	"io"
	"reflect"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/token"
)

// Direct unit tests for the indexed-merge processes, complementing the
// composition-level coverage.

func writeBlocks(w *core.WritePort, blocks ...[]byte) error {
	tw := token.NewWriter(w)
	for _, b := range blocks {
		if err := tw.WriteBlock(b); err != nil {
			return err
		}
	}
	return nil
}

func readBlocksUntilEOF(r *core.ReadPort) ([][]byte, error) {
	tr := token.NewReader(r)
	var out [][]byte
	for {
		b, err := tr.ReadBlock()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
}

func TestTurnstilePairsAndIndexStream(t *testing.T) {
	n := core.NewNetwork()
	in0 := n.NewChannel("in0", 0)
	in1 := n.NewChannel("in1", 0)
	pairs := n.NewChannel("pairs", 0)
	idx := n.NewChannel("idx", 0)
	n.Spawn(&Turnstile{
		Ins:      []*core.ReadPort{in0.Reader(), in1.Reader()},
		Out:      pairs.Writer(),
		OutIndex: idx.Writer(),
	})
	// Feed one result per worker sequentially so arrival order is
	// deterministic: worker 1 first, then worker 0.
	if err := writeBlocks(in1.Writer(), []byte("b")); err != nil {
		t.Fatal(err)
	}
	pr := token.NewReader(pairs.Reader())
	i1, err := pr.ReadInt64()
	if err != nil || i1 != 1 {
		t.Fatalf("first pair index = %d, %v", i1, err)
	}
	if b, err := pr.ReadBlock(); err != nil || string(b) != "b" {
		t.Fatalf("first pair block = %q, %v", b, err)
	}
	if err := writeBlocks(in0.Writer(), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if i2, err := pr.ReadInt64(); err != nil || i2 != 0 {
		t.Fatalf("second pair index = %d, %v", i2, err)
	}
	if b, err := pr.ReadBlock(); err != nil || string(b) != "a" {
		t.Fatalf("second pair block = %q, %v", b, err)
	}
	// The bare index stream mirrors arrival order.
	ir := token.NewReader(idx.Reader())
	if v, _ := ir.ReadInt64(); v != 1 {
		t.Fatalf("idx[0] = %d", v)
	}
	if v, _ := ir.ReadInt64(); v != 0 {
		t.Fatalf("idx[1] = %d", v)
	}
	in0.Writer().Close()
	in1.Writer().Close()
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestTurnstileToleratesDeadIndexPath(t *testing.T) {
	// The distribution side is gone (index reader closed); results must
	// keep flowing to the pair stream (the end-of-work drain of §3.4).
	n := core.NewNetwork()
	in0 := n.NewChannel("in0", 0)
	pairs := n.NewChannel("pairs", 0)
	idx := n.NewChannel("idx", 64)
	idx.Reader().Close() // poison the index path immediately
	n.Spawn(&Turnstile{
		Ins:      []*core.ReadPort{in0.Reader()},
		Out:      pairs.Writer(),
		OutIndex: idx.Writer(),
	})
	go func() {
		writeBlocks(in0.Writer(), []byte("x"), []byte("y"))
		in0.Writer().Close()
	}()
	pr := token.NewReader(pairs.Reader())
	for _, want := range []string{"x", "y"} {
		if _, err := pr.ReadInt64(); err != nil {
			t.Fatal(err)
		}
		b, err := pr.ReadBlock()
		if err != nil || string(b) != want {
			t.Fatalf("got %q, %v", b, err)
		}
	}
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
}

// writeLog writes Direct's dispatch records: lane l was sent task seq.
func writeLog(t *testing.T, w *core.WritePort, sends ...[2]int64) {
	t.Helper()
	tw := token.NewWriter(w)
	for _, s := range sends {
		for _, v := range []int64{s[0], s[1], time.Now().UnixNano(), 0} {
			if err := tw.WriteInt64(v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestSelectReordersByNeedSequence(t *testing.T) {
	// Two lanes; arrivals come in the order w1, w0, w1 — Select must
	// emit w0's result first (task order), buffering w1's. A late copy
	// of task 1 from a third lane loses to the first result.
	n := core.NewNetwork()
	pairs := n.NewChannel("pairs", 1024)
	log := n.NewChannel("log", 1024)
	out := n.NewChannel("out", 1024)
	sel := &Select{In: pairs.Reader(), Log: log.Reader(), Out: out.Writer()}
	writeLog(t, log.Writer(), [2]int64{0, 0}, [2]int64{1, 1}, [2]int64{1, 2}, [2]int64{2, 0})
	log.Writer().Close()

	w := token.NewWriter(pairs.Writer())
	write := func(idx int64, data string) {
		if err := w.WriteInt64(idx); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteBlock([]byte(data)); err != nil {
			t.Fatal(err)
		}
	}
	write(1, "r-of-task2")
	write(0, "r-of-task1")
	write(1, "r-of-task3") // w1's second task was task 3
	write(2, "copy-of-task1")
	pairs.Writer().Close()
	n.Spawn(sel)
	got, err := readBlocksUntilEOF(out.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("r-of-task1"), []byte("r-of-task2"), []byte("r-of-task3")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestSelectEndsWhenArrivalsStop(t *testing.T) {
	// Fewer results than tasks sent (tasks < workers, or a cut): Select
	// must terminate cleanly when the pair stream ends.
	n := core.NewNetwork()
	pairs := n.NewChannel("pairs", 1024)
	log := n.NewChannel("log", 1024)
	out := n.NewChannel("out", 1024)
	writeLog(t, log.Writer(), [2]int64{0, 0}, [2]int64{1, 1}, [2]int64{2, 2}, [2]int64{3, 3})
	w := token.NewWriter(pairs.Writer())
	w.WriteInt64(0)
	w.WriteBlock([]byte("only"))
	pairs.Writer().Close()
	n.Spawn(&Select{In: pairs.Reader(), Log: log.Reader(), Out: out.Writer()})
	got, err := readBlocksUntilEOF(out.Reader())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "only" {
		t.Fatalf("got %q", got)
	}
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("select did not terminate")
	}
}
