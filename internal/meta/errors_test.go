package meta

import (
	"encoding/gob"
	"errors"
	"strings"
	"testing"
	"time"

	"dpn/internal/core"
)

// FailingTask errors when run; worker failures must surface as process
// failures (not silent termination) and still tear the network down.
type FailingTask struct{ Msg string }

// Run implements Task.
func (f *FailingTask) Run() (Task, error) { return nil, errors.New(f.Msg) }

func init() { gob.Register(&FailingTask{}) }

type failingSource struct{ emitted bool }

func (s *failingSource) Run() (Task, error) {
	if s.emitted {
		return nil, nil
	}
	s.emitted = true
	return &FailingTask{Msg: "task exploded"}, nil
}

func TestWorkerTaskFailurePropagates(t *testing.T) {
	n := core.NewNetwork()
	pipeline(n, &failingSource{}, 0)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker failure swallowed")
		}
		if !strings.Contains(err.Error(), "task exploded") {
			t.Fatalf("wrong error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("network did not terminate after worker failure")
	}
}

type failingProducerSource struct{}

func (s *failingProducerSource) Run() (Task, error) {
	return nil, errors.New("producer source broke")
}

func TestProducerSourceFailurePropagates(t *testing.T) {
	n := core.NewNetwork()
	pipeline(n, &failingProducerSource{}, 0)
	err := n.Wait()
	if err == nil || !strings.Contains(err.Error(), "producer source broke") {
		t.Fatalf("got %v", err)
	}
}

// A consumer task that fails while running must also be reported.
type failingConsumerResult struct{}

func (f *failingConsumerResult) Run() (Task, error) { return nil, errors.New("consumer choke") }

type okThenConsumerFail struct{ done bool }

func (s *okThenConsumerFail) Run() (Task, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	return &passTask{}, nil
}

// passTask's result fails when the consumer runs it.
type passTask struct{}

func (p *passTask) Run() (Task, error) { return &failingConsumerResult{}, nil }

func init() {
	gob.Register(&passTask{})
	gob.Register(&failingConsumerResult{})
}

func TestConsumerTaskFailurePropagates(t *testing.T) {
	n := core.NewNetwork()
	pipeline(n, &okThenConsumerFail{}, 0)
	err := n.Wait()
	if err == nil || !strings.Contains(err.Error(), "consumer choke") {
		t.Fatalf("got %v", err)
	}
}

func TestDynamicZeroTasks(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: 0}, 3, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("empty dynamic composition did not terminate")
	}
	if len(*got) != 0 {
		t.Fatalf("got %v", *got)
	}
}

func TestStaticZeroTasks(t *testing.T) {
	n := core.NewNetwork()
	st := NewStatic(n, &rangeSource{max: 0}, 3, 0)
	got := collectResults(st.Consumer)
	st.Spawn(n)
	done := make(chan error, 1)
	go func() { done <- n.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("empty static composition did not terminate")
	}
	if len(*got) != 0 {
		t.Fatalf("got %v", *got)
	}
}

func TestSingleTaskSingleWorkerDynamic(t *testing.T) {
	n := core.NewNetwork()
	dyn := NewDynamic(n, &rangeSource{max: 1}, 1, 0)
	got := collectResults(dyn.Consumer)
	dyn.Spawn(n)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	eq(t, *got, []int64{0})
}

func TestConsumedCount(t *testing.T) {
	n := core.NewNetwork()
	c := pipeline(n, &rangeSource{max: 7}, 0)
	if err := n.Wait(); err != nil {
		t.Fatal(err)
	}
	if c.Consumed() != 7 {
		t.Fatalf("Consumed = %d", c.Consumed())
	}
}
