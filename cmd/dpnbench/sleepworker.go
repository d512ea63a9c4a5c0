package main

import (
	"encoding/gob"
	"time"

	"dpn/internal/core"
	"dpn/internal/meta"
)

// sleepTask and slowWorker emulate heterogeneous CPU speeds for the
// simulator cross-validation (-validate-sim): the work is sleeping, so
// parallel makespans are measurable even on one CPU.
type sleepTask struct {
	ID     int64
	Micros int64
}

// Run implements meta.Task.
func (t *sleepTask) Run() (meta.Task, error) { return &sleepDone{ID: t.ID}, nil }

type sleepDone struct{ ID int64 }

// Run implements meta.Task.
func (d *sleepDone) Run() (meta.Task, error) { return nil, nil }

type sleepSource struct {
	total, next int64
	micros      int64
}

func (s *sleepSource) Run() (meta.Task, error) {
	if s.next >= s.total {
		return nil, nil
	}
	s.next++
	return &sleepTask{ID: s.next - 1, Micros: s.micros}, nil
}

// slowWorker executes tasks at a fraction of full speed.
type slowWorker struct {
	In    *core.ReadPort
	Out   *core.WritePort
	Speed float64
}

func (w *slowWorker) Step(env *core.Env) error {
	var t meta.Task
	if err := w.In.Tokens().ReadObject(&t); err != nil {
		return err
	}
	st, ok := t.(*sleepTask)
	if ok {
		time.Sleep(time.Duration(float64(st.Micros)/w.Speed) * time.Microsecond)
	}
	r, err := t.Run()
	if err != nil {
		return err
	}
	return w.Out.Tokens().WriteObject(&r)
}

func init() {
	gob.Register(&sleepTask{})
	gob.Register(&sleepDone{})
}
