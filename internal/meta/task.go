// Package meta implements the paper's generic framework for
// embarrassingly parallel computing (§5): active Task objects flowing
// between generic Producer, Worker, and Consumer processes, composed
// either with static load balancing (Scatter/Gather, Figure 16) or with
// dynamic, on-demand load balancing (Direct plus the indexed merge of
// Turnstile and Select, Figures 17–18).
//
// The computation is defined in the data: a producer task's Run returns
// a worker task, a worker task's Run returns a consumer task, and the
// generic processes just move tasks along channels. New applications
// implement application-specific tasks only (§5.1).
package meta

import (
	"io"
	"sync"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// Task is the paper's active-object interface: Run performs this stage's
// computation and returns the task for the next stage (nil from a
// producer source means the work is exhausted).
type Task interface {
	Run() (Task, error)
}

// Terminal may be implemented by tasks to signal that the whole
// computation is complete (for example: a factor has been found). The
// Consumer process stops when a task it has run — or the task's result —
// reports Terminal() == true; its stopping then tears down the rest of
// the network through the cascade of §3.4.
type Terminal interface {
	Terminal() bool
}

// Tasks travel across channels as length-prefixed, self-contained gob
// messages, so every element stays independently decodable and channels
// remain migratable between machines (see package token). Concrete task
// types must be registered with encoding/gob by the application.

func writeTask(w *core.WritePort, t Task) error {
	return w.Tokens().WriteObject(&t)
}

func readTask(r *core.ReadPort) (Task, error) {
	var t Task
	if err := r.Tokens().ReadObject(&t); err != nil {
		return nil, err
	}
	return t, nil
}

// stageObs caches the per-stage task counter and the trace scope of the
// network the process currently runs in. The fields are unexported, so
// gob drops them when a process migrates and the next Step re-binds
// them against the destination node's registry — task counts land on
// whichever node did the work, which is exactly the Table 2 view.
type stageObs struct {
	scope *obs.Scope
	tasks *obs.Counter
	subj  string
}

func (o *stageObs) bind(env *core.Env, stage, worker string) {
	if o.scope != nil {
		return
	}
	o.scope = env.Network().Obs()
	reg := o.scope.Registry()
	reg.Help("dpn_meta_tasks_total", "Tasks handled by the meta-framework, by stage (produced|worked|consumed) and worker tag.")
	labels := []obs.Label{obs.L("stage", stage)}
	o.subj = stage
	if worker != "" {
		labels = append(labels, obs.L("worker", worker))
		o.subj = stage + ":" + worker
	}
	o.tasks = reg.Counter("dpn_meta_tasks_total", labels...)
}

func (o *stageObs) note() {
	o.tasks.Inc()
	o.scope.Record(obs.EvTask, o.subj, "", 0)
}

// Producer repeatedly invokes Run on its Source task and writes each
// resulting worker task to Out (§5.1). It stops when Source.Run returns
// nil, when the iteration limit is reached, or when the output channel
// is poisoned by downstream termination.
type Producer struct {
	core.Iterative
	Source Task
	Out    *core.WritePort

	obs stageObs
}

// Step implements core.Stepper.
func (p *Producer) Step(env *core.Env) error {
	p.obs.bind(env, "produced", "")
	t, err := p.Source.Run()
	if err != nil {
		return err
	}
	if t == nil {
		return io.EOF
	}
	if err := writeTask(p.Out, t); err != nil {
		return err
	}
	p.obs.note()
	return nil
}

// Worker reads a task, runs it, and writes the result (§5.1). The same
// worker executes any application's tasks; workers are what get shipped
// to remote compute servers.
type Worker struct {
	core.Iterative
	In  *core.ReadPort
	Out *core.WritePort

	// Tag identifies the worker in the dpn_meta_tasks_total{worker=...}
	// label, making load (im)balance across workers visible (the
	// paper's Table 2 comparison of static vs dynamic balancing). It is
	// exported so it survives migration.
	Tag string

	obs stageObs
}

// Step implements core.Stepper.
func (w *Worker) Step(env *core.Env) error {
	w.obs.bind(env, "worked", w.Tag)
	t, err := readTask(w.In)
	if err != nil {
		return err
	}
	r, err := t.Run()
	if err != nil {
		return err
	}
	if err := writeTask(w.Out, r); err != nil {
		return err
	}
	w.obs.note()
	return nil
}

// Consumer reads a task, runs it, and discards the result (§5.1). If
// the task (or its result) implements Terminal and reports true, the
// consumer stops, which terminates the whole network.
type Consumer struct {
	core.Iterative
	In *core.ReadPort

	mu       sync.Mutex
	onResult func(ran Task, result Task)
	consumed int64

	obs stageObs
}

// SetOnResult installs a local observation hook invoked after each task
// runs. The hook is not serialized; it is for collection and testing on
// the machine where the consumer executes.
func (c *Consumer) SetOnResult(f func(ran Task, result Task)) {
	c.mu.Lock()
	c.onResult = f
	c.mu.Unlock()
}

// Consumed reports how many tasks the consumer has run.
func (c *Consumer) Consumed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.consumed
}

// Step implements core.Stepper.
func (c *Consumer) Step(env *core.Env) error {
	c.obs.bind(env, "consumed", "")
	t, err := readTask(c.In)
	if err != nil {
		return err
	}
	r, err := t.Run()
	if err != nil {
		return err
	}
	c.obs.note()
	c.mu.Lock()
	c.consumed++
	hook := c.onResult
	c.mu.Unlock()
	if hook != nil {
		hook(t, r)
	}
	if isTerminal(t) || isTerminal(r) {
		return io.EOF
	}
	return nil
}

func isTerminal(t Task) bool {
	if t == nil {
		return false
	}
	term, ok := t.(Terminal)
	return ok && term.Terminal()
}
