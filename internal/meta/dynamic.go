package meta

import (
	"errors"
	"io"
	"strconv"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/obs"
)

// Index records (Figure 18's index stream, as int64 tokens). A record
// L >= 0 is the paper's bare worker index: lane L returned a result, so
// its oldest task is answered and it gets the credit back. The one
// negative record, recGone, is followed by the lane whose results
// ended: what that lane holds is sent again.
const recGone = -1

// laneTag names lane i in the lane label of the dpn_pool_* series and
// in the Worker's tag.
func laneTag(i int) string { return "w" + strconv.Itoa(i) }

// Direct distributes tasks on demand (Figure 17): it reads the index
// stream — primed with one index per worker, the "(n)" of Figure 18 —
// and spends each credit on the next task, so a lane receives a task
// exactly when it finishes one. It numbers tasks 0, 1, 2, … as it reads
// them, logs every dispatch to Select, and keeps each task until its
// lane answers it, so work held by a lane that dies is sent again,
// before fresh intake. Direct is a function of the streams it reads.
type Direct struct {
	In    *core.ReadPort
	Index *core.ReadPort
	Outs  []*core.WritePort
	Log   *core.WritePort // (lane, seq, intake, trace) per dispatch; nil: no Select

	smp     *obs.Sampler // causal trace sampling (Dynamic.SetTraceSampling); nil: off
	lanes   []directLane
	pending map[int64]*heldTask // read and not yet answered
	queue   []int64             // tasks to send again
	seq     int64
	inDone  bool

	scope              *obs.Scope
	inflight           *obs.Gauge
	latQueue, latServe *obs.Histogram
}

type directLane struct {
	fifo   []int64 // tasks sent and not yet answered, oldest first
	credit int
	dead   bool // its tasks are sent again and it gets no more
	tag    string
	tasks  *obs.Counter
}

type heldTask struct {
	block      []byte
	intake, at time.Time // read; latest dispatch
	trace      uint64    // sampled causal trace ID (0 = unsampled)
}

// Run implements core.Process.
func (d *Direct) Run(env *core.Env) error {
	d.scope = poolScope(env)
	reg := d.scope.Registry()
	d.inflight = reg.Gauge("dpn_pool_inflight")
	d.latQueue = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "queue"))
	d.latServe = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "service"))
	d.pending = make(map[int64]*heldTask)
	for i := range d.Outs {
		tag := laneTag(i)
		d.lanes = append(d.lanes, directLane{tag: tag,
			tasks: reg.Counter("dpn_pool_tasks_total", obs.L("lane", tag))})
	}
	defer func() {
		for _, ln := range d.lanes {
			d.inflight.Add(-int64(len(ln.fifo)))
		}
	}()
	idx := d.Index.Tokens()
	for {
		if err := d.dispatch(); err != nil {
			return err
		}
		if d.inDone && len(d.pending) == 0 {
			return nil // all answered: closing Outs ends the lanes
		}
		rec, err := idx.ReadInt64()
		gone := err == nil && rec == recGone
		if gone {
			rec, err = idx.ReadInt64()
		}
		if err != nil {
			return err
		}
		if rec < 0 || rec >= int64(len(d.lanes)) {
			// A record for a lane Direct does not have ends Direct with
			// io.EOF: a clean cascading close (§3.4), not a failure
			// stranding every buffered token, after which Select emits
			// what was computed.
			return io.EOF
		}
		if gone {
			d.drop(int(rec))
			continue
		}
		ln := &d.lanes[rec]
		if len(ln.fifo) > 0 {
			d.latServe.Observe(time.Since(d.pending[ln.fifo[0]].at).Seconds())
			delete(d.pending, ln.fifo[0])
			ln.fifo = ln.fifo[1:]
			d.inflight.Add(-1)
		}
		ln.credit++
	}
}

// drop closes lane l and queues every task it holds. A task has one
// holder, so what the lane held is now held by no lane.
func (d *Direct) drop(l int) {
	ln := &d.lanes[l]
	ln.dead = true
	d.Outs[l].Close()
	d.inflight.Add(-int64(len(ln.fifo)))
	for _, seq := range ln.fifo {
		d.queue = append(d.queue, seq)
		d.scope.Registry().Counter("dpn_pool_redispatch_total", obs.L("reason", "lane-dead")).Inc()
	}
	ln.fifo = nil
}

// dispatch spends lane credits, on queued tasks first.
func (d *Direct) dispatch() error {
	for {
		l := d.pick()
		if l < 0 {
			return nil
		}
		var seq int64
		switch {
		case len(d.queue) > 0:
			seq, d.queue = d.queue[0], d.queue[1:]
		case d.inDone:
			return nil
		default:
			b, err := d.In.Tokens().ReadBlock()
			if errors.Is(err, io.EOF) {
				d.inDone = true
				return nil
			} else if err != nil {
				return err
			}
			seq = d.seq
			d.seq++
			h := &heldTask{block: b, intake: time.Now(), trace: d.smp.Sample()}
			if h.trace != 0 {
				d.scope.Record(obs.EvSpan, "pool", "intake", int64(h.trace))
			}
			d.pending[seq] = h
		}
		if err := d.send(l, seq); err != nil {
			return err
		}
	}
}

// pick returns the first live lane with a credit, or -1.
func (d *Direct) pick() int {
	for i, ln := range d.lanes {
		if !ln.dead && ln.credit > 0 {
			return i
		}
	}
	return -1
}

// send logs task seq and writes it to lane l. A lane whose task channel
// fails is dropped; a failed Log (Select is gone) ends Direct.
func (d *Direct) send(l int, seq int64) error {
	h, ln, now := d.pending[seq], &d.lanes[l], time.Now()
	if h.at.IsZero() {
		d.latQueue.Observe(now.Sub(h.intake).Seconds())
	}
	h.at = now
	ln.credit--
	ln.fifo = append(ln.fifo, seq)
	d.inflight.Add(1)
	ln.tasks.Inc()
	if d.Log != nil {
		for _, v := range [...]int64{int64(l), seq, h.intake.UnixNano(), int64(h.trace)} {
			if err := d.Log.Tokens().WriteInt64(v); err != nil {
				return err
			}
		}
	}
	if h.trace != 0 {
		if ch := d.Outs[l].Channel(); ch != nil {
			ch.Pipe().MarkTrace(h.trace)
		}
		d.scope.Record(obs.EvSpan, "pool:"+ln.tag, "dispatch", int64(h.trace))
	}
	if d.Outs[l].Tokens().WriteBlock(h.block) != nil {
		d.drop(l)
	}
	return nil
}

// Turnstile merges lane results in the order they become available
// (Figure 18): each goes to Out as an (index, block) pair and its bare
// index to OutIndex, returning the credit to Direct. It is the one
// deliberately nondeterministic process (§5) and owns the decisions
// that depend on timing — which lane answered next, and that a lane's
// results ended — writing each as a record on the index stream. They
// change which lane computes a task, never which result Select emits at
// a position.
//
// Each input is read by a process the Turnstile spawns, so a reader
// waiting on its lane counts as live and as blocked in the deadlock
// monitor's ledger. A failed OutIndex is tolerated: once the work is
// done the distribution side tears itself down (§3.4) while results
// are still in flight.
type Turnstile struct {
	Ins      []*core.ReadPort
	Out      *core.WritePort
	OutIndex *core.WritePort

	idxOpen bool
}

// arrival is what a reader hands the Turnstile: a result block, or the
// end of its lane's results (err != nil).
type arrival struct {
	lane  int64
	block []byte
	err   error
}

// laneReader reads one lane's results for the Turnstile.
type laneReader struct {
	In   *core.ReadPort
	lane int64
	to   chan<- arrival
	quit <-chan struct{}
}

// Run implements core.Process.
func (r *laneReader) Run(env *core.Env) error {
	tr := r.In.Tokens()
	for {
		b, err := tr.ReadBlock()
		select {
		case r.to <- arrival{r.lane, b, err}:
		case <-r.quit:
			return nil
		}
		if err != nil {
			return nil
		}
	}
}

// Run implements core.Process.
func (t *Turnstile) Run(env *core.Env) error {
	scope := poolScope(env)
	reg := scope.Registry()
	lanes := reg.Gauge("dpn_pool_lanes")
	t.idxOpen = t.OutIndex != nil
	hand, quit := make(chan arrival), make(chan struct{})
	defer close(quit)
	results := make([]*obs.Counter, len(t.Ins))
	for i, in := range t.Ins {
		tag := laneTag(i)
		results[i] = reg.Counter("dpn_pool_results_total", obs.L("lane", tag))
		lanes.Add(1)
		reg.Counter("dpn_pool_joins_total").Inc()
		scope.Record(obs.EvTask, "pool:"+tag, "join", int64(i))
		env.Spawn(&laneReader{In: in, lane: int64(i), to: hand, quit: quit})
	}

	pairs := t.Out.Tokens()
	for open := len(t.Ins); open > 0; {
		a := <-hand
		if a.err != nil {
			// An orderly close is a leave; anything else — an exhausted
			// link, an injected fault — is a degrade. Either way Direct
			// sends again what the lane held.
			what := "leave"
			if !conduit.IsBenignClose(a.err) {
				what = "degraded"
			}
			lanes.Add(-1)
			t.index(recGone, a.lane)
			scope.Record(obs.EvTask, "pool:"+laneTag(int(a.lane)), what, a.lane)
			open--
			continue
		}
		results[a.lane].Inc()
		if err := pairs.WriteInt64(a.lane); err != nil {
			return err
		}
		if err := pairs.WriteBlock(a.block); err != nil {
			return err
		}
		t.index(a.lane)
	}
	return nil
}

// index writes one record to OutIndex while the distribution side lives.
func (t *Turnstile) index(rec ...int64) {
	for _, v := range rec {
		if t.idxOpen && t.OutIndex.Tokens().WriteInt64(v) != nil {
			t.OutIndex.Close()
			t.idxOpen = false
		}
	}
}

// poolScope returns the network's scope with the farm's dpn_pool_*
// families described; each farm process binds the series it updates.
func poolScope(env *core.Env) *obs.Scope {
	s := env.Network().Obs()
	reg := s.Registry()
	reg.Help("dpn_pool_lanes", "Live worker lanes in the task farm.")
	reg.Help("dpn_pool_inflight", "Tasks dispatched to a lane and not yet answered.")
	reg.Help("dpn_pool_joins_total", "Lanes that joined the farm.")
	reg.Help("dpn_pool_tasks_total", "Tasks dispatched, by lane.")
	reg.Help("dpn_pool_results_total", "Results returned, by lane.")
	reg.Help("dpn_pool_redispatch_total", "Tasks sent again, by reason (lane-dead: the lane's results ended while it held them).")
	reg.Help("dpn_pool_emitted_total", "Results emitted in task order.")
	reg.Help("dpn_pool_latency_seconds", "Task latency distribution, by stage (queue = intake to first dispatch, service = latest dispatch to result, total = intake to in-order emission).")
	return s
}

// Select restores task order (Figure 18). Results arrive from the
// Turnstile in completion order as (lane, block) pairs; Direct's log says
// which tasks each lane was sent. Lanes are FIFO, so a lane's k-th
// result answers the k-th task logged for it. The first result for a
// task wins, and results leave in task order 0, 1, 2, … — so whatever
// the lane schedule, the output is the static composition's and the
// single-worker pipeline's (§5).
type Select struct {
	In  *core.ReadPort
	Log *core.ReadPort
	Out *core.WritePort
}

type logged struct {
	seq, intake int64
	trace       uint64
	block       []byte
}

// Run implements core.Process.
func (s *Select) Run(env *core.Env) error {
	scope := poolScope(env)
	reg := scope.Registry()
	emitted := reg.Counter("dpn_pool_emitted_total")
	latTotal := reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "total"))
	sent := make(map[int64][]logged) // per lane: tasks logged, not yet paired
	ready := make(map[int64]logged)
	var next int64
	pairs, log, out := s.In.Tokens(), s.Log.Tokens(), s.Out.Tokens()
	for logOpen := true; ; {
		for r, ok := ready[next]; ok; r, ok = ready[next] {
			if err := out.WriteBlock(r.block); err != nil {
				return err
			}
			delete(ready, next)
			next++
			emitted.Inc()
			latTotal.Observe(time.Since(time.Unix(0, r.intake)).Seconds())
			if r.trace != 0 {
				scope.Record(obs.EvSpan, "pool", "emit", int64(r.trace))
			}
		}
		lane, err := pairs.ReadInt64()
		if core.IsTermination(err) {
			return nil // what has no result was never produced, or was cut
		} else if err != nil {
			return err
		}
		b, err := pairs.ReadBlock()
		if err != nil {
			return err
		}
		for logOpen && len(sent[lane]) == 0 {
			var rec [4]int64
			for i := 0; i < 4 && logOpen; i++ {
				rec[i], err = log.ReadInt64()
				logOpen = err == nil
			}
			if logOpen {
				sent[rec[0]] = append(sent[rec[0]], logged{rec[1], rec[2], uint64(rec[3]), nil})
			}
		}
		// Drop a result no task was logged for, and every later copy.
		if q := sent[lane]; len(q) > 0 {
			sent[lane] = q[1:]
			if _, dup := ready[q[0].seq]; !dup && q[0].seq >= next {
				q[0].block = b
				ready[q[0].seq] = q[0]
				if q[0].trace != 0 {
					scope.Record(obs.EvSpan, "pool", "result", int64(q[0].trace))
				}
			}
		}
	}
}
