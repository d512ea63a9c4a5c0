package meta

import (
	"cmp"
	"errors"
	"io"
	"slices"
	"time"

	"dpn/internal/conduit"
	"dpn/internal/core"
	"dpn/internal/obs"
	"dpn/internal/token"
)

// Index records (Figure 18's index stream, as int64 tokens). A record
// L >= 0 is the paper's bare worker index: lane L returned a result, so
// its oldest task is answered and it gets the credit back. A negative
// record is followed by the lane it names (a join also by its credits).
// The pool's control stream carries join, retire and lost records.
const (
	recJoin      = -1 - iota // lane, credits
	recRetire                // no new tasks: the lane drains what it holds
	recLost                  // presumed gone: what only it holds is sent again
	recGone                  // its results ended: what only it holds is sent again
	recStraggler             // silent past the deadline: what only it holds gets a copy
)

// Direct distributes tasks on demand (Figure 17): it reads the index
// stream — primed with one index per worker, the "(n)" of Figure 18 —
// and spends each credit on the next task, so a lane receives a task
// exactly when it finishes one. It numbers tasks 0, 1, 2, … as it reads
// them, logs every dispatch to Select, and keeps each task until a lane
// answers it, so work held by a lane that is lost, dies or straggles is
// sent again, before fresh intake. Direct is a function of the streams
// it reads.
type Direct struct {
	In    *core.ReadPort
	Index *core.ReadPort
	Outs  []*core.WritePort
	Log   *core.WritePort // (lane, seq, intake, trace) per dispatch; nil: no Select

	pool    *Pool
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
	closed string // "" while it takes tasks, else the reason its tasks are sent again
	tag    string
	tasks  *obs.Counter
}

type heldTask struct {
	block      []byte
	intake, at time.Time // read; latest dispatch
	trace      uint64    // sampled causal trace ID (0 = unsampled)
	holders    int       // open lanes holding a copy
	queued     bool
}

// Run implements core.Process.
func (d *Direct) Run(env *core.Env) error {
	if d.pool == nil {
		d.pool = &Pool{} // a Direct built outside a farm: a fixed, unnamed lane set
	}
	defer d.pool.end()
	d.scope = poolScope(env)
	reg := d.scope.Registry()
	d.inflight = reg.Gauge("dpn_pool_inflight")
	d.latQueue = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "queue"))
	d.latServe = reg.Histogram("dpn_pool_latency_seconds", nil, obs.L("stage", "service"))
	d.pending = make(map[int64]*heldTask)
	for i := range d.Outs {
		d.addLane(i)
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
		if err != nil {
			return err
		}
		if err := d.apply(rec, idx); err != nil {
			return err
		}
	}
}

func (d *Direct) addLane(i int) {
	tag := d.pool.tag(i)
	d.lanes = append(d.lanes, directLane{tag: tag,
		tasks: d.scope.Registry().Counter("dpn_pool_tasks_total", obs.L("lane", tag))})
}

// apply reads the rest of one index record and applies it. A record for
// a lane Direct does not have (a stale index) ends Direct with io.EOF: a
// clean cascading close (§3.4), not a failure stranding every buffered
// token, after which Select emits what was computed.
func (d *Direct) apply(rec int64, idx *token.Reader) error {
	l, credits := rec, int64(0)
	if rec < 0 {
		var err error
		if l, err = idx.ReadInt64(); err == nil && rec == recJoin {
			credits, err = idx.ReadInt64()
		}
		if err != nil {
			return err
		}
		if ln, ok := d.pool.lane(int(l)); ok && rec == recJoin && int(l) == len(d.Outs) {
			d.Outs = append(d.Outs, ln.task)
			d.addLane(int(l))
		}
	}
	if l < 0 || l >= int64(len(d.lanes)) {
		return io.EOF
	}
	ln := &d.lanes[l]
	switch rec {
	case recJoin:
		ln.credit += int(credits)
	case recRetire:
		ln.closed = "lane-retired"
		d.Outs[l].Close() // the lane drains what it holds, then ends
	case recLost:
		d.drop(ln, int(l), "lane-lost")
	case recGone:
		d.drop(ln, int(l), cmp.Or(ln.closed, "lane-dead"))
	case recStraggler:
		for _, seq := range ln.fifo {
			if h := d.pending[seq]; h != nil && !h.queued && h.holders == 1 {
				d.requeue(seq, h, "straggler")
			}
		}
	default:
		if rec < 0 {
			return io.EOF
		}
		if len(ln.fifo) > 0 {
			if h := d.pending[ln.fifo[0]]; h != nil {
				d.latServe.Observe(time.Since(h.at).Seconds())
				delete(d.pending, ln.fifo[0])
			}
			ln.fifo = ln.fifo[1:]
			d.inflight.Add(-1)
		}
		ln.credit++
	}
	return nil
}

// drop closes lane l and queues each unanswered task no other lane
// holds. The lane's later answers are ignored here; Select still pairs
// them, and there the first answer for a task wins.
func (d *Direct) drop(ln *directLane, l int, reason string) {
	ln.closed = reason
	d.Outs[l].Close()
	d.inflight.Add(-int64(len(ln.fifo)))
	for _, seq := range ln.fifo {
		if h := d.pending[seq]; h != nil {
			if h.holders--; h.holders == 0 && !h.queued {
				d.requeue(seq, h, reason)
			}
		}
	}
	ln.fifo = nil
}

func (d *Direct) requeue(seq int64, h *heldTask, reason string) {
	h.queued = true
	d.queue = append(d.queue, seq)
	d.scope.Registry().Counter("dpn_pool_redispatch_total", obs.L("reason", reason)).Inc()
}

// dispatch spends lane credits, on queued tasks first. A queued task no
// lane holds finds any lane with a credit, so what stays queued is
// copies, which do not hold up fresh intake.
func (d *Direct) dispatch() error {
	for {
		seq, l := d.nextQueued()
		if l < 0 {
			if l = d.pick(-1); l < 0 || d.inDone {
				return nil
			}
			b, err := d.In.Tokens().ReadBlock()
			if errors.Is(err, io.EOF) {
				d.inDone = true
				return nil
			} else if err != nil {
				return err
			}
			seq = d.seq
			d.seq++
			h := &heldTask{block: b, intake: time.Now(), trace: d.pool.smp.Load().Sample()}
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

// nextQueued takes the first queued task some lane can take; l is -1
// when there is none.
func (d *Direct) nextQueued() (seq int64, l int) {
	for i := 0; i < len(d.queue); i++ {
		seq = d.queue[i]
		h := d.pending[seq]
		if h == nil { // answered while it waited
			d.queue = slices.Delete(d.queue, i, i+1)
			i--
		} else if l = d.pick(seq); l >= 0 {
			d.queue = slices.Delete(d.queue, i, i+1)
			h.queued = false
			return seq, l
		}
	}
	return 0, -1
}

// pick returns the open lane with a credit, not holding task seq, that
// holds the fewest tasks (the lowest index on a tie), or -1.
func (d *Direct) pick(seq int64) int {
	best := -1
	for i, ln := range d.lanes {
		if ln.closed == "" && ln.credit > 0 && !slices.Contains(ln.fifo, seq) &&
			(best < 0 || len(ln.fifo) < len(d.lanes[best].fifo)) {
			best = i
		}
	}
	return best
}

// send logs task seq and writes it to lane l. A lane whose task channel
// fails is dropped; a failed Log (Select is gone) ends Direct.
func (d *Direct) send(l int, seq int64) error {
	h, ln, now := d.pending[seq], &d.lanes[l], time.Now()
	if h.at.IsZero() {
		d.latQueue.Observe(now.Sub(h.intake).Seconds())
	}
	h.at = now
	h.holders++
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
		d.drop(ln, l, "lane-dead")
	}
	return nil
}

// Turnstile merges lane results in the order they become available
// (Figure 18): each goes to Out as an (index, block) pair and its bare
// index to OutIndex, returning the credit to Direct. It is the one
// deliberately nondeterministic process (§5) and owns every decision
// that depends on timing — joins, retirements, losses, stragglers —
// writing each as a record on the index stream. They change which lane
// computes a task, never which result Select emits at a position.
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
	Ctl      *core.ReadPort // the pool's control records; nil: a fixed lane set

	pool    *Pool
	lanes   []turnLane
	idxOpen bool
}

type turnLane struct {
	tag      string
	up, lost bool
	since    time.Time     // last result, join or straggler record
	wait     time.Duration // silence that makes it a straggler
	results  *obs.Counter
}

// arrival is what a reader hands the Turnstile: a result block, a
// control record (lane < 0), or the end of its stream (err != nil).
type arrival struct {
	lane, rec, arg int64
	block          []byte
	err            error
}

// laneReader reads one Turnstile input: a lane's results, or with
// lane < 0 the pool's control records.
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
		a := arrival{lane: r.lane}
		if r.lane >= 0 {
			a.block, a.err = tr.ReadBlock()
		} else if a.rec, a.err = tr.ReadInt64(); a.err == nil {
			a.arg, a.err = tr.ReadInt64()
		}
		select {
		case r.to <- a:
		case <-r.quit:
			return nil
		}
		if a.err != nil {
			return nil
		}
	}
}

// Run implements core.Process.
func (t *Turnstile) Run(env *core.Env) error {
	if t.pool == nil {
		t.pool = &Pool{}
	}
	scope := poolScope(env)
	reg := scope.Registry()
	lanesG := reg.Gauge("dpn_pool_lanes")
	t.idxOpen = t.OutIndex != nil
	hand, quit := make(chan arrival), make(chan struct{})
	defer close(quit)
	open := 0
	deadline := t.pool.cfg.StragglerDeadline
	join := func(in *core.ReadPort, l int) {
		tag := t.pool.tag(l)
		t.lanes = append(t.lanes, turnLane{tag: tag, up: true, since: time.Now(), wait: deadline,
			results: reg.Counter("dpn_pool_results_total", obs.L("lane", tag))})
		lanesG.Add(1)
		reg.Counter("dpn_pool_joins_total").Inc()
		t.pool.live.Add(1)
		scope.Record(obs.EvTask, "pool:"+tag, "join", int64(l))
		env.Spawn(&laneReader{In: in, lane: int64(l), to: hand, quit: quit})
		open++
	}
	for i, in := range t.Ins {
		join(in, i)
	}
	if t.Ctl != nil {
		env.Spawn(&laneReader{In: t.Ctl, lane: -1, to: hand, quit: quit})
		open++
	}
	var tick <-chan time.Time
	if deadline > 0 {
		tk := time.NewTicker(max(deadline/4, time.Millisecond))
		defer tk.Stop()
		tick = tk.C
	}

	pairs := t.Out.Tokens()
	for open > 0 {
		var a arrival
		select {
		case now := <-tick:
			// The wait doubles until the lane answers: a lane that is
			// idle rather than stuck costs a few records, not one a tick.
			for l := range t.lanes {
				if ln := &t.lanes[l]; ln.up && !ln.lost && now.Sub(ln.since) >= ln.wait {
					ln.since, ln.wait = now, 2*ln.wait
					t.index(recStraggler, int64(l))
				}
			}
			continue
		case a = <-hand:
		}
		switch {
		case a.err != nil && a.lane >= 0:
			// An orderly close is a leave; anything else — an exhausted
			// link, an injected fault — is a degrade. Either way Direct
			// sends again what only the lane held.
			ln, what := &t.lanes[a.lane], "leave"
			if !conduit.IsBenignClose(a.err) {
				what = "degraded"
			}
			ln.up = false
			lanesG.Add(-1)
			t.pool.live.Add(-1)
			t.index(recGone, a.lane)
			scope.Record(obs.EvTask, "pool:"+ln.tag, what, a.lane)
			open--
		case a.err != nil:
			open--
		case a.lane < 0 && a.rec == recJoin:
			if ln, ok := t.pool.lane(int(a.arg)); ok && int(a.arg) == len(t.lanes) {
				t.Ins = append(t.Ins, ln.result) // closed with the Turnstile's ports
				join(ln.result, int(a.arg))
				t.index(recJoin, a.arg, int64(t.pool.cfg.MaxInFlight))
			}
		case a.lane < 0:
			if a.arg < 0 || a.arg >= int64(len(t.lanes)) || !t.lanes[a.arg].up || t.lanes[a.arg].lost {
				continue
			}
			what := "retire"
			if a.rec == recLost {
				what, t.lanes[a.arg].lost = "lost", true
				reg.Counter("dpn_pool_lost_total").Inc()
			}
			t.index(a.rec, a.arg)
			scope.Record(obs.EvTask, "pool:"+t.lanes[a.arg].tag, what, a.arg)
		default:
			ln := &t.lanes[a.lane]
			ln.since, ln.wait = time.Now(), deadline
			ln.results.Inc()
			if err := pairs.WriteInt64(a.lane); err != nil {
				return err
			}
			if err := pairs.WriteBlock(a.block); err != nil {
				return err
			}
			t.index(a.lane)
		}
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
