package meta

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// Pool is a task farm's lane set. Lane i is a process between task<i>
// and result<i> that answers its tasks in FIFO order: the generic
// Worker, or any process with its port signature, local or shipped to a
// compute server. In an elastic farm (NewElastic) AddLane, Retire and
// MarkLost each write one record on the farm's control stream, which
// the Turnstile reads like a lane.
type Pool struct {
	net      *core.Network
	cfg      PoolConfig
	capacity int
	smp      atomic.Pointer[obs.Sampler]
	live     atomic.Int64

	mu    sync.Mutex
	lanes []poolLane
	ctl   *core.WritePort // nil: the lane set is fixed
	ended bool
}

type poolLane struct {
	tag    string
	task   *core.WritePort
	result *core.ReadPort
}

// PoolConfig parameterizes an elastic farm.
type PoolConfig struct {
	// MaxInFlight is how many tasks a lane may hold before it must
	// return a result (default 1, the on-demand scheme of Figure 17).
	MaxInFlight int
	// StragglerDeadline sends a copy of what a lane holds when it has
	// been silent this long (0 disables). The first copy to finish wins,
	// so speculation never changes the output.
	StragglerDeadline time.Duration
}

// SetTraceSampling turns on causal tracing for every Nth task (0 or
// negative turns it off): span events at intake, dispatch, result and
// emission, and a trace mark on the lane's task pipe that a netio
// transport forwards as a TRACE frame, so obs.WriteMergedTrace can
// follow the task across nodes.
func (p *Pool) SetTraceSampling(every int) { p.smp.Store(obs.NewSampler(every)) }

// LiveLanes reports the lanes whose results are still open.
func (p *Pool) LiveLanes() int64 { return p.live.Load() }

// AddWorker joins a lane running the generic Worker and returns the
// lane id and the worker's handle (to migrate the lane mid-run).
func (p *Pool) AddWorker(tag string) (int, *core.Proc) {
	var proc *core.Proc
	id := p.AddLane(tag, func(in *core.ReadPort, out *core.WritePort) {
		proc = p.net.Spawn(&Worker{In: in, Out: out, Tag: tag})
	})
	return id, proc
}

// AddLane joins a lane whose process(es) start spawns on the lane's task
// reader and result writer. It returns the lane id, or -1 when the farm
// is fixed or has finished.
func (p *Pool) AddLane(tag string, start func(in *core.ReadPort, out *core.WritePort)) int {
	p.mu.Lock()
	id := len(p.lanes)
	if p.ctl == nil || p.ended {
		p.mu.Unlock()
		return -1
	}
	tw := p.net.NewChannel(fmt.Sprintf("task%d", id), p.capacity)
	wt := p.net.NewChannel(fmt.Sprintf("result%d", id), p.capacity)
	if tag == "" {
		tag = fmt.Sprintf("lane%d", id)
	}
	p.lanes = append(p.lanes, poolLane{tag, tw.Writer(), wt.Reader()})
	ok := p.control(recJoin, id)
	p.mu.Unlock()
	if !ok {
		return -1
	}
	start(tw.Reader(), wt.Writer())
	return id
}

// Retire asks a lane to leave: it receives no further tasks, finishes
// the ones it holds, and ends.
func (p *Pool) Retire(id int) { p.locked(recRetire, id) }

// MarkLost reports a lane's worker unreachable (for example the
// deadlock monitor saw StatusPeerLost for its node): the lane gets
// no further tasks and what only it holds is sent again at once. If the
// lane is alive after all, its late results lose to the copies.
func (p *Pool) MarkLost(id int) { p.locked(recLost, id) }

func (p *Pool) locked(rec int64, id int) {
	p.mu.Lock()
	p.control(rec, id)
	p.mu.Unlock()
}

// control writes one record on the control stream, with p.mu held. The
// stream is unbounded: a caller never waits on the farm.
func (p *Pool) control(rec int64, id int) bool {
	if p.ctl == nil || p.ended {
		return false
	}
	w := p.ctl.Tokens()
	return w.WriteInt64(rec) == nil && w.WriteInt64(int64(id)) == nil
}

// end closes the control stream once the farm's work is over, and the
// task channel of every lane — also of one that joined too late for
// Direct to see — so that each lane, and then the Turnstile, ends.
func (p *Pool) end() {
	p.mu.Lock()
	p.ended = true
	if p.ctl != nil {
		p.ctl.Close()
	}
	for _, ln := range p.lanes {
		ln.task.Close()
	}
	p.mu.Unlock()
}

func (p *Pool) lane(i int) (poolLane, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if i < 0 || i >= len(p.lanes) {
		return poolLane{}, false
	}
	return p.lanes[i], true
}

// tag names lane i in the lane label of the dpn_pool_* series.
func (p *Pool) tag(i int) string {
	if ln, ok := p.lane(i); ok {
		return ln.tag
	}
	return fmt.Sprintf("w%d", i)
}

// poolScope returns the network's scope with the farm's dpn_pool_*
// families described; each farm process binds the series it updates.
func poolScope(env *core.Env) *obs.Scope {
	s := env.Network().Obs()
	reg := s.Registry()
	reg.Help("dpn_pool_lanes", "Live worker lanes in the task farm.")
	reg.Help("dpn_pool_inflight", "Tasks dispatched to a lane and not yet answered.")
	reg.Help("dpn_pool_joins_total", "Lanes that joined the farm.")
	reg.Help("dpn_pool_lost_total", "Lanes marked lost (MarkLost / peer-lost hook).")
	reg.Help("dpn_pool_tasks_total", "Tasks dispatched, by lane.")
	reg.Help("dpn_pool_results_total", "Results returned, by lane.")
	reg.Help("dpn_pool_redispatch_total", "Tasks sent again, by reason (straggler|lane-dead|lane-retired|lane-lost).")
	reg.Help("dpn_pool_emitted_total", "Results emitted in task order.")
	reg.Help("dpn_pool_latency_seconds", "Task latency distribution, by stage (queue = intake to first dispatch, service = latest dispatch to result, total = intake to in-order emission).")
	return s
}
