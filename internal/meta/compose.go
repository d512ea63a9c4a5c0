package meta

import (
	"fmt"

	"dpn/internal/core"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

// Pipeline wires the simple Producer→Worker→Consumer pipeline of
// Figure 1 and returns the consumer for observation. source produces
// the work; capacity sets channel buffer sizes (0 = network default).
func Pipeline(n *core.Network, source Task, capacity int) *Consumer {
	pw := n.NewChannel("tasks", capacity)
	wc := n.NewChannel("results", capacity)
	n.Spawn(&Producer{Source: source, Out: pw.Writer()})
	n.Spawn(&Worker{In: pw.Reader(), Out: wc.Writer()})
	consumer := &Consumer{In: wc.Reader()}
	n.Spawn(consumer)
	return consumer
}

// Static describes the statically balanced parallel composition of
// Figure 16 before it is spawned: a Scatter distributing equal numbers
// of tasks to the workers and a Gather collecting results in the same
// round-robin order.
type Static struct {
	Scatter  *proclib.Scatter
	Workers  []*Worker
	Gather   *proclib.Gather
	Consumer *Consumer
	Producer *Producer
}

// Spawn starts every process in the composition.
func (s *Static) Spawn(n *core.Network) {
	n.Spawn(s.Producer)
	n.Spawn(s.Scatter)
	for _, w := range s.Workers {
		n.Spawn(w)
	}
	n.Spawn(s.Gather)
	n.Spawn(s.Consumer)
}

// NewStatic builds (without spawning) the static composition with the
// given worker count. Exposing the built processes lets callers ship
// the workers to remote compute servers before spawning the rest.
func NewStatic(n *core.Network, source Task, workers, capacity int) *Static {
	if workers < 1 {
		panic("meta: NewStatic requires at least one worker")
	}
	pw := n.NewChannel("tasks", capacity)
	wc := n.NewChannel("results", capacity)
	st := &Static{
		Producer: &Producer{Source: source, Out: pw.Writer()},
		Scatter:  &proclib.Scatter{In: pw.Reader()},
		Gather:   &proclib.Gather{Out: wc.Writer()},
		Consumer: &Consumer{In: wc.Reader()},
	}
	for i := 0; i < workers; i++ {
		tw := n.NewChannel(fmt.Sprintf("task%d", i), capacity)
		wt := n.NewChannel(fmt.Sprintf("result%d", i), capacity)
		st.Scatter.Outs = append(st.Scatter.Outs, tw.Writer())
		st.Gather.Ins = append(st.Gather.Ins, wt.Reader())
		st.Workers = append(st.Workers, &Worker{In: tw.Reader(), Out: wt.Writer(), Tag: fmt.Sprintf("w%d", i)})
	}
	return st
}

// Dynamic describes the dynamically balanced composition of Figures 17
// and 18, the package's one task farm: Direct distributes a new task to
// a lane for every result collected from it; the Turnstile collects
// results as they become available while Select presents them to the
// consumer in task order. Pool is its lane set.
type Dynamic struct {
	Producer  *Producer
	Direct    *Direct
	Workers   []*Worker
	Turnstile *Turnstile
	IndexCons *proclib.Cons
	Select    *Select
	Consumer  *Consumer
	Pool      *Pool
}

// Spawn starts every process in the composition.
func (d *Dynamic) Spawn(n *core.Network) {
	n.Spawn(d.Producer)
	n.Spawn(d.Direct)
	for _, w := range d.Workers {
		n.Spawn(w)
	}
	n.Spawn(d.Turnstile)
	n.Spawn(d.IndexCons)
	n.Spawn(d.Select)
	n.Spawn(d.Consumer)
}

// NewDynamic builds (without spawning) the dynamic composition with the
// given worker count: the farm's fixed-lane, one-credit case.
func NewDynamic(n *core.Network, source Task, workers, capacity int) *Dynamic {
	if workers < 1 {
		panic("meta: NewDynamic requires at least one worker")
	}
	dyn := newFarm(n, source, capacity, PoolConfig{})
	// The "(n)" process of Figure 18: prime the index stream with one
	// index per worker so the first batch of tasks is distributed.
	for i := 0; i < workers; i++ {
		tw := n.NewChannel(fmt.Sprintf("task%d", i), capacity)
		wt := n.NewChannel(fmt.Sprintf("result%d", i), capacity)
		tag := fmt.Sprintf("w%d", i)
		dyn.Pool.lanes = append(dyn.Pool.lanes, poolLane{tag, tw.Writer(), wt.Reader()})
		dyn.Direct.Outs = append(dyn.Direct.Outs, tw.Writer())
		dyn.Turnstile.Ins = append(dyn.Turnstile.Ins, wt.Reader())
		dyn.Workers = append(dyn.Workers, &Worker{In: tw.Reader(), Out: wt.Writer(), Tag: tag})
		dyn.IndexCons.Head = token.AppendInt64(dyn.IndexCons.Head, int64(i))
	}
	return dyn
}

// NewElastic builds (without spawning) the farm with a lane set that
// can grow and shrink while the run is in flight (Pool.AddWorker,
// Pool.Retire, Pool.MarkLost), starting from the given worker count —
// zero is legal: the farm waits for a lane to join. Its merged output is
// byte-identical to the fixed farm's and the Static composition's.
func NewElastic(n *core.Network, source Task, workers, capacity int, cfg PoolConfig) *Dynamic {
	dyn := newFarm(n, source, capacity, cfg)
	ctl := n.NewChannel("lanes", capacity)
	ctl.Pipe().Unbound()
	dyn.Pool.ctl = ctl.Writer()
	dyn.Turnstile.Ctl = ctl.Reader()
	for i := 0; i < workers; i++ {
		dyn.Pool.AddWorker(fmt.Sprintf("w%d", i))
	}
	return dyn
}

// newFarm builds the farm's processes around an empty lane set.
func newFarm(n *core.Network, source Task, capacity int, cfg PoolConfig) *Dynamic {
	cfg.MaxInFlight = max(cfg.MaxInFlight, 1)
	pw := n.NewChannel("tasks", capacity)       // producer → direct
	sc := n.NewChannel("ordered", capacity)     // select → consumer
	tPairs := n.NewChannel("tsPairs", capacity) // turnstile → select
	rawIdx := n.NewChannel("rawIdx", capacity)  // turnstile → cons
	dirIdx := n.NewChannel("dirIdx", capacity)  // cons (primed) → direct
	// direct → select: what is unread is bounded by the tasks in flight
	// plus those of lanes that died, so it never holds Direct up.
	log := n.NewChannel("dispatched", capacity)
	log.Pipe().Unbound()
	pool := &Pool{net: n, cfg: cfg, capacity: capacity}
	return &Dynamic{
		Producer:  &Producer{Source: source, Out: pw.Writer()},
		Direct:    &Direct{In: pw.Reader(), Index: dirIdx.Reader(), Log: log.Writer(), pool: pool},
		Turnstile: &Turnstile{Out: tPairs.Writer(), OutIndex: rawIdx.Writer(), pool: pool},
		IndexCons: &proclib.Cons{In: rawIdx.Reader(), Out: dirIdx.Writer()},
		Select:    &Select{In: tPairs.Reader(), Log: log.Reader(), Out: sc.Writer()},
		Consumer:  &Consumer{In: sc.Reader()},
		Pool:      pool,
	}
}
