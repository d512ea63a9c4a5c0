package meta

import (
	"fmt"

	"dpn/internal/core"
	"dpn/internal/obs"
	"dpn/internal/proclib"
	"dpn/internal/token"
)

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
		st.Workers = append(st.Workers, &Worker{In: tw.Reader(), Out: wt.Writer(), Tag: laneTag(i)})
	}
	return st
}

// Dynamic describes the dynamically balanced composition of Figures 17
// and 18, the package's one task farm: Direct distributes a new task to
// a lane for every result collected from it; the Turnstile collects
// results as they become available while Select presents them to the
// consumer in task order. Lane i is Workers[i], between task<i> and
// result<i>; a process with the same port signature may run in its
// place, local or shipped to a compute server.
type Dynamic struct {
	Producer  *Producer
	Direct    *Direct
	Workers   []*Worker
	Turnstile *Turnstile
	IndexCons *proclib.Cons
	Select    *Select
	Consumer  *Consumer
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

// SetTraceSampling turns on causal tracing for every Nth task (0 or
// negative turns it off): span events at intake, dispatch, result and
// emission, and a trace mark on the lane's task pipe that a netio
// transport forwards as a TRACE frame, so obs.WriteMergedTrace can
// follow the task across nodes. Call it before Spawn.
func (d *Dynamic) SetTraceSampling(every int) { d.Direct.smp = obs.NewSampler(every) }

// NewDynamic builds (without spawning) the dynamic composition with the
// given worker count.
func NewDynamic(n *core.Network, source Task, workers, capacity int) *Dynamic {
	if workers < 1 {
		panic("meta: NewDynamic requires at least one worker")
	}
	pw := n.NewChannel("tasks", capacity)       // producer → direct
	sc := n.NewChannel("ordered", capacity)     // select → consumer
	tPairs := n.NewChannel("tsPairs", capacity) // turnstile → select
	rawIdx := n.NewChannel("rawIdx", capacity)  // turnstile → cons
	dirIdx := n.NewChannel("dirIdx", capacity)  // cons (primed) → direct
	// direct → select: what is unread is bounded by the tasks in flight
	// plus those of lanes that died, so it never holds Direct up.
	log := n.NewChannel("dispatched", capacity)
	log.Pipe().Unbound()
	dyn := &Dynamic{
		Producer:  &Producer{Source: source, Out: pw.Writer()},
		Direct:    &Direct{In: pw.Reader(), Index: dirIdx.Reader(), Log: log.Writer()},
		Turnstile: &Turnstile{Out: tPairs.Writer(), OutIndex: rawIdx.Writer()},
		IndexCons: &proclib.Cons{In: rawIdx.Reader(), Out: dirIdx.Writer()},
		Select:    &Select{In: tPairs.Reader(), Log: log.Reader(), Out: sc.Writer()},
		Consumer:  &Consumer{In: sc.Reader()},
	}
	// The "(n)" process of Figure 18: prime the index stream with one
	// index per worker so the first batch of tasks is distributed.
	for i := 0; i < workers; i++ {
		tw := n.NewChannel(fmt.Sprintf("task%d", i), capacity)
		wt := n.NewChannel(fmt.Sprintf("result%d", i), capacity)
		dyn.Direct.Outs = append(dyn.Direct.Outs, tw.Writer())
		dyn.Turnstile.Ins = append(dyn.Turnstile.Ins, wt.Reader())
		dyn.Workers = append(dyn.Workers, &Worker{In: tw.Reader(), Out: wt.Writer(), Tag: laneTag(i)})
		dyn.IndexCons.Head = token.AppendInt64(dyn.IndexCons.Head, int64(i))
	}
	return dyn
}
