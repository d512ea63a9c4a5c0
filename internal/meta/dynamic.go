package meta

import (
	"io"
	"sync"

	"dpn/internal/core"
)

// Direct distributes task blocks to workers on demand (Figure 17): for
// every index read from Index, the next task from In is sent to that
// worker's channel. The index stream is primed with one index per
// worker (the "(n)" initial sequence of Figure 18) and extended by the
// Turnstile with the index of each completed result, so a worker
// receives a new task exactly when it finishes one.
type Direct struct {
	core.Iterative
	In    *core.ReadPort
	Index *core.ReadPort
	Outs  []*core.WritePort
}

// Step implements core.Stepper.
func (d *Direct) Step(env *core.Env) error {
	idx, err := d.Index.Tokens().ReadInt64()
	if err != nil {
		return err
	}
	b, err := d.In.Tokens().ReadBlock()
	if err != nil {
		return err
	}
	if idx < 0 || int(idx) >= len(d.Outs) {
		// A retired or out-of-range worker index: the index stream no
		// longer matches the lane set (a worker was killed, or a stale
		// index survived a pool resize). Failing hard here used to strand
		// every buffered token in the graph; instead degrade into a clean
		// cascading close (§3.4) — the ports close, the producer observes
		// ErrReadClosed, the workers drain out, and the Select emits what
		// was actually computed.
		return io.EOF
	}
	return d.Outs[idx].Tokens().WriteBlock(b)
}

// Turnstile forwards result blocks from its inputs in the order they
// become available (Figure 18). Each result is written to Out as an
// (index, block) pair so the Select process knows which worker produced
// it; the bare index is also written to OutIndex, which — primed by a
// Cons process with the initial sequence "(n)" — drives the Direct
// process's on-demand task distribution.
//
// Turnstile is the single deliberately nondeterministic process in the
// framework; because Direct and Select both follow its index stream,
// the composition's input-output relation is nevertheless determinate —
// the MetaDynamic schema is "well behaved" (§5).
//
// Failure of the OutIndex path is tolerated: once the producer's work
// is exhausted, the task-distribution side of the graph tears itself
// down (§3.4) while results are still in flight; the turnstile keeps
// forwarding pairs to the Select until its own inputs end.
type Turnstile struct {
	Ins      []*core.ReadPort
	Out      *core.WritePort
	OutIndex *core.WritePort
}

type arrival struct {
	idx   int64
	block []byte
}

// Run implements core.Process.
func (t *Turnstile) Run(env *core.Env) error {
	arrivals := make(chan arrival)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(len(t.Ins))
	for i, in := range t.Ins {
		go func(i int64, in *core.ReadPort) {
			defer wg.Done()
			r := in.Tokens()
			for {
				b, err := r.ReadBlock()
				if err != nil {
					return
				}
				select {
				case arrivals <- arrival{i, b}:
				case <-stop:
					return
				}
			}
		}(int64(i), in)
	}
	go func() {
		wg.Wait()
		close(arrivals)
	}()
	defer close(stop)

	pairW := t.Out.Tokens()
	idxOpen := t.OutIndex != nil
	for a := range arrivals {
		if err := pairW.WriteInt64(a.idx); err != nil {
			return err
		}
		if err := pairW.WriteBlock(a.block); err != nil {
			return err
		}
		if idxOpen {
			if err := t.OutIndex.Tokens().WriteInt64(a.idx); err != nil {
				// Distribution path is gone (end of work); results keep
				// flowing to the Select.
				t.OutIndex.Close()
				idxOpen = false
			}
		}
	}
	return nil
}

// Select restores task order (Figure 18): results arrive from the
// Turnstile in completion order as (index, block) pairs naming the
// worker that produced each one. Because the same index stream (primed
// with one initial index per worker) also drives the Direct process,
// the k-th occurrence of worker w in the index stream identifies both
// w's k-th task and w's k-th result. Select therefore replays the
// distribution order: it buffers early arrivals and emits each task's
// result in the order the tasks were produced — making the dynamically
// balanced composition's output identical to the static composition's
// and the single-worker pipeline's (§5).
type Select struct {
	In  *core.ReadPort
	Out *core.WritePort
	// Workers is the number of workers; the need-sequence is primed
	// with 0..Workers-1, mirroring the initial index sequence fed to
	// Direct.
	Workers int
}

// Run implements core.Process.
func (s *Select) Run(env *core.Env) error {
	need := make([]int64, 0, s.Workers*2)
	for i := 0; i < s.Workers; i++ {
		need = append(need, int64(i))
	}
	pending := make(map[int64][][]byte)
	pairR := s.In.Tokens()
	outW := s.Out.Tokens()
	for len(need) > 0 {
		w := need[0]
		if q := pending[w]; len(q) > 0 {
			b := q[0]
			pending[w] = q[1:]
			need = need[1:]
			if err := outW.WriteBlock(b); err != nil {
				return err
			}
			continue
		}
		idx, err := pairR.ReadInt64()
		if err != nil {
			if core.IsTermination(err) {
				// No more arrivals; the remaining needs correspond to
				// tasks that were never produced.
				return nil
			}
			return err
		}
		b, err := pairR.ReadBlock()
		if err != nil {
			return err
		}
		pending[idx] = append(pending[idx], b)
		// The turnstile index also directs the next task to worker idx,
		// so that worker's next result is a future need.
		need = append(need, idx)
	}
	return nil
}
