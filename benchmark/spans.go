package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval around a call the harness makes into the
// program. Parent is the index of the enclosing span, or -1.
type span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	Run    string
}

// recorder keeps spans in memory and writes them when the run ends. A
// nil recorder records nothing, so untraced runs pay one nil check.
type recorder struct {
	mu    sync.Mutex
	run   string
	spans []span
}

const noParent = -1

// begin opens a span and returns its index.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return noParent
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Run: r.run})
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, start, end time.Time, parent int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: parent, Run: r.run})
	r.mu.Unlock()
}

// scope is one top-level span — a set-up, a round, a paced phase — under
// which a job records its spans, their names prefixed with the
// scope's. The zero scope records nothing.
type scope struct {
	rec  *recorder
	name string
	id   int
}

// scope opens a top-level span; done closes it.
func (r *recorder) scope(name string) scope { return scope{r, name, r.begin(name, noParent)} }

func (s scope) done()                 { s.rec.end(s.id) }
func (s scope) begin(name string) int { return s.rec.begin(s.name+"."+name, s.id) }
func (s scope) end(id int)            { s.rec.end(id) }

// add records a span whose interval was measured elsewhere.
func (s scope) add(name string, start, end time.Time) {
	s.rec.add(s.name+"."+name, start, end, s.id)
}

// under is the same scope with the given span as the parent of what is
// recorded next.
func (s scope) under(id int) scope {
	s.id = id
	return s
}

// setRun labels the spans recorded from now on.
func (r *recorder) setRun(run string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.run = run
	r.mu.Unlock()
}

// durations returns, per span name, the total time of the spans under
// the given run label.
func (r *recorder) durations(run string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Run == run && !s.End.IsZero() {
			out[s.Name] += s.End.Sub(s.Start)
		}
	}
	return out
}

// selfTimes returns, per span name, duration minus the part covered by
// direct children: where the time of a nested set-up actually went.
func (r *recorder) selfTimes(run string) map[string]time.Duration {
	out := make(map[string]time.Duration)
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 && !s.End.IsZero() {
			child[s.Parent] += s.End.Sub(s.Start)
		}
	}
	for i, s := range r.spans {
		if s.Run == run && !s.End.IsZero() {
			out[s.Name] += s.End.Sub(s.Start) - child[i]
		}
	}
	return out
}

// writeChromeTrace writes the spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto): complete events, microsecond
// timestamps from the first span, one row per run label.
func (r *recorder) writeChromeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	var epoch time.Time
	if len(r.spans) > 0 {
		epoch = r.spans[0].Start
	}
	tids := make(map[string]int)
	events := make([]event, 0, len(r.spans))
	for i, s := range r.spans {
		if s.End.IsZero() {
			continue
		}
		tid, ok := tids[s.Run]
		if !ok {
			tid = len(tids) + 1
			tids[s.Run] = tid
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: tid,
			TS:   float64(s.Start.Sub(epoch).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "run": s.Run},
		})
	}
	r.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
