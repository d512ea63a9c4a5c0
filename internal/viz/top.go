package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"dpn/internal/obs"
)

// TopView renders a live, periodically refreshing view of one registry
// — the dpntop mode of cmd/dpnrun. Each Render call takes one metrics
// snapshot (the registry's Samples), diffs it against the previous
// call, and prints per-channel rates alongside the task farm's lane
// table. Rates and blocked-time percentages are
// therefore *interval* figures, not run totals: a channel whose writer
// spent the whole last interval throttled by a full buffer shows
// WR-BLK 100% even if the run as a whole has been smooth.
type TopView struct {
	w io.Writer
	// Clear, when set, prefixes each frame with the ANSI home+clear
	// sequence so successive frames overdraw in place like top(1).
	Clear bool

	prev  map[string]float64
	prevT time.Time
	frame int
}

// NewTopView creates a view writing frames to w.
func NewTopView(w io.Writer) *TopView {
	return &TopView{w: w, prev: make(map[string]float64)}
}

// seriesKey identifies one labeled series across snapshots.
func seriesKey(s obs.Sample, field string) string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('|')
	b.WriteString(field)
	labels := append([]obs.Label(nil), s.Labels...)
	sort.Slice(labels, func(i, j int) bool { return labels[i].Key < labels[j].Key })
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// topRow accumulates one channel's columns for a frame.
type topRow struct {
	name                string
	tokens, bytes       float64 // interval deltas (write side)
	depth, capacity     int64
	readWait, writeWait float64 // interval blocked ns
	blocks              float64
}

// Render diffs samples against the previous frame and writes the view.
// The first call only primes the delta state and prints a header.
func (t *TopView) Render(samples []obs.Sample, now time.Time) {
	cur := make(map[string]float64, len(samples))
	for _, s := range samples {
		if s.Kind == obs.KindHistogram {
			cur[seriesKey(s, "sum")] = s.Sum
			cur[seriesKey(s, "count")] = float64(s.Count)
			continue
		}
		cur[seriesKey(s, "v")] = float64(s.Value)
	}
	interval := now.Sub(t.prevT)
	first := t.frame == 0
	delta := func(s obs.Sample, field string) float64 {
		k := seriesKey(s, field)
		v := cur[k]
		if first {
			return 0
		}
		return v - t.prev[k]
	}

	rows := make(map[string]*topRow)
	rowFor := func(name string) *topRow {
		r := rows[name]
		if r == nil {
			r = &topRow{name: name}
			rows[name] = r
		}
		return r
	}
	type laneRow struct {
		lane           string
		tasks, results float64
	}
	lanes := make(map[string]*laneRow)
	var agg struct {
		live, blocked, poolLanes, inflight int64
		emitted, redispatch                float64
		lat                                map[string][2]float64 // stage -> {sum, count} deltas
	}
	agg.lat = make(map[string][2]float64)

	for _, s := range samples {
		if ch := s.Label("channel"); ch != "" {
			r := rowFor(ch)
			write := s.Label("op") == "write"
			switch s.Name {
			case "dpn_conduit_tokens_total":
				if write {
					r.tokens += delta(s, "v")
				}
			case "dpn_conduit_bytes_total":
				if write {
					r.bytes += delta(s, "v")
				}
			case "dpn_conduit_occupancy_bytes":
				r.depth = s.Value
			case "dpn_conduit_capacity_bytes":
				r.capacity = s.Value
			case "dpn_conduit_wait_ns_total":
				if write {
					r.writeWait += delta(s, "v")
				} else {
					r.readWait += delta(s, "v")
				}
			case "dpn_conduit_blocks_total":
				r.blocks += delta(s, "v")
			}
		}
		switch s.Name {
		case "dpn_net_procs_live":
			agg.live += s.Value
		case "dpn_net_procs_blocked":
			agg.blocked += s.Value
		case "dpn_pool_lanes":
			agg.poolLanes += s.Value
		case "dpn_pool_inflight":
			agg.inflight += s.Value
		case "dpn_pool_emitted_total":
			agg.emitted += delta(s, "v")
		case "dpn_pool_redispatch_total":
			agg.redispatch += delta(s, "v")
		case "dpn_pool_latency_seconds":
			st := s.Label("stage")
			v := agg.lat[st]
			v[0] += delta(s, "sum")
			v[1] += delta(s, "count")
			agg.lat[st] = v
		case "dpn_pool_tasks_total", "dpn_pool_results_total":
			lane := s.Label("lane")
			if lane == "" {
				break
			}
			lr := lanes[lane]
			if lr == nil {
				lr = &laneRow{lane: lane}
				lanes[lane] = lr
			}
			if s.Name == "dpn_pool_tasks_total" {
				lr.tasks += delta(s, "v")
			} else {
				lr.results += delta(s, "v")
			}
		}
	}

	t.prev, t.prevT = cur, now
	t.frame++

	if t.Clear {
		fmt.Fprint(t.w, "\x1b[H\x1b[2J")
	}
	secs := interval.Seconds()
	if first || secs <= 0 {
		fmt.Fprintf(t.w, "dpntop — priming (frame 1): procs live=%d blocked=%d lanes=%d inflight=%d\n",
			agg.live, agg.blocked, agg.poolLanes, agg.inflight)
		return
	}
	fmt.Fprintf(t.w, "dpntop — interval %s | procs live=%d blocked=%d | pool lanes=%d inflight=%d emit/s=%.0f redisp=%.0f\n",
		interval.Round(time.Millisecond), agg.live, agg.blocked,
		agg.poolLanes, agg.inflight, agg.emitted/secs, agg.redispatch)

	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(t.w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CHANNEL\tTOK/s\tKB/s\tDEPTH\tRD-BLK%\tWR-BLK%")
	intervalNs := float64(interval.Nanoseconds())
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(tw, "%s\t%.0f\t%.1f\t%d/%d\t%s\t%s\n",
			r.name, r.tokens/secs, r.bytes/secs/1024, r.depth, r.capacity,
			fmtPct(r.readWait/intervalNs), fmtPct(r.writeWait/intervalNs))
	}
	tw.Flush()

	if len(lanes) > 0 {
		laneNames := make([]string, 0, len(lanes))
		for n := range lanes {
			laneNames = append(laneNames, n)
		}
		sort.Strings(laneNames)
		tw = tabwriter.NewWriter(t.w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "LANE\tTASKS/s\tRESULTS/s")
		for _, n := range laneNames {
			lr := lanes[n]
			fmt.Fprintf(tw, "%s\t%.0f\t%.0f\n", lr.lane, lr.tasks/secs, lr.results/secs)
		}
		tw.Flush()
	}
	if len(agg.lat) > 0 {
		var parts []string
		for _, st := range []string{"queue", "service", "total"} {
			v := agg.lat[st]
			if v[1] > 0 {
				parts = append(parts, fmt.Sprintf("%s=%s", st, fmtSeconds(v[0]/v[1])))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(t.w, "pool latency (interval mean): %s\n", strings.Join(parts, " "))
		}
	}
}

// fmtPct renders a 0..1 fraction as a percentage column; fractions can
// exceed 1 when several parties block on the same channel concurrently.
func fmtPct(f float64) string {
	if f <= 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f%%", f*100)
}
