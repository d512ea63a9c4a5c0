package viz

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"dpn/internal/obs"
)

// This file renders the observability registry for humans: a one-line
// periodic status (StatsLine, for log output while a graph runs) and a
// final per-channel / per-process summary table (StatsTable, for
// dpnrun -stats). Both read the same snapshot that /metrics exposes,
// so the numbers printed always agree with what a scraper would see.

// statsAgg sums every series of a family from a sample snapshot.
func statsAgg(samples []obs.Sample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		if s.Kind == obs.KindHistogram {
			out[s.Name+":count"] += s.Count
			continue
		}
		out[s.Name] += s.Value
	}
	return out
}

// StatsLine renders a one-line runtime summary of the registry,
// suitable for periodic logging.
func StatsLine(reg *obs.Registry) string {
	samples := reg.Samples()
	a := statsAgg(samples)
	return fmt.Sprintf(
		"procs live=%d blocked=%d spawned=%d | chan tokens=%d bytes=%d grows=%d | net in=%dB out=%dB | tasks=%d rpcs=%d | deadlock checks=%d resolved=%d",
		a["dpn_net_procs_live"], a["dpn_net_procs_blocked"], a["dpn_net_procs_spawned_total"],
		a["dpn_conduit_tokens_total"], a["dpn_conduit_bytes_total"], a["dpn_conduit_grows_total"],
		aggLabel(samples, "dpn_conduit_link_logical_bytes_total", "dir", "in"),
		aggLabel(samples, "dpn_conduit_link_logical_bytes_total", "dir", "out"),
		a["dpn_meta_tasks_total"], a["dpn_server_rpcs_total"],
		a["dpn_deadlock_checks_total"],
		aggLabel(samples, "dpn_deadlock_events_total", "status", "resolved"))
}

// aggLabel sums the series of a family whose label matches key=value.
func aggLabel(samples []obs.Sample, name, key, value string) int64 {
	var total int64
	for _, s := range samples {
		if s.Name == name && s.Label(key) == value {
			total += s.Value
		}
	}
	return total
}

// chanRow accumulates the per-channel columns of the summary table.
type chanRow struct {
	name                string
	tokensIn, tokensOut int64
	bytesIn, bytesOut   int64
	peak, capacity      int64
	grows, blocks       int64
	blockSeconds        float64
}

// StatsTable writes the final run summary: a per-channel table (tokens,
// bytes, peak occupancy, growths, block time), the per-stage task
// counts of the meta framework, and the process/deadlock totals.
func StatsTable(w io.Writer, reg *obs.Registry) {
	samples := reg.Samples()

	rows := make(map[string]*chanRow)
	rowFor := func(name string) *chanRow {
		r := rows[name]
		if r == nil {
			r = &chanRow{name: name}
			rows[name] = r
		}
		return r
	}
	type taskKey struct{ stage, worker string }
	tasks := make(map[taskKey]int64)
	var taskKeys []taskKey
	for _, s := range samples {
		if ch := s.Label("channel"); ch != "" {
			r := rowFor(ch)
			write := s.Label("op") == "write"
			switch s.Name {
			case "dpn_conduit_tokens_total":
				if write {
					r.tokensIn += s.Value
				} else {
					r.tokensOut += s.Value
				}
			case "dpn_conduit_bytes_total":
				if write {
					r.bytesIn += s.Value
				} else {
					r.bytesOut += s.Value
				}
			case "dpn_conduit_occupancy_peak_bytes":
				r.peak = s.Value
			case "dpn_conduit_capacity_bytes":
				r.capacity = s.Value
			case "dpn_conduit_grows_total":
				r.grows += s.Value
			case "dpn_conduit_blocks_total":
				r.blocks += s.Value
			case "dpn_conduit_block_seconds":
				r.blockSeconds += s.Sum
			}
		}
		if s.Name == "dpn_meta_tasks_total" {
			k := taskKey{stage: s.Label("stage"), worker: s.Label("worker")}
			if _, seen := tasks[k]; !seen {
				taskKeys = append(taskKeys, k)
			}
			tasks[k] += s.Value
		}
	}

	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CHANNEL\tTOKENS W/R\tBYTES W/R\tPEAK\tCAP\tGROWS\tBLOCKS\tBLOCKED")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(tw, "%s\t%d/%d\t%d/%d\t%d\t%d\t%d\t%d\t%s\n",
			r.name, r.tokensIn, r.tokensOut, r.bytesIn, r.bytesOut,
			r.peak, r.capacity, r.grows, r.blocks, fmtSeconds(r.blockSeconds))
	}
	tw.Flush()

	if len(taskKeys) > 0 {
		sort.Slice(taskKeys, func(i, j int) bool {
			if taskKeys[i].stage != taskKeys[j].stage {
				return taskKeys[i].stage < taskKeys[j].stage
			}
			return taskKeys[i].worker < taskKeys[j].worker
		})
		fmt.Fprintln(w)
		tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "STAGE\tWORKER\tTASKS")
		for _, k := range taskKeys {
			worker := k.worker
			if worker == "" {
				worker = "-"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d\n", k.stage, worker, tasks[k])
		}
		tw.Flush()
	}

	a := statsAgg(samples)
	fmt.Fprintf(w, "\nprocs: spawned=%d failures=%d reconfigs=%d | deadlock: checks=%d resolved=%d true=%d\n",
		a["dpn_net_procs_spawned_total"], a["dpn_net_proc_failures_total"],
		a["dpn_net_reconfig_total"], a["dpn_deadlock_checks_total"],
		aggLabel(samples, "dpn_deadlock_events_total", "status", "resolved"),
		aggLabel(samples, "dpn_deadlock_events_total", "status", "true-deadlock"))
}

func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0s"
	case s < 1e-3:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}
