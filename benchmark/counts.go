package main

import (
	"slices"
	"sort"
	"strings"
	"time"
)

// sample is one series of a node's metric registry, as scraped by the
// adapter: counters and gauges carry Value; histograms carry their
// observation count in Value and the sum of observations in Sum.
type sample struct {
	Node   string
	Name   string
	Labels map[string]string
	Value  float64
	Sum    float64
}

func (s sample) key() string {
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(s.Node + "|" + s.Name)
	for _, k := range keys {
		b.WriteString("|" + k + "=" + s.Labels[k])
	}
	return b.String()
}

// isGauge reports whether a series is a level rather than a running
// total; the program's totals end in _total and its histograms in
// _seconds.
func isGauge(name string) bool {
	return !strings.HasSuffix(name, "_total") && !strings.HasSuffix(name, "_seconds")
}

// fold merges series with the same key: one-job networks scraped as
// they retire repeat the same channel names. Totals add; levels keep
// their maximum.
func fold(samples []sample) map[string]sample {
	out := make(map[string]sample, len(samples))
	for _, s := range samples {
		k := s.key()
		prev, ok := out[k]
		switch {
		case !ok:
			out[k] = s
		case isGauge(s.Name):
			prev.Value = max(prev.Value, s.Value)
			out[k] = prev
		default:
			prev.Value += s.Value
			prev.Sum += s.Sum
			out[k] = prev
		}
	}
	return out
}

// delta is what happened between two scrapes: totals subtract, levels
// are read from the second scrape.
func delta(before, after []sample) []sample {
	b, a := fold(before), fold(after)
	out := make([]sample, 0, len(a))
	for k, s := range a {
		if !isGauge(s.Name) {
			s.Value -= b[k].Value
			s.Sum -= b[k].Sum
		}
		out = append(out, s)
	}
	return out
}

// countDef is one per-layer count: which series it sums, and by what it
// is divided so that runs of different length compare.
type countDef struct {
	name, unit, better string
	series             string            // program metric name
	match              map[string]string // required label values
	per                string            // "", "op", "kop" or "round"
	agg                string            // "sum" (default) or "max"
}

// countDefs are the counts scraped after traced rounds, by canonical
// series name only. Frames and link bytes are counted where they leave
// (dir=out), so a frame is counted once although both ends live here.
var countDefs = []countDef{
	{name: "conduit.tokens", unit: "1/op", better: "lower", series: "dpn_conduit_tokens_total", match: map[string]string{"op": "write"}, per: "op"},
	{name: "conduit.bytes", unit: "B/op", better: "lower", series: "dpn_conduit_bytes_total", match: map[string]string{"op": "write"}, per: "op"},
	{name: "conduit.blocks", unit: "1/kop", better: "lower", series: "dpn_conduit_blocks_total", per: "kop"},
	{name: "conduit.grows", unit: "1/round", better: "lower", series: "dpn_conduit_grows_total", per: "round"},
	{name: "conduit.occupancy_peak_bytes", unit: "B", better: "lower", series: "dpn_conduit_occupancy_peak_bytes", agg: "max"},
	{name: "netio.frames_data", unit: "1/kop", better: "lower", series: "dpn_broker_frames_total", match: map[string]string{"dir": "out", "kind": "data"}, per: "kop"},
	{name: "netio.frames_data_c", unit: "1/kop", better: "lower", series: "dpn_broker_frames_total", match: map[string]string{"dir": "out", "kind": "data-c"}, per: "kop"},
	{name: "netio.frames_ack", unit: "1/kop", better: "lower", series: "dpn_broker_frames_total", match: map[string]string{"dir": "out", "kind": "ack"}, per: "kop"},
	{name: "netio.frames_coalesced", unit: "1/kop", better: "higher", series: "dpn_conduit_link_frames_coalesced_total", per: "kop"},
	{name: "netio.logical_bytes", unit: "B/op", better: "lower", series: "dpn_conduit_link_logical_bytes_total", match: map[string]string{"dir": "out"}, per: "op"},
	{name: "netio.wire_bytes", unit: "B/op", better: "lower", series: "dpn_conduit_link_wire_bytes_total", match: map[string]string{"dir": "out"}, per: "op"},
	{name: "netio.credit_stalls", unit: "1/round", better: "lower", series: "dpn_broker_credit_stalls_total", per: "round"},
	{name: "netio.retries", unit: "1/round", better: "lower", series: "dpn_conduit_link_retries_total", per: "round"},
	{name: "mux.credit_stalls", unit: "1/round", better: "lower", series: "dpn_mux_credit_stalls_total", per: "round"},
	{name: "meta.tasks", unit: "1/round", better: "lower", series: "dpn_meta_tasks_total", match: map[string]string{"stage": "consumed"}, per: "round"},
	{name: "server.rpcs", unit: "1/round", better: "lower", series: "dpn_server_rpcs_total", per: "round"},
	{name: "wire.parcels", unit: "1/round", better: "lower", series: "dpn_wire_parcels_total", per: "round"},
	{name: "core.procs_spawned", unit: "1/round", better: "lower", series: "dpn_net_procs_spawned_total", per: "round"},
	{name: "core.reconfigs", unit: "1/round", better: "lower", series: "dpn_net_reconfig_total", per: "round"},
	{name: "deadlock.checks", unit: "1/round", better: "lower", series: "dpn_deadlock_checks_total", per: "round"},
	{name: "deadlock.events", unit: "1/round", better: "lower", series: "dpn_deadlock_events_total", per: "round"},

	// Derived in deriveCounts or measured by the harness itself; listed
	// here so they are named in one place.
	{name: "conduit.wait_read_share_cut", unit: "ratio", better: "lower"},
	{name: "conduit.wait_write_share_cut", unit: "ratio", better: "lower"},
	{name: "conduit.wait_read_share_local", unit: "ratio", better: "lower"},
	{name: "conduit.wait_write_share_local", unit: "ratio", better: "lower"},
	{name: "deadlock.check_us", unit: "us", better: "lower"},
	{name: "mux.sessions", unit: "count", better: "lower"},
	{name: "mux.streams_per_session", unit: "count", better: "lower"},
	{name: "wal.appended_bytes", unit: "B", better: "lower"},
	{name: "wal.fsyncs", unit: "count", better: "lower"},
	{name: "wal.fsync_ms_p50", unit: "ms", better: "lower"},
	{name: "runtime.gc_cycles", unit: "1/round", better: "lower"},
	{name: "runtime.gc_pause_ms", unit: "ms/round", better: "lower"},
	{name: "runtime.goroutines_peak", unit: "count", better: "lower"},
	{name: "runtime.vol_ctx_switches_per_kop", unit: "1/kop", better: "lower"},
	{name: "runtime.invol_ctx_switches_per_kop", unit: "1/kop", better: "lower"},
}

func matches(s sample, d countDef) bool {
	if s.Name != d.series {
		return false
	}
	for k, v := range d.match {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// deriveCounts turns the traced rounds' scrape delta into per-layer
// metrics. cut names the channels that cross the wire.
func deriveCounts(d []sample, cut []string, ops int64, wall time.Duration, rounds int) map[string]float64 {
	out := make(map[string]float64)
	for _, def := range countDefs {
		if def.series == "" {
			continue
		}
		var v float64
		for _, s := range d {
			if !matches(s, def) {
				continue
			}
			if def.agg == "max" {
				v = max(v, s.Value)
			} else {
				v += s.Value
			}
		}
		switch def.per {
		case "op":
			v /= float64(ops)
		case "kop":
			v /= float64(ops) / 1e3
		case "round":
			v /= float64(rounds)
		}
		out[def.name] = v
	}

	// Wait shares: the mean share of the rounds' wall time a channel end
	// spent blocked, for the channels that cross the wire and for the
	// local ones. A producer throttled by a full buffer shows as write
	// wait, a starved consumer as read wait.
	isCut := func(channel string) bool { return slices.Contains(cut, channel) }
	type acc struct{ ns, ends float64 }
	waits := make(map[string]*acc)
	var checkSum, checkCount float64
	for _, s := range d {
		switch s.Name {
		case "dpn_conduit_wait_ns_total":
			group := "local"
			if isCut(s.Labels["channel"]) {
				group = "cut"
			}
			k := "conduit.wait_" + s.Labels["op"] + "_share_" + group
			if waits[k] == nil {
				waits[k] = &acc{}
			}
			waits[k].ns += s.Value
			waits[k].ends++
		case "dpn_deadlock_check_seconds":
			checkSum += s.Sum
			checkCount += s.Value
		}
	}
	for _, op := range []string{"read", "write"} {
		for _, group := range []string{"cut", "local"} {
			k := "conduit.wait_" + op + "_share_" + group
			out[k] = 0
			if a := waits[k]; a != nil && a.ends > 0 && wall > 0 {
				out[k] = a.ns / a.ends / float64(wall.Nanoseconds())
			}
		}
	}
	out["deadlock.check_us"] = 0
	if checkCount > 0 {
		out["deadlock.check_us"] = checkSum / checkCount * 1e6
	}
	return out
}
