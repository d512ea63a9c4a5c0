package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricDef names one metric. BENCHMARK.json restates these lists; the
// smoke test checks the two agree.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median it may worsen by
}

// endToEnd are the metrics a user of dpn would see, reported for every
// workload by an untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.20},
}

// latencyMetrics are reported by every run, bounded by none.
var latencyMetrics = []string{"latency_p50_ms", "latency_p95_ms"}

// ladderBranches orders the rungs of each ladder branch from the bottom
// up: a rung's over_prev is its cost over the rung before it.
var ladderBranches = [][]string{
	{"stream.pipe", "token.batch", "core.channel", "conduit.loopback", "netio.link_raw", "netio.link", "mux.link", "conduit.durable"},
	{"mux.link", "wire.relay"}, // the relay adds export/import and the server to a mux link, not a WAL
	{"stream.handoff", "token.single", "proclib.hop"},
	{"token.object", "meta.dispatch", "server.call"},
}

// standaloneRungs have a cost but no rung beneath them.
var standaloneRungs = []string{"blocks.encode", "blocks.decode", "blocks.refuse", "wal.append_sync", "core.spawn", "wire.export_import"}

var rungUnits = map[string]string{
	"ns_per_token": "ns", "ns_per_op": "ns", "us_per_op": "us",
}

// perLayer lists the per-layer metrics of a traced run, in report
// order: ladder, spans, counts.
func perLayer() []metricDef {
	var out []metricDef
	add := func(name, unit, better string) { out = append(out, metricDef{Name: name, Unit: unit, Better: better}) }
	units := make(map[string]string)
	for _, r := range ladderRungs() {
		units[r.name] = r.unit
	}
	seen := make(map[string]bool)
	for _, branch := range ladderBranches {
		for i, name := range branch {
			if !seen[name] {
				seen[name] = true
				add(name+"."+units[name], rungUnits[units[name]], "lower")
				add(name+".allocs_per_kop", "1/kop", "lower")
			}
			if i > 0 {
				add(name+".over_prev", "ratio", "lower")
			}
		}
	}
	for _, name := range standaloneRungs {
		add(name+"."+units[name], rungUnits[units[name]], "lower")
	}
	add("blocks.ratio", "ratio", "higher")
	add("baseline.seq.ns_per_op", "ns", "lower")
	add("budget.sum_over_e2e", "ratio", "higher")

	// The latencies are end-to-end quantities, and an untraced run reports
	// them too. They are listed here, without a bound, because on a
	// 2-vCPU virtual machine ten runs of one commit spread by up to a fifth
	// in them: bounded, they would fail comparisons that changed nothing.
	for _, name := range latencyMetrics {
		add(name, "ms", "lower")
	}
	for _, name := range setupSpans {
		add(name+"_ms", "ms", "lower")
	}
	add("harness.src_write_share", "ratio", "lower")
	add("harness.sink_read_share", "ratio", "lower")
	add("harness.gen_late_ms_p95", "ms", "lower")
	add("harness.spin_ns", "ns", "lower")
	add("harness.noisy", "count", "lower")
	add("obs.trace_overhead", "ratio", "lower")

	for _, c := range countDefs {
		add(c.name, c.unit, c.better)
	}
	return out
}

// setupSpans are the phases of a cold set-up, in order.
var setupSpans = []string{
	"setup.listen", "setup.dial", "setup.build", "setup.export",
	"setup.ship", "setup.import", "setup.link_ready", "setup.first_op",
}

// env records where a run happened.
type env struct {
	Go              string  `json:"go"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"nproc"`
	CPU             string  `json:"cpu"`
	LoadAvg         string  `json:"loadavg"`
	DataConnections int64   `json:"data_connections"`
	Seconds         float64 `json:"seconds"`
}

func currentEnv() env {
	e := env{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		e.LoadAvg = strings.TrimSpace(string(b))
	}
	return e
}

// report is everything one run of one workload measured. The contract's
// result line is cut from it; the rest goes to the output directory.
type report struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Env       env                `json:"env"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	Detail    map[string]summary `json:"detail"`  // quartiles of the samples behind a median
	Samples   map[string]int     `json:"samples"` // sample count behind a percentile
	Info      map[string]float64 `json:"info"`
	Notes     []string           `json:"notes,omitempty"`
}

func newReport(w workload, opt runOptions) *report {
	e := currentEnv()
	e.Seconds = opt.seconds
	return &report{
		Workload: w.name(), Seed: opt.seed, Trace: opt.trace, Env: e,
		Metrics: map[string]float64{}, Detail: map[string]summary{},
		Samples: map[string]int{}, Info: map[string]float64{},
	}
}

// put reports a metric as the median of its samples and keeps the
// quartiles and the count.
func (r *report) put(name string, samples []float64) {
	s := summarize(samples)
	r.Metrics[name] = s.Median
	r.Detail[name] = s
}

// setNoise records the spin loop's two timings; a run whose machine
// changed speed by more than a tenth is marked noisy.
func (r *report) setNoise(before, after time.Duration) {
	dst := r.Info
	if r.Trace {
		dst = r.Metrics // per-layer metrics of a traced run
	}
	r.Info["harness.spin_before_ns"] = float64(before)
	dst["harness.spin_ns"] = float64(after)
	dst["harness.noisy"] = 0
	if d := math.Abs(float64(after-before)) / float64(before); d > 0.10 {
		dst["harness.noisy"] = 1
		r.Notes = append(r.Notes, fmt.Sprintf("noisy: the spin loop took %.0f%% longer or shorter after the run than before", d*100))
	}
}

// result is the one JSON object the contract asks for on the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result cuts the contract's object from the report: exactly the
// end-to-end metrics of an untraced run, or the per-layer metrics of a
// traced one.
func (r *report) result() (result, error) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer()
	}
	res := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}
