package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeDiv is the package-internal scale of the smoke tests: a
// hundredth of the real input sizes.
const smokeDiv = 100

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dpn-benchmark-test-")
	if err != nil {
		panic(err)
	}
	outDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// Every workload, untraced, at 1/100 scale: outputs verified against
// the oracles, every end-to-end metric reported.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		t.Run(w.name(), func(t *testing.T) {
			rep, err := runOne(w, runOptions{seed: defaultSeed, seconds: 1, div: smokeDiv})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 {
				t.Fatalf("%d of %d jobs failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			res, err := rep.result()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(endToEnd))
			}
			for name, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive reading", name, m.Value)
				}
			}
		})
	}
}

// One workload traced at 1/100 scale, which also runs every ladder rung:
// every per-layer metric reported, spans and merged trace written.
func TestTracedRunAndLadder(t *testing.T) {
	w := findWorkload("stream-analytics")
	rep, err := runOne(w, runOptions{seed: defaultSeed, seconds: 2, trace: true, div: smokeDiv})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	res, err := rep.result()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(perLayer()); len(res.Metrics) != want {
		t.Errorf("%d per-layer metrics reported, want %d", len(res.Metrics), want)
	}
	for _, r := range ladderRungs() {
		if v := rep.Metrics[r.name+"."+r.unit]; v <= 0 {
			t.Errorf("rung %s cost %v, want > 0", r.name, v)
		}
	}
	for _, name := range []string{"conduit.tokens", "netio.logical_bytes", "server.rpcs", "wire.parcels", "mux.sessions", "setup.ship_ms", "obs.trace_overhead"} {
		if rep.Metrics[name] <= 0 {
			t.Errorf("%s = %v, want > 0 on a workload that crosses the wire", name, rep.Metrics[name])
		}
	}
	for _, f := range []string{"stream-analytics.spans.json", "stream-analytics.trace.json", "stream-analytics.layers.json"} {
		b, err := os.ReadFile(filepath.Join(outDir, f))
		if err != nil {
			t.Error(err)
			continue
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// A wrong output must count as a failure, not as throughput.
func TestMismatchFails(t *testing.T) {
	w := &bulkWire{}
	if err := w.prepare(defaultSeed, smokeDiv); err != nil {
		t.Fatal(err)
	}
	c, res := w.open(false, nil)
	if res.err != nil {
		t.Fatal(res.err)
	}
	defer c.close()
	w.want++ // the generator now disagrees with what the sink will fold
	if res := w.round(c, nil); res.err == nil {
		t.Fatal("a round whose hash differs from the generator's verified")
	}
}

func TestWatchdog(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	_, err := guarded("stuck", 20*time.Millisecond, func() int { <-block; return 1 })
	if err == nil {
		t.Fatal("a job that never returns was not reported")
	}
	dumps, _ := filepath.Glob(filepath.Join(outDir, "stuck.hang.*.txt"))
	if len(dumps) == 0 {
		t.Fatal("no goroutine dump written")
	}
	v, err := guarded("fine", time.Second, func() int { return 7 })
	if v != 7 || err != nil {
		t.Fatalf("guarded = %d, %v", v, err)
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	v, n, err := percentile(vals, 95)
	if err != nil || n != 200 || v < 190 || v > 191 {
		t.Fatalf("p95 of 1..200 = %v (n %d, err %v)", v, n, err)
	}
	// 199 samples leave 9 beyond p95: one short.
	if _, n, err := percentile(vals[:199], 95); !errors.Is(err, errTooFewSamples) || n != 199 {
		t.Fatalf("p95 of 199 samples: n %d, err %v; want a refusal", n, err)
	}
	if _, _, err := percentile(vals[:20], 50); err != nil {
		t.Fatalf("p50 of 20 samples refused: %v", err)
	}
	// Ten windows of 20 samples; a slow spell fills the last two. It moves
	// those two windows, not the median of the windows.
	spell := make([]float64, 200)
	for i := range spell {
		spell[i] = 1
		if i >= 160 {
			spell[i] = 9
		}
	}
	w, n, err := windowedPercentile(spell, 50)
	if err != nil || n != 200 || w.N != 10 || w.Median != 1 || w.Q3 != 1 {
		t.Fatalf("windowed p50 = %+v (n %d, err %v)", w, n, err)
	}
	if _, _, err := windowedPercentile(spell[:199], 95); !errors.Is(err, errTooFewSamples) {
		t.Fatalf("windowed p95 of 199 samples: err %v; want a refusal", err)
	}
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestOracles(t *testing.T) {
	if got := hamming(12); got[11] != 16 || got[6] != 8 {
		t.Errorf("hamming = %v", got)
	}
	if got := primes(6); got[5] != 13 {
		t.Errorf("primes = %v", got)
	}
	if got := fibonacci(7); got[6] != 13 {
		t.Errorf("fibonacci = %v", got)
	}
	// key 0 closes a window at record 3; key 1 is left partial.
	pairs := []int64{0, 1, 0, 2, 0, 3, 0, 4, 1, 9}
	want := []int64{3, 0, 10, flushTag, 1, 9}
	if err := equalInt64s("stream", streamOracle(pairs), want); err != nil {
		t.Error(err)
	}
	a, b := walkBatches(1, 2, 8), walkBatches(1, 2, 8)
	if walkHash(a, 4) != walkHash(b, 4) || walkHash(a, 4) == walkHash(walkBatches(2, 2, 8), 4) {
		t.Error("walk hash does not depend on the seed alone")
	}
}

func TestCompare(t *testing.T) {
	mk := func(ops, q1, q3 float64, failed int) document {
		r := &report{Workload: "bulk-wire", Attempted: 10, Failed: failed,
			Metrics: map[string]float64{}, Detail: map[string]summary{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = 1
		}
		r.Metrics["ops_per_s"] = ops
		r.Detail["ops_per_s"] = summary{N: 7, Median: ops, Q1: q1, Q3: q3}
		return document{Runs: []*report{r}}
	}
	write := func(name string, d document) string {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", mk(100, 99, 101, 0))
	for _, tc := range []struct {
		name    string
		b       document
		verdict string
		bad     bool
	}{
		{"same", mk(98, 97, 99, 0), "ok", false},
		{"slower", mk(70, 69, 71, 0), "worse", true},
		{"wide", mk(98, 40, 160, 0), "unresolved", true},
		{"failing", mk(100, 99, 101, 1), "failed_share", true},
	} {
		var out bytes.Buffer
		bad, err := compareFiles(&out, base, write(tc.name+".json", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if bad != tc.bad || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: bad=%v, output:\n%s", tc.name, bad, out.String())
		}
	}
}

// BENCHMARK.json restates the harness's metric and workload lists; the
// two must not drift apart.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads() {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name() {
			t.Errorf("workload %d: BENCHMARK.json and the harness disagree on %s", i, w.name())
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}
