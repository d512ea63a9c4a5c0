package dpn_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// waitMetricsReady polls the observability endpoint until it serves a
// dpn_ series — the readiness signal for everything behind it (the
// TCP listener alone can be up before the scope has registered its
// first family).
func waitMetricsReady(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	pause := 5 * time.Millisecond
	for {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), "dpn_") {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint %s never became ready (%v)", addr, err)
		}
		time.Sleep(pause)
		if pause < 250*time.Millisecond {
			pause *= 2
		}
	}
}

// TestObservabilitySmoke drives the PR's observability surface through
// the real command-line tools: the metrics/pprof HTTP endpoint, the
// live dpntop view, and the merged multi-node Chrome trace — the same
// paths an operator uses, each tool a separate OS process.
func TestObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke test; skipped with -short")
	}
	bin := t.TempDir()
	for _, tool := range []string{"dpnrun", "dpnserver", "dpnregistry"} {
		out, err := exec.Command("go", "build", "-o", bin+"/"+tool, "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	// A compute server's -metrics endpoint must expose the exposition
	// and, with -pprof, the profile index, for as long as it lives.
	t.Run("metrics-endpoint", func(t *testing.T) {
		addr := freePort(t)
		rpc := freePort(t)
		broker := freePort(t)
		srv := exec.Command(bin+"/dpnserver",
			"-name", "obs", "-rpc", rpc, "-broker", broker,
			"-metrics", addr, "-pprof", "-mutexprofile", "5", "-tracesample", "64")
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		defer stop(srv)
		waitMetricsReady(t, addr)

		get := func(path string) string {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
			return string(body)
		}
		if body := get("/metrics"); !strings.Contains(body, "dpn_") {
			t.Fatalf("exposition has no dpn_ series:\n%.300s", body)
		}
		if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine profile") {
			t.Fatal("pprof goroutine profile missing")
		}
	})

	// A local task-farm run with -top must render dpntop frames with the
	// farm's lane pane, and -trace must leave a valid Chrome trace with
	// the farm's sampled intake→dispatch→result→emit spans even though no
	// network link is involved.
	t.Run("dpntop-and-trace", func(t *testing.T) {
		traceFile := filepath.Join(t.TempDir(), "trace.json")
		out, err := exec.Command(bin+"/dpnrun",
			"-graph", "factor", "-workers", "2", "-bits", "128",
			"-top", "25ms", "-trace", traceFile, "-tracesample", "1").CombinedOutput()
		if err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		if !strings.Contains(string(out), "dpntop") {
			t.Fatalf("no dpntop frames rendered:\n%s", out)
		}
		if !strings.Contains(string(out), "CHANNEL") {
			t.Fatalf("dpntop never progressed past priming:\n%s", out)
		}
		if !strings.Contains(string(out), "LANE") {
			t.Fatalf("dpntop rendered no lane pane:\n%s", out)
		}
		assertTraceFile(t, traceFile, 1)
	})

	// The acceptance run: driver + two compute servers, sampling on,
	// chaos-free; the merged trace must hold spans from several
	// processes connected by causal flow edges.
	t.Run("distributed-trace-merge", func(t *testing.T) {
		regAddr := freePort(t)
		reg := exec.Command(bin+"/dpnregistry", "-addr", regAddr)
		if err := reg.Start(); err != nil {
			t.Fatal(err)
		}
		defer stop(reg)
		waitListening(t, regAddr)

		var servers []*exec.Cmd
		for i := 0; i < 2; i++ {
			rpc := freePort(t)
			broker := freePort(t)
			srv := exec.Command(bin+"/dpnserver",
				"-name", fmt.Sprintf("t%d", i),
				"-rpc", rpc, "-broker", broker, "-registry", regAddr,
				"-tracesample", "1")
			if err := srv.Start(); err != nil {
				t.Fatal(err)
			}
			servers = append(servers, srv)
			waitListening(t, rpc)
		}
		defer func() {
			for _, s := range servers {
				stop(s)
			}
		}()
		waitRegistered(t, regAddr, len(servers))

		traceFile := filepath.Join(t.TempDir(), "merged.json")
		out, err := exec.Command(bin+"/dpnrun",
			"-graph", "factor", "-workers", "4", "-bits", "160",
			"-registry", regAddr,
			"-trace", traceFile, "-tracesample", "1").CombinedOutput()
		if err != nil {
			t.Fatalf("distributed factor: %v\n%s", err, out)
		}
		evs := assertTraceFile(t, traceFile, 3)
		// At least one causal edge must have crossed processes: a flow
		// start on one pid finished on another, in forward time order.
		starts := map[int]struct {
			pid int
			ts  float64
		}{}
		crossed := false
		for _, ev := range evs {
			if ev.Ph == "s" {
				starts[ev.ID] = struct {
					pid int
					ts  float64
				}{ev.PID, ev.TS}
			}
		}
		for _, ev := range evs {
			if ev.Ph != "f" {
				continue
			}
			s, ok := starts[ev.ID]
			if !ok {
				t.Fatalf("flow end %d without a start", ev.ID)
			}
			if s.ts >= ev.TS {
				t.Fatalf("flow %d not causal: start ts %v >= end ts %v", ev.ID, s.ts, ev.TS)
			}
			if s.pid != ev.PID {
				crossed = true
			}
		}
		if !crossed {
			t.Fatal("no cross-process causal edge in the merged trace")
		}
	})
}

// smokeTraceEvent is the subset of a Chrome trace entry the smoke
// assertions need.
type smokeTraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	ID   int            `json:"id"`
	Args map[string]any `json:"args"`
}

// assertTraceFile parses a written trace, requires at least minProcs
// process entries plus some sampled span instants, and returns the
// events for further checks.
func assertTraceFile(t *testing.T, path string, minProcs int) []smokeTraceEvent {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []smokeTraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	procs := map[int]bool{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Name == "process_name" && ev.Ph == "M" {
			procs[ev.PID] = true
		}
		if ev.Name == "span" && ev.Ph == "i" {
			spans++
		}
	}
	if len(procs) < minProcs {
		t.Fatalf("trace has %d processes, want >= %d", len(procs), minProcs)
	}
	if spans == 0 {
		t.Fatal("trace has no sampled span events")
	}
	return doc.TraceEvents
}
