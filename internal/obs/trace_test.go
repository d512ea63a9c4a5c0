package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestTracerDisabledByDefault(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(EvRead, "ch", "", 1)
	if tr.Count(EvRead) != 0 || len(tr.Events()) != 0 {
		t.Error("disabled tracer must record nothing")
	}
}

// The ring must wrap: the per-type counts keep counting, Events returns
// the newest ring-size events oldest-first.
func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(8)
	tr.Enable()
	const total = 8*3 + 5
	for i := 0; i < total; i++ {
		tr.Record(EvWrite, "ch", "", int64(i))
	}
	if got := tr.Count(EvWrite); got != total {
		t.Fatalf("Count(EvWrite) = %d, want %d (counts must survive eviction)", got, total)
	}
	if got := tr.Count(EvRead); got != 0 {
		t.Fatalf("Count(EvRead) = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events returned %d, want ring size 8", len(evs))
	}
	for i, ev := range evs {
		if want := int64(total - 8 + i); ev.Arg != want {
			t.Errorf("event %d: arg = %d, want %d (oldest first)", i, ev.Arg, want)
		}
	}
}

// Concurrent recording must be race-free and lose at most transient
// slots (claimed-but-unpublished at snapshot time), never crash.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				tr.Record(EvRead, fmt.Sprintf("ch%d", w), "", int64(i))
				if i%100 == 0 {
					tr.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Count(EvRead); got != 16000 {
		t.Fatalf("Count(EvRead) = %d, want 16000", got)
	}
}

// WriteTrace must emit valid Chrome trace_event JSON: one object with
// displayTimeUnit and a traceEvents array whose instant events carry
// ts/pid/tid, with thread_name metadata per distinct subject.
func TestWriteTraceJSON(t *testing.T) {
	tr := NewTracer(64)
	tr.Enable()
	tr.Record(EvSpawn, "Sift", "", 0)
	tr.Record(EvWrite, "ints", "", 8)
	tr.Record(EvReconfig, "mod3", "insert-upstream", 0)

	var b strings.Builder
	if err := tr.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, b.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 3 events + 3 thread_name metadata records (distinct subjects).
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(doc.TraceEvents))
	}
	var meta, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "i":
			inst++
			if ev.PID != 1 || ev.TID == 0 {
				t.Errorf("instant event missing pid/tid: %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 3 || inst != 3 {
		t.Errorf("meta=%d inst=%d, want 3/3", meta, inst)
	}
	if !strings.Contains(b.String(), `"reconfig"`) {
		t.Error("reconfig category missing from trace")
	}
}

// The HTTP endpoint must serve both formats and shut down cleanly (the
// graphs leak test additionally proves no goroutines outlive Close).
func TestHTTPServerServesScopeAndCloses(t *testing.T) {
	scope := NewScope()
	scope.SetNode("t1")
	scope.Tracer().Enable()
	scope.Registry().Counter("dpn_test_total").Inc()
	scope.Record(EvSpawn, "p", "", 0)

	hs, err := ServeScope("127.0.0.1:0", scope, false)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + hs.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}
	metrics, ctype := get("/metrics")
	if !strings.Contains(metrics, `dpn_test_total{node="t1"} 1`) {
		t.Errorf("/metrics missing series:\n%s", metrics)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type %q", ctype)
	}
	trace, ctype := get("/trace")
	var doc map[string]any
	if err := json.Unmarshal([]byte(trace), &doc); err != nil {
		t.Fatalf("/trace not valid JSON: %v", err)
	}
	if !strings.Contains(ctype, "application/json") {
		t.Errorf("/trace content type %q", ctype)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + hs.Addr() + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}
