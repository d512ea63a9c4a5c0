package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// The debug endpoint serves the pprof index alongside /metrics and
// /trace; the plain endpoint must NOT expose it (profiles leak stack
// data, so they are opt-in via -pprof).
func TestServeDebugScopeExposesPprof(t *testing.T) {
	scope := NewScope()
	scope.SetNode("t1")
	scope.Registry().Counter("dpn_test_total").Inc()

	hs, err := ServeScope("127.0.0.1:0", scope, true)
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + hs.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code=%d body=%.80q", code, body)
	}
	if code, body := get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK || !strings.Contains(body, "goroutine profile") {
		t.Fatalf("goroutine profile: code=%d body=%.80q", code, body)
	}
	if code, _ := get("/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics gone from debug endpoint: %d", code)
	}

	plain, err := ServeScope("127.0.0.1:0", scope, false)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	resp, err := http.Get("http://" + plain.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("plain endpoint serves pprof without -pprof")
	}
}
