package graphs

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"dpn/internal/core"
	"dpn/internal/obs"
)

// goroutineSettled waits for the goroutine count to drop back to (or
// below) the baseline, tolerating runtime jitter.
func goroutineSettled(baseline int) bool {
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline+2 {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// Every process runs in its own goroutine (§3.2); the termination
// cascade of §3.4 must release all of them, including the goroutines
// of dynamically inserted processes. A leak here would make
// long-running signal-processing deployments impossible.
func TestNoGoroutineLeakAfterTermination(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		n := core.NewNetwork()
		Fibonacci(n, 30, i%2 == 0)
		if err := n.Wait(); err != nil {
			t.Fatal(err)
		}
		n2 := core.NewNetwork()
		SieveFirstN(n2, 30, SieveIterative) // inserts ~30 Modulo processes
		if err := n2.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if !goroutineSettled(baseline) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked: %d -> %d\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	}
}

// Observability must not change the leak story: with the tracer
// enabled and a metrics HTTP listener serving during the run, Close
// must release the listener's goroutines and the network's processes
// must still all terminate.
func TestNoGoroutineLeakWhenInstrumented(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		n := core.NewNetwork()
		n.Obs().Tracer().Enable()
		hs, err := obs.ServeScope("127.0.0.1:0", n.Obs(), false)
		if err != nil {
			t.Fatal(err)
		}
		SieveFirstN(n, 20, SieveIterative)
		if err := n.Wait(); err != nil {
			t.Fatal(err)
		}
		// Exercise the endpoints while live so handler goroutines exist.
		for _, path := range []string{"/metrics", "/trace"} {
			resp, err := http.Get("http://" + hs.Addr() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			resp.Body.Close()
		}
		if err := hs.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if !goroutineSettled(baseline) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("goroutines leaked with instrumentation: %d -> %d\n%s",
			baseline, runtime.NumGoroutine(), buf[:n])
	}
}
