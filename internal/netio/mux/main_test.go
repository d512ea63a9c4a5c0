package mux

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain is the package's goroutine census: a package whose tests
// pass but leave more goroutines running than it started with fails,
// printing their stacks. Sessions end asynchronously (read loop,
// keepalive), so the census waits a bounded settle first.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "goroutine census: %d goroutines at exit, %d at start\n%s\n", n, before, buf)
			code = 1
		}
	}
	os.Exit(code)
}
