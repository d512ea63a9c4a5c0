// Package census is the goroutine census a test package runs as its
// TestMain: a package whose tests pass but leave more goroutines
// running than it started with fails, printing their stacks.
package census

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// settle bounds the wait for goroutines that end asynchronously after
// the last test (link run loops, session read loops).
const settle = 10 * time.Second

// Main runs m's tests, takes the census, and exits with the result.
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(settle)
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
