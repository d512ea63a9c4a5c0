package dpn_test

import (
	"dpn/internal/core"
	"dpn/internal/deadlock"
)

// newMonitor builds the deadlock monitor used by the benchmark
// harness. It has no peers, so the network's quiescence is its only
// wake.
func newMonitor(n *core.Network) *deadlock.Monitor {
	return deadlock.New(n, 0)
}
