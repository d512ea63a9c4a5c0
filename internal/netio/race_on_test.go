//go:build race

package netio

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// a share of what is Put into it: allocation and pool-traffic counts
// mean nothing there.
const raceEnabled = true
