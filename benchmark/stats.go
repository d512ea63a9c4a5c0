package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// summary describes one metric's samples the way the choosing-metrics
// guide asks: a median, quartiles and the sample count.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// quantile returns the p-quantile (0 < p < 1) of sorted by linear
// interpolation between order statistics.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(vals []float64) summary {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return summary{N: len(s), Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
}

func median(vals []float64) float64 { return summarize(vals).Median }

// minBeyond is how many samples must lie beyond a reported percentile:
// fewer, and the percentile is one or two outliers rather than a
// property of the run.
const minBeyond = 10

var errTooFewSamples = errors.New("too few samples beyond the percentile")

// percentile reports the p-th percentile (0 < p < 100) of vals together
// with the sample count, and refuses a percentile that has fewer than
// minBeyond samples beyond it.
func percentile(vals []float64, p float64) (value float64, n int, err error) {
	n = len(vals)
	beyond := int(math.Floor(float64(n) * (1 - p/100)))
	if beyond < minBeyond {
		return math.NaN(), n, fmt.Errorf("p%g of %d samples: %w", p, n, errTooFewSamples)
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, p/100), n, nil
}

// latencyWindows is how many consecutive windows a run's latency
// samples are cut into at most.
const latencyWindows = 10

// windowedPercentile cuts vals, which are in arrival order, into up to
// latencyWindows consecutive windows, each large enough for the
// percentile, and summarizes the windows' percentiles; the reported
// value is their median. A slow spell of the machine that lasts a few
// seconds then moves some windows, not the reported percentile. n is
// the total sample count.
func windowedPercentile(vals []float64, p float64) (s summary, n int, err error) {
	n = len(vals)
	need := int(math.Ceil(minBeyond / (1 - p/100)))
	k := min(latencyWindows, n/need)
	if k < 1 {
		return summary{}, n, fmt.Errorf("p%g of %d samples: %w", p, n, errTooFewSamples)
	}
	per := make([]float64, k)
	for i := range per {
		per[i], _, err = percentile(vals[i*n/k:(i+1)*n/k], p)
		if err != nil {
			return summary{}, n, err
		}
	}
	return summarize(per), n, nil
}

// usage is a snapshot of the process-wide costs the end-to-end metrics
// are deltas of.
type usage struct {
	cpu           time.Duration // user + system
	allocBytes    uint64
	mallocs       uint64
	gcCycles      uint32
	gcPause       time.Duration
	volSwitches   int64
	involSwitches int64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:           time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes:    ms.TotalAlloc,
		mallocs:       ms.Mallocs,
		gcCycles:      ms.NumGC,
		gcPause:       time.Duration(ms.PauseTotalNs),
		volSwitches:   ru.Nvcsw,
		involSwitches: ru.Nivcsw,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		cpu:           u.cpu + v.cpu,
		allocBytes:    u.allocBytes + v.allocBytes,
		mallocs:       u.mallocs + v.mallocs,
		gcCycles:      u.gcCycles + v.gcCycles,
		gcPause:       u.gcPause + v.gcPause,
		volSwitches:   u.volSwitches + v.volSwitches,
		involSwitches: u.involSwitches + v.involSwitches,
	}
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:           u.cpu - v.cpu,
		allocBytes:    u.allocBytes - v.allocBytes,
		mallocs:       u.mallocs - v.mallocs,
		gcCycles:      u.gcCycles - v.gcCycles,
		gcPause:       u.gcPause - v.gcPause,
		volSwitches:   u.volSwitches - v.volSwitches,
		involSwitches: u.involSwitches - v.involSwitches,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS asks the kernel to restart the high-water mark at the
// current resident size, so a workload's peak is its own.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// spin times a fixed pure-CPU loop. The harness runs it before and
// after a workload: if the two differ by more than a tenth the machine
// changed speed under the run, and the run is marked noisy.
func spin() time.Duration {
	start := time.Now()
	x := uint64(2003)
	for i := 0; i < 20_000_000; i++ {
		x = splitmix64(x)
	}
	spinSink = x
	return time.Since(start)
}

var spinSink uint64

// pacing is an open-loop schedule: batch k, of size tokens or records,
// is due at t0 + k·period whatever the system is doing, and its latency
// is timed from when it was due, so a stall that delays later batches
// counts against them.
type pacing struct {
	period time.Duration
	size   int
	t0     time.Time
}

func (p *pacing) due(k int64) time.Time { return p.t0.Add(time.Duration(k) * p.period) }

// wait blocks until batch k is due and reports, in ms, how late the
// generator then is. It sleeps in the kernel (nanosleep, tens of µs of
// slack) rather than on a Go timer, whose wake-up in an otherwise idle
// process is up to a millisecond late: at one batch per millisecond
// that lag would be most of the latency the paced phase reports.
func (p *pacing) wait(k int64) (lateMs float64) {
	due := p.due(k)
	if d := time.Until(due); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only sends the batch early
	}
	return float64(time.Since(due)) / 1e6
}

// since is batch k's latency at time now, in ms.
func (p *pacing) since(k int64, now time.Time) float64 {
	return float64(now.Sub(p.due(k))) / 1e6
}
