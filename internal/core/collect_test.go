package core

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"dpn/internal/conduit"
	"dpn/internal/obs"
)

// tallies scrapes one channel's byte and occupancy series.
type tallies struct{ written, read, occupancy, peak int64 }

func scrapeTallies(n *Network, channel string) tallies {
	var t tallies
	for _, smp := range n.Obs().Registry().Samples() {
		if smp.Label("channel") != channel {
			continue
		}
		switch smp.Name {
		case "dpn_conduit_bytes_total":
			if smp.Label("op") == "write" {
				t.written = smp.Value
			} else {
				t.read = smp.Value
			}
		case "dpn_conduit_occupancy_bytes":
			t.occupancy = smp.Value
		case "dpn_conduit_occupancy_peak_bytes":
			t.peak = smp.Value
		}
	}
	return t
}

// TestScrapedTalliesMatchBytesMoved pins that the byte and occupancy
// series, read from the pipe at scrape time, equal what moved: through
// Write, WriteVec, Read, Drain, Grow and CloseRead, across a second
// channel registered under the same name, and while two goroutines
// stream through a channel that is scraped concurrently.
func TestScrapedTalliesMatchBytesMoved(t *testing.T) {
	net := NewNetwork()
	p := net.NewChannel("t", 8).Pipe()
	step := func(what string, want tallies) {
		t.Helper()
		if got := scrapeTallies(net, "t"); got != want {
			t.Fatalf("after %s: scraped %+v, want %+v", what, got, want)
		}
	}
	step("nothing", tallies{})
	p.Write(make([]byte, 5))
	step("Write 5", tallies{written: 5, occupancy: 5, peak: 5})
	p.Read(make([]byte, 3))
	step("Read 3", tallies{written: 5, read: 3, occupancy: 2, peak: 5})
	p.WriteVec(make([]byte, 2), make([]byte, 4))
	step("WriteVec 2+4", tallies{written: 11, read: 3, occupancy: 8, peak: 8})
	p.Drain()
	step("Drain", tallies{written: 11, read: 11, peak: 8})
	p.Grow(32)
	p.Write(make([]byte, 20))
	step("Grow 32, Write 20", tallies{written: 31, read: 11, occupancy: 20, peak: 20})
	p.CloseRead()
	step("CloseRead", tallies{written: 31, read: 11, peak: 20})
	step("a second scrape of the closed pipe", tallies{written: 31, read: 11, peak: 20})

	// A second channel under the same name adds its bytes to the first's;
	// the gauges read the larger of the two.
	again := net.NewChannel("t", 16)
	again.Pipe().Write(make([]byte, 9))
	again.Pipe().Read(make([]byte, 4))
	step("a second channel named t", tallies{written: 40, read: 15, occupancy: 5, peak: 20})

	t.Run("concurrent scrape", func(t *testing.T) {
		const total = 1 << 16
		c := net.NewChannel("s", 64)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1))
			for left := total; left > 0; {
				n := min(left, 1+rng.Intn(100))
				if _, err := c.Writer().Write(make([]byte, n)); err != nil {
					t.Error(err)
					return
				}
				left -= n
			}
			c.Writer().Close()
		}()
		got := 0
		go func() {
			defer wg.Done()
			buf := make([]byte, 48)
			for {
				n, err := c.Reader().Read(buf)
				got += n
				if err == io.EOF {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		var last tallies
		for scraping := true; scraping; {
			select {
			case <-done:
				scraping = false
			default:
			}
			now := scrapeTallies(net, "s")
			if now.written < last.written || now.read < last.read || now.peak < last.peak {
				t.Fatalf("a scrape went backwards: %+v after %+v", now, last)
			}
			if now.occupancy > 64 || now.peak > 64 {
				t.Fatalf("scraped occupancy beyond the capacity: %+v", now)
			}
			last = now
		}
		if got != total {
			t.Fatalf("reader got %d bytes, want %d", got, total)
		}
		if final := scrapeTallies(net, "s"); final.written != total || final.read != total || final.occupancy != 0 || final.peak == 0 {
			t.Fatalf("final scrape %+v, want %d bytes written and read, none buffered", final, total)
		}
	})
}

// series keys one scraped series: its name and labels.
func seriesKey(s obs.Sample) string { return fmt.Sprint(s.Name, s.Labels) }

// TestScrapeWhileChannelsComeAndGo streams through 1 000 channels, under
// ten reused names, while another goroutine scrapes in a loop: every
// counter must be monotone across scrapes while channels are created,
// parked on, finished and folded, and the final totals must equal the
// bytes and tokens moved.
func TestScrapeWhileChannelsComeAndGo(t *testing.T) {
	const channels, workers, names = 1000, 4, 10
	net := NewNetwork()
	reg := net.Obs().Registry()
	var wantBytes, wantTokens [names]atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := w; i < channels; i += workers {
				c := net.NewChannel(fmt.Sprintf("c%d", i%names), 32)
				k := 1 + rng.Intn(16) // 8-byte tokens: up to four times the buffer, so both sides park
				done := make(chan struct{})
				go func() { // the consumer: a token is counted after it is read, as a port counts it
					defer close(done)
					var buf [8]byte
					for {
						if _, err := io.ReadFull(c.Reader(), buf[:]); err != nil {
							return
						}
						c.Reader().NoteTokens(1)
					}
				}()
				for range k {
					if _, err := c.Writer().Write(make([]byte, 8)); err != nil {
						t.Error(err)
						break
					}
					c.Writer().NoteTokens(1)
				}
				c.Writer().Close()
				<-done
				wantBytes[i%names].Add(int64(8 * k))
				wantTokens[i%names].Add(int64(k))
			}
		}()
	}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	last := map[string]int64{}
	for scraping := true; scraping; {
		select {
		case <-stop:
			scraping = false
		default:
		}
		for _, smp := range reg.Samples() {
			v := smp.Value + smp.Count
			if smp.Kind == obs.KindGauge {
				continue
			}
			if k := seriesKey(smp); v < last[k] {
				t.Fatalf("%s went backwards: %d after %d", k, v, last[k])
			} else {
				last[k] = v
			}
		}
	}
	got := map[string]int64{}
	for _, smp := range reg.Samples() {
		got[seriesKey(smp)] = smp.Value + smp.Count
	}
	for i := range names {
		ch := obs.L("channel", fmt.Sprintf("c%d", i))
		for _, op := range []string{"read", "write"} {
			l := []obs.Label{ch, obs.L("op", op)}
			if b := got[seriesKey(obs.Sample{Name: "dpn_conduit_bytes_total", Labels: l})]; b != wantBytes[i].Load() {
				t.Errorf("%v: %d bytes scraped, %d moved", l, b, wantBytes[i].Load())
			}
			if k := got[seriesKey(obs.Sample{Name: "dpn_conduit_tokens_total", Labels: l})]; k != wantTokens[i].Load() {
				t.Errorf("%v: %d tokens scraped, %d moved", l, k, wantTokens[i].Load())
			}
			if n := got[seriesKey(obs.Sample{Name: "dpn_conduit_blocks_total", Labels: l})]; n != got[seriesKey(obs.Sample{Name: "dpn_conduit_block_seconds", Labels: l})] {
				t.Errorf("%v: %d blocks scraped, but %d block durations", l, n, got[seriesKey(obs.Sample{Name: "dpn_conduit_block_seconds", Labels: l})])
			}
		}
	}
}

// A channel whose name is new past the registry's series cap is not
// exposed, as a pushed series past the cap is detached: it gets no
// token counts and none of its series, however many such channels
// live, and each one counts into dpn_obs_dropped_series_total. The cap
// is the registry's at registration, so raising it lets new names in
// again.
func TestNamesPastTheCapAreNotTracked(t *testing.T) {
	net := NewNetwork()
	reg := net.Obs().Registry()
	reg.SetSeriesLimit(2)
	for _, name := range []string{"a", "b", "a"} {
		if net.NewChannel(name, 8).rec == nil {
			t.Fatalf("%s under the cap got no token counts", name)
		}
	}
	for range 2 {
		c := net.NewChannel("c", 8)
		if c.rec != nil {
			t.Fatal("c past the cap got token counts")
		}
		c.Writer().Write(make([]byte, 3))
		c.Writer().NoteTokens(1)
	}
	reg.SetSeriesLimit(0)
	net.NewChannel("d", 8).Writer().NoteTokens(1) // exposed, though the first names were admitted under the cap
	names := map[string]int{}
	var dropped int64
	for _, smp := range reg.Samples() {
		if smp.Name == "dpn_conduit_capacity_bytes" {
			names[smp.Label("channel")]++
		}
		if smp.Name == "dpn_obs_dropped_series_total" {
			dropped = smp.Value
		}
	}
	if fmt.Sprint(names) != "map[a:1 b:1 d:1]" {
		t.Fatalf("capacity series by channel %v, want a, b and d once each", names)
	}
	if dropped != 2 {
		t.Fatalf("dpn_obs_dropped_series_total = %d, want 2: one per refused channel", dropped)
	}
}

// TestRebindSeries: the conduit's rebind counts surface as
// dpn_conduit_rebinds_total with a dir label.
func TestRebindSeries(t *testing.T) {
	net := NewNetwork()
	lb := conduit.NewLoopback()
	c := net.NewChannel("r", 32).Conduit()
	if _, err := c.BindSink(lb, conduit.Endpoint{Token: "t1"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.BindSource(lb, conduit.Endpoint{Token: "t2"}); err != nil {
		t.Fatal(err)
	}
	dirs := map[string]int64{}
	for _, smp := range net.Obs().Registry().Samples() {
		if smp.Name == "dpn_conduit_rebinds_total" && smp.Label("channel") == "r" {
			dirs[smp.Label("dir")] = smp.Value
		}
	}
	if dirs["sink"] != 1 || dirs["source"] != 1 {
		t.Fatalf("rebind samples = %v", dirs)
	}
}

// BenchmarkScrapeChannels measures one scrape of 1 000 registered
// channels, each under its own name: half of them live, with bytes
// buffered, and half finished and folded into their names' totals.
func BenchmarkScrapeChannels(b *testing.B) {
	net := NewNetwork()
	reg := net.Obs().Registry()
	reg.SetSeriesLimit(0)
	for i := range 1000 {
		c := net.NewChannel(fmt.Sprintf("c%d", i), 64)
		c.Writer().Write(make([]byte, 16))
		if i%2 == 1 {
			c.Writer().Close()
			io.ReadAll(c.Reader())
		}
	}
	reg.Samples() // folds the finished half
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		reg.Samples()
	}
}
