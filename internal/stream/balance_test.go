package stream

import (
	"math/rand"
	"sync"
	"testing"
)

// balanceObserver checks the Observer contract from inside the pipe:
// every callback runs with p.mu held, so it can compare its own count
// of blocked parties with the pipe's count of parked, unsignalled ones.
type balanceObserver struct {
	blocked      [2]int // [0] readers, [1] writers; guarded by the pipe's mu
	parks, wakes int
	bad          string // first violation
}

func sideIndex(write bool) int {
	if write {
		return 1
	}
	return 0
}

func (o *balanceObserver) PipeBlocked(p *Pipe, write bool) {
	o.parks++
	o.blocked[sideIndex(write)]++
	o.check(p, write, "PipeBlocked")
}

func (o *balanceObserver) PipeUnblocked(p *Pipe, write bool) {
	o.wakes++
	o.blocked[sideIndex(write)]--
	if o.blocked[sideIndex(write)] < 0 && o.bad == "" {
		o.bad = "blocked count went negative"
	}
	o.check(p, write, "PipeUnblocked")
}

func (o *balanceObserver) PipeLinkWait(p *Pipe, write bool) {
	if p.linked&sideOf(write) == 0 && o.bad == "" {
		o.bad = "link wait reported on a side no link drives"
	}
}

// check runs with p.mu held: the observer's count must be exactly the
// parties the pipe has parked and not signalled. On a side a link
// drives, Link un-reports them one by one, and outside it the count is
// zero.
func (o *balanceObserver) check(p *Pipe, write bool, what string) {
	waiting := int(p.waitR)
	if write {
		waiting = int(p.waitW)
	}
	got := o.blocked[sideIndex(write)]
	ok := got == waiting
	if p.linked&sideOf(write) != 0 {
		ok = got <= waiting && (what != "return" || got == 0)
	}
	if !ok && o.bad == "" {
		o.bad = what + ": observer counts a different number of blocked parties than the pipe parked unsignalled"
	}
}

// TestWakeBookkeepingBalances interleaves every pipe operation that can
// park or wake a party, from several readers and writers at once, and
// holds the observer to its contract: each PipeBlocked is answered by
// exactly one PipeUnblocked, the blocked count never goes negative, a
// party that parked returns from Read, Write or WriteVec only after the
// observer heard it unblocked, linking a side un-reports its parked
// parties, and the count is zero once every party has returned.
func TestWakeBookkeepingBalances(t *testing.T) {
	const seeds = 200
	parks := 0
	for seed := int64(1); seed <= seeds; seed++ {
		parks += runBalanceSeed(t, seed)
		if t.Failed() {
			t.Fatalf("wake bookkeeping seed %d", seed)
		}
	}
	if parks == 0 {
		t.Fatal("no party ever parked; the test exercised nothing")
	}
	t.Logf("%d parks over %d seeds", parks, seeds)
}

func runBalanceSeed(t *testing.T, seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	p := NewPipe(1 + rng.Intn(16))
	o := &balanceObserver{}
	p.SetHooks(o, nil)

	// Each party runs a seeded script of operations and stops at its
	// first error (EOF, a closed end) or after 200 operations; a rare
	// early close ends the other side's script.
	var writers, readers sync.WaitGroup
	party := func(wg *sync.WaitGroup, write bool, r *rand.Rand) {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			var err error
			switch x := r.Intn(1000); {
			case x < 3:
				if write {
					p.CloseWrite()
				} else {
					p.CloseRead()
				}
			case x < 60:
				p.Grow(p.Cap() + 1 + r.Intn(8))
			case x < 90:
				p.Drain()
			case x < 92:
				p.Unbound()
			case x < 94:
				p.Link(write)
			case !write:
				_, err = p.Read(make([]byte, 1+r.Intn(24)))
			case x < 600:
				_, err = p.Write(make([]byte, 1+r.Intn(24)))
			default:
				_, err = p.WriteVec(make([]byte, 1+r.Intn(8)), make([]byte, r.Intn(16)))
			}
			// A party that parked has left cond.Wait by now, which it
			// does only once signalled: the observer must already count
			// it unblocked.
			p.mu.Lock()
			o.check(p, write, "return")
			p.mu.Unlock()
			if err != nil {
				return
			}
		}
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		writers.Add(1)
		go party(&writers, true, rand.New(rand.NewSource(rng.Int63())))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		readers.Add(1)
		go party(&readers, false, rand.New(rand.NewSource(rng.Int63())))
	}
	// When one side is done, close its end so the other cannot park
	// for good.
	var closers sync.WaitGroup
	closers.Add(2)
	go func() { defer closers.Done(); writers.Wait(); p.CloseWrite() }()
	go func() { defer closers.Done(); readers.Wait(); p.CloseRead() }()
	closers.Wait()

	p.mu.Lock()
	defer p.mu.Unlock()
	if o.bad != "" {
		t.Errorf("seed %d: %s", seed, o.bad)
	}
	if o.parks != o.wakes || o.blocked != [2]int{} {
		t.Errorf("seed %d: %d PipeBlocked, %d PipeUnblocked, %v still blocked after every party returned",
			seed, o.parks, o.wakes, o.blocked)
	}
	if p.waitR != 0 || p.waitW != 0 || p.blockedReaders != 0 || p.blockedWriters != 0 {
		t.Errorf("seed %d: pipe still counts parked parties: waitR=%d waitW=%d readers=%d writers=%d",
			seed, p.waitR, p.waitW, p.blockedReaders, p.blockedWriters)
	}
	return o.parks
}
