package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// allocated reports the bytes and objects f allocates per call: the
// least of a few rounds of n calls, since anything else the runtime
// allocates meanwhile (the race detector does) can only add.
func allocated(n int, f func(i int)) (bytes, objects float64) {
	bytes, objects = math.Inf(1), math.Inf(1)
	for round := 0; round < 5; round++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			f(round*n + i)
		}
		runtime.ReadMemStats(&m1)
		bytes = min(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n))
		objects = min(objects, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return bytes, objects
}

// TestPortCodecIsLazyAndSmall pins rule 3 of the port-codec design:
// creating a port pays nothing for the codec it may later own, and a
// port that only ever moves single elements pays for two small structs
// and no staging buffer.
func TestPortCodecIsLazyAndSmall(t *testing.T) {
	const n = 500
	chans := make([]*Channel, 5*n)
	unused, objects := allocated(n, func(i int) { chans[i] = NewChannel("a", 64) })
	// Before ports owned codecs, NewChannel("a", 64) cost 614 B in 12
	// objects (go1.24, amd64). The codec pointer on each port's state
	// is paid for by the port names no longer being built eagerly and
	// the handles living inside the Channel.
	t.Logf("unused channel: %.0f B in %.0f objects", unused, objects)
	if unused > 614 || objects > 12 {
		t.Errorf("unused channel costs %.0f B in %.0f objects; it cost 614 B in 12 before ports had codecs", unused, objects)
	}
	used, _ := allocated(n, func(i int) {
		ch := chans[i]
		if err := ch.Writer().Tokens().WriteInt64(int64(i)); err != nil {
			t.Fatal(err)
		}
		if v, err := ch.Reader().Tokens().ReadInt64(); err != nil || v != int64(i) {
			t.Fatalf("read %d, %v", v, err)
		}
	})
	if used >= 2*256 {
		t.Errorf("first single-element use costs %.0f B per channel, want < 256 B per port", used)
	}
	again, _ := allocated(n, func(i int) {
		ch := chans[i]
		ch.Writer().Tokens().WriteFloat64(1.5)
		ch.Reader().Tokens().ReadFloat64()
	})
	if again != 0 {
		t.Errorf("later single-element use costs %.0f B per channel, want 0", again)
	}
}

// TestRegisteredChannelCost pins what registering a channel with a
// network costs: the sieve makes one per prime. A registered channel
// looks no series up: its pipe gets one block of plain counts, and the
// network, its registry's collector, reads them at scrape.
func TestRegisteredChannelCost(t *testing.T) {
	const n = 500
	net := NewNetwork()
	net.Obs().Registry().SetSeriesLimit(0) // every channel gets its own series, as below the cap
	chans := make([]*Channel, 5*n)
	bytes, objects := allocated(n, func(i int) { chans[i] = net.NewChannel("", 64) })
	// While each channel registered about a dozen series, this cost
	// 5 338 B in 142 objects (go1.24, amd64); with its counts read at
	// scrape it costs about 960 B in 10.
	t.Logf("registered channel: %.0f B in %.0f objects", bytes, objects)
	if raceEnabled {
		bytes = 0
	}
	if bytes > 1024 || objects > 12 {
		t.Errorf("registered channel costs %.0f B in %.0f objects; want at most 1 024 B in 12, what reading its counts at scrape costs", bytes, objects)
	}
}

// BenchmarkRegisteredChannel measures Network.NewChannel with every
// channel given its own series, a fresh network every 1 000 channels.
func BenchmarkRegisteredChannel(b *testing.B) {
	b.ReportAllocs()
	var net *Network
	for i := 0; i < b.N; i++ {
		if i%1000 == 0 {
			b.StopTimer()
			net = NewNetwork()
			net.Obs().Registry().SetSeriesLimit(0)
			b.StartTimer()
		}
		net.NewChannel("", 64)
	}
}

// TestTokensBelongsToTheBinding checks the codec's lifetime: one per
// bound state, shared by every handle of that state, gone when the
// port is rebound.
func TestTokensBelongsToTheBinding(t *testing.T) {
	ch := NewChannel("c", 64)
	r, w := ch.Reader(), ch.Writer()
	if r.Tokens() != r.Tokens() || w.Tokens() != w.Tokens() {
		t.Fatal("Tokens built a second codec for the same binding")
	}
	alias := &ReadPort{s: r.s} // what gob decode does: a new handle on the same state
	if alias.Tokens() != r.Tokens() {
		t.Fatal("two handles on one state got two codecs")
	}
	old := r.Tokens()
	w.Tokens().WriteInt64(7)
	src := r.Detach()
	if r.Tokens() == old {
		t.Fatal("Detach kept the old binding's codec")
	}
	if _, err := r.Tokens().ReadInt64(); !errors.Is(err, ErrDetached) {
		t.Fatalf("read through a detached port: %v, want ErrDetached", err)
	}
	if v, err := AttachForeignRead("rewrapped", src).Tokens().ReadInt64(); err != nil || v != 7 {
		t.Fatalf("re-wrapped source delivered %d, %v; want 7", v, err)
	}
	w.Detach()
	if err := w.Tokens().WriteInt64(1); !errors.Is(err, ErrDetached) {
		t.Fatalf("write through a detached port: %v, want ErrDetached", err)
	}
	var zero ReadPort
	if _, err := zero.Tokens().ReadInt64(); !errors.Is(err, ErrDetached) {
		t.Fatalf("read through a zero port: %v, want ErrDetached", err)
	}
}

// TestPortCodecHoldsNoElementState is the property behind rule 1: the
// codec keeps no element bytes between calls. A seeded schedule writes
// a mixed int64/float64/block stream and reads it back, choosing for
// every element (or run of elements) between the port's codec, single
// or batch, and raw whole-element Read/Write on the port itself, and
// between elements sometimes detaching the transport and re-wrapping
// it in a fresh port — on both ends. The bytes recovered must be the
// bytes written, in order.
func TestPortCodecHoldsNoElementState(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkNoElementState(t, seed)
	}
}

type elemKind int

const (
	kInt elemKind = iota
	kFloat
	kBlock
)

type elem struct {
	kind elemKind
	i    int64
	f    float64
	b    []byte
}

func (e elem) encode(dst []byte) []byte {
	switch e.kind {
	case kInt:
		return binary.BigEndian.AppendUint64(dst, uint64(e.i))
	case kFloat:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(e.f))
	default:
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(e.b)))
		return append(dst, e.b...)
	}
}

func checkNoElementState(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// The schedule: runs of same-kind elements, so batch calls have
	// something to batch.
	var elems []elem
	for len(elems) < 400 {
		kind := elemKind(rng.Intn(3))
		for run := 1 + rng.Intn(12); run > 0; run-- {
			e := elem{kind: kind, i: rng.Int63() - rng.Int63(), f: rng.NormFloat64()}
			if kind == kBlock {
				e.b = make([]byte, rng.Intn(40))
				rng.Read(e.b)
			}
			elems = append(elems, e)
		}
	}
	var want []byte
	for _, e := range elems {
		want = e.encode(want)
	}

	ch := NewChannel("prop", 256) // small: the writer blocks, reads see partial backlogs
	writeErr := make(chan error, 1)
	go func() { writeErr <- writeMixed(rand.New(rand.NewSource(seed+1000)), ch.Writer(), elems) }()

	got, err := readMixed(rng, ch.Reader(), elems)
	if err != nil {
		t.Fatalf("seed %d: read: %v", seed, err)
	}
	if err := <-writeErr; err != nil {
		t.Fatalf("seed %d: write: %v", seed, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("seed %d: recovered %d bytes differ from the %d written", seed, len(got), len(want))
	}
}

// sameKindRun reports how many elements starting at elems[0] share its
// kind.
func sameKindRun(elems []elem) int {
	n := 1
	for n < len(elems) && elems[n].kind == elems[0].kind {
		n++
	}
	return n
}

func writeMixed(rng *rand.Rand, w *WritePort, elems []elem) error {
	defer func() { w.Close() }()
	for len(elems) > 0 {
		if rng.Intn(8) == 0 {
			w = AttachForeignWrite("rewrapped", w.Detach())
		}
		e, n := elems[0], 1
		var err error
		switch mode := rng.Intn(3); {
		case mode == 0: // raw whole element
			_, err = w.Write(e.encode(nil))
		case mode == 1 && e.kind != kBlock: // batch
			n = 1 + rng.Intn(sameKindRun(elems))
			if e.kind == kInt {
				vs := make([]int64, n)
				for i := range vs {
					vs[i] = elems[i].i
				}
				err = w.Tokens().WriteInt64s(vs)
			} else {
				vs := make([]float64, n)
				for i := range vs {
					vs[i] = elems[i].f
				}
				err = w.Tokens().WriteFloat64s(vs)
			}
		case e.kind == kInt:
			err = w.Tokens().WriteInt64(e.i)
		case e.kind == kFloat:
			err = w.Tokens().WriteFloat64(e.f)
		default:
			err = w.Tokens().WriteBlock(e.b)
		}
		if err != nil {
			return err
		}
		elems = elems[n:]
	}
	return nil
}

func readMixed(rng *rand.Rand, r *ReadPort, elems []elem) ([]byte, error) {
	var got []byte
	for len(elems) > 0 {
		if rng.Intn(8) == 0 {
			r = AttachForeignRead("rewrapped", r.Detach())
		}
		e, n := elems[0], 1
		switch mode := rng.Intn(3); {
		case mode == 0: // raw whole element
			raw := make([]byte, len(e.encode(nil)))
			if _, err := io.ReadFull(r, raw); err != nil {
				return got, err
			}
			got = append(got, raw...)
		case mode == 1 && e.kind == kInt:
			vs := make([]int64, 1+rng.Intn(sameKindRun(elems)))
			k, err := r.Tokens().ReadInt64s(vs)
			if err != nil {
				return got, err
			}
			for _, v := range vs[:k] {
				got = elem{kind: kInt, i: v}.encode(got)
			}
			n = k
		case mode == 1 && e.kind == kFloat:
			vs := make([]float64, 1+rng.Intn(sameKindRun(elems)))
			k, err := r.Tokens().ReadFloat64s(vs)
			if err != nil {
				return got, err
			}
			for _, v := range vs[:k] {
				got = elem{kind: kFloat, f: v}.encode(got)
			}
			n = k
		case e.kind == kInt:
			v, err := r.Tokens().ReadInt64()
			if err != nil {
				return got, err
			}
			got = elem{kind: kInt, i: v}.encode(got)
		case e.kind == kFloat:
			v, err := r.Tokens().ReadFloat64()
			if err != nil {
				return got, err
			}
			got = elem{kind: kFloat, f: v}.encode(got)
		default:
			b, err := r.Tokens().ReadBlock()
			if err != nil {
				return got, err
			}
			got = elem{kind: kBlock, b: b}.encode(got)
		}
		elems = elems[n:]
	}
	if _, err := r.Tokens().ReadByte(); err != io.EOF {
		return got, errors.New("stream did not end where the schedule did")
	}
	return got, nil
}
