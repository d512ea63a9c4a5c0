package wire

import (
	"encoding/gob"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/meta"
)

// poolSquare is the task shipped through the task farm in the lane
// migration test; the brief sleep paces the run so the migration lands
// mid-stream.
type poolSquare struct{ V int64 }

// poolSquareRes carries the computed square back.
type poolSquareRes struct{ V, Sq int64 }

func (t *poolSquare) Run() (meta.Task, error) {
	time.Sleep(200 * time.Microsecond)
	return &poolSquareRes{V: t.V, Sq: t.V * t.V}, nil
}

func (t *poolSquareRes) Run() (meta.Task, error) { return nil, nil }

// poolSquares produces poolSquare tasks 0..max-1.
type poolSquares struct{ next, max int64 }

func (s *poolSquares) Run() (meta.Task, error) {
	if s.next >= s.max {
		return nil, nil
	}
	s.next++
	return &poolSquare{V: s.next - 1}, nil
}

func init() {
	gob.Register(&poolSquare{})
	gob.Register(&poolSquareRes{})
}

// TestPoolLaneLiveMigration moves a live worker lane of a running task
// farm from node A to node B mid-run: the lane's generic Worker process
// migrates over the wire while the farm keeps dispatching to it, and the
// merged output must stay exactly the reference sequence.
func TestPoolLaneLiveMigration(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	const total = 300
	n := a.Net
	e := meta.NewDynamic(n, &poolSquares{max: total}, 2, 256)
	// Spawn the lane that moves here, for its handle; Spawn starts the rest.
	worker := e.Workers[1]
	e.Workers = e.Workers[:1]
	mover := n.Spawn(worker)
	var got []int64
	var progress atomic.Int64
	e.Consumer.SetOnResult(func(ran, _ meta.Task) {
		if r, ok := ran.(*poolSquareRes); ok {
			got = append(got, r.Sq)
			progress.Store(int64(len(got)))
		}
	})
	e.Spawn(n)

	// Let a quarter of the stream flow, then ship the lane's worker to B
	// while the farm keeps feeding its channels.
	deadline := time.Now().Add(10 * time.Second)
	for progress.Load() < total/4 {
		if time.Now().After(deadline) {
			t.Fatal("farm made no progress")
		}
		time.Sleep(time.Millisecond)
	}
	parcel, err := Migrate(a, b.Broker.Addr(), mover)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SpawnImported(b, ship(t, parcel)); err != nil {
		t.Fatal(err)
	}

	waitNet(t, a.Net, "farm node")
	waitNet(t, b.Net, "lane destination node")
	want := make([]int64, total)
	for i := range want {
		want[i] = int64(i) * int64(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged output damaged by lane migration: %d values", len(got))
	}
}
