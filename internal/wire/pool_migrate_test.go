package wire

import (
	"encoding/gob"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"dpn/internal/meta"
)

// poolSquare is the task shipped through the elastic pool in the lane
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

func init() {
	gob.Register(&poolSquare{})
	gob.Register(&poolSquareRes{})
}

// TestPoolLaneLiveMigration moves a live worker lane of a running
// elastic pool from node A to node B mid-run: the lane's generic Worker
// process migrates over the wire while the pool keeps dispatching to
// it, and the merged output must stay exactly the reference sequence.
func TestPoolLaneLiveMigration(t *testing.T) {
	a := newTestNode(t)
	b := newTestNode(t)

	const total = 300
	n := a.Net
	var next int64
	e := meta.NewElastic(n, meta.FuncSource(func() (meta.Task, error) {
		if next >= total {
			return nil, nil
		}
		v := next
		next++
		return &poolSquare{V: v}, nil
	}), 0, 256, meta.PoolConfig{})
	e.Pool.AddWorker("local")
	_, mover := e.Pool.AddWorker("mover")
	if mover == nil {
		t.Fatal("AddWorker returned no process handle")
	}
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
	// while the pool keeps feeding its channels.
	deadline := time.Now().Add(10 * time.Second)
	for progress.Load() < total/4 {
		if time.Now().After(deadline) {
			t.Fatal("pool made no progress")
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

	waitNet(t, a.Net, "pool node")
	waitNet(t, b.Net, "lane destination node")
	want := make([]int64, total)
	for i := range want {
		want[i] = int64(i) * int64(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged output damaged by lane migration: %d values", len(got))
	}
}
