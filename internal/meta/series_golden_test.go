package meta

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"dpn/internal/core"
)

// dropsTask is a lane body that takes one task and ends without
// answering it, closing its ports: the lane's results end while it
// holds a task, as when its compute server dies.
type dropsTask struct {
	In  *core.ReadPort
	Out *core.WritePort
}

func (p *dropsTask) Run(env *core.Env) error {
	_, err := p.In.Tokens().ReadBlock()
	return err
}

// poolSeries renders every dpn_pool_* series of a finished run as
// "name{k=v,...}", sorted. Values that timing decides (per-lane counts,
// latencies) are left out; the ones the task count fixes are appended.
func poolSeries(n *core.Network) []string {
	fixed := map[string]bool{
		"dpn_pool_lanes": true, "dpn_pool_inflight": true, "dpn_pool_joins_total": true,
		"dpn_pool_emitted_total": true, "dpn_pool_redispatch_total": true,
	}
	var out []string
	for _, s := range n.Obs().Registry().Samples() {
		if !strings.HasPrefix(s.Name, "dpn_pool_") {
			continue
		}
		var labels []string
		for _, l := range s.Labels {
			labels = append(labels, l.Key+"="+l.Value)
		}
		line := s.Name + "{" + strings.Join(labels, ",") + "}"
		switch {
		case fixed[s.Name]:
			line += fmt.Sprintf(" %d", s.Value)
		case s.Name == "dpn_pool_latency_seconds":
			line += fmt.Sprintf(" count=%d", s.Count)
		}
		out = append(out, line)
	}
	slices.Sort(out)
	return out
}

// TestPoolSeriesGolden pins the dpn_pool_* series a fixed farm of three
// lanes exposes: their names and label sets, and the values its task
// count decides, in a clean run and in one where lane w1 takes a task
// and dies holding it, so the task is sent again.
func TestPoolSeriesGolden(t *testing.T) {
	const tasks = 30
	common := []string{
		"dpn_pool_emitted_total{} 30",
		"dpn_pool_inflight{} 0",
		"dpn_pool_joins_total{} 3",
		"dpn_pool_lanes{} 0",
		"dpn_pool_latency_seconds{stage=queue} count=30",
		"dpn_pool_latency_seconds{stage=service} count=30",
		"dpn_pool_latency_seconds{stage=total} count=30",
		"dpn_pool_results_total{lane=w0}",
		"dpn_pool_results_total{lane=w1}",
		"dpn_pool_results_total{lane=w2}",
		"dpn_pool_tasks_total{lane=w0}",
		"dpn_pool_tasks_total{lane=w1}",
		"dpn_pool_tasks_total{lane=w2}",
	}
	for _, tc := range []struct {
		name  string
		kill  bool
		extra []string
	}{
		{"clean", false, nil},
		{"lane-killed", true, []string{"dpn_pool_redispatch_total{reason=lane-dead} 1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := core.NewNetwork()
			dyn := NewDynamic(n, &rangeSource{max: tasks}, 3, 0)
			got := collectResults(dyn.Consumer)
			if tc.kill {
				victim := dyn.Workers[1]
				dyn.Workers = slices.Delete(dyn.Workers, 1, 2)
				n.Spawn(&dropsTask{In: victim.In, Out: victim.Out})
			}
			dyn.Spawn(n)
			waitNet(t, n)
			eq(t, *got, wantSquares(tasks))
			want := append(slices.Clone(common), tc.extra...)
			slices.Sort(want)
			if series := poolSeries(n); !slices.Equal(series, want) {
				t.Fatalf("dpn_pool_* series:\n%s\nwant:\n%s", strings.Join(series, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}
