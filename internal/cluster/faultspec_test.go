package cluster_test

import (
	"testing"
	"time"

	"hmmer3gpu/internal/cluster"
	"hmmer3gpu/internal/faults"
)

// Bad w<N> clauses are refused; a valid one reaches each worker's plan.
func TestParseFaultsErrors(t *testing.T) {
	for _, spec := range []string{"nocolon", "wx:kill=1", "w0:kill", "w0:kill=abc", "w0:stall=1", "w0:hello=good", "w0:bogus=1"} {
		if _, err := faults.Parse(spec, 0, 0, 4); err == nil {
			t.Fatalf("spec %q accepted", spec)
		}
	}
	plan, err := faults.Parse("w1:kill=2,refuse=3,stall=4@250ms,hello=bad;w2:torn=0,killp=0.5", 9, 0, 4)
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	p1, p2 := cluster.PlanOf(plan.Cluster, 1), cluster.PlanOf(plan.Cluster, 2)
	if p1 == nil || p1.KillAtBatch != 2 || p1.RefuseConnects != 3 || p1.StallAtBatch != 4 ||
		p1.StallFor != 250*time.Millisecond || !p1.CorruptHello {
		t.Fatalf("plan 1 = %+v", p1)
	}
	if p2 == nil || p2.TornAtBatch != 0 || p2.KillProb != 0.5 || p2.KillAtBatch != -1 {
		t.Fatalf("plan 2 = %+v", p2)
	}
}
