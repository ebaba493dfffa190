package cluster

import (
	"testing"

	"paella/internal/core"
	"paella/internal/gateway"
	"paella/internal/sim"
)

// TestFailoverSubmissionOrder: requests pending on a crashed replica
// re-enter the balancer in submission order — the insertion-ordered list,
// not id order (the regression would re-route 3 before 5 below) and never
// map-iteration order.
func TestFailoverSubmissionOrder(t *testing.T) {
	env, c := mkCluster(t, &pinned{gpu: 0})
	conn := c.Connect()
	// Non-monotone ids, all pinned to GPU 0, still in flight at crash time.
	ids := []uint64{5, 3, 9}
	env.At(0, func() {
		for _, id := range ids {
			if conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: 0}) != 0 {
				t.Errorf("request %d not routed to GPU 0", id)
			}
		}
	})
	env.At(sim.Microsecond, func() { c.Crash(0) })
	env.RunUntil(2 * sim.Microsecond)
	// Failover appends re-submitted ids to the order list as it processes
	// them; the tail is therefore the processing order.
	tail := conn.order[len(conn.order)-len(ids):]
	for i, id := range ids {
		if tail[i] != id {
			t.Fatalf("failover order = %v, want submission order %v", tail, ids)
		}
	}
	env.Run()
}

// pinned routes everything to one GPU while it is in the live view, else
// to live view position 0.
type pinned struct{ gpu int }

func (p *pinned) Name() string { return "pinned" }
func (p *pinned) Pick(_ gateway.Request, gpus []gateway.Replica) int {
	if p.gpu < len(gpus) {
		return p.gpu
	}
	return 0
}

// TestOrderCompaction: the insertion-order list does not grow with total
// throughput — terminated ids are compacted away.
func TestOrderCompaction(t *testing.T) {
	env, c := mkCluster(t, gateway.NewRoundRobin())
	conn := c.Connect()
	for i := 0; i < 400; i++ {
		id := uint64(i + 1)
		env.At(sim.Time(i)*50*sim.Microsecond, func() {
			conn.Submit(core.Request{ID: id, Model: "tinynet", Submit: env.Now()})
		})
	}
	env.Run()
	if len(conn.pending) != 0 {
		t.Fatalf("%d requests still pending after drain", len(conn.pending))
	}
	if len(conn.order) > 64 {
		t.Fatalf("order list retains %d entries after all 400 requests terminated", len(conn.order))
	}
}
