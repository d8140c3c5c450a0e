package shard

import (
	"fmt"
	"testing"

	"rtic/internal/core"
	"rtic/internal/workload"
)

// TestRouterStatsMatchFullWalk holds the router's summed totals, built
// from each shard's totals-only walk, to the sum of the shards' full
// Stats walks on the dense-violation feed at 4 shards, and pins
// the totals walk at zero allocations.
func TestRouterStatsMatchFullWalk(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 200, Seed: 53, OpsPerTx: 4, Domain: 16})
	r, err := New(h.Schema, 4, coreFactory(h.Schema))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		con := parse(t, h.Schema, fmt.Sprintf("w%03d", i), fmt.Sprintf("p(x) -> not once[0,%d] q(x)", 40+i))
		if err := r.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range h.Steps {
		if _, err := r.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	}
	var want core.Stats
	for _, e := range r.engines {
		st := e.(*core.Checker).Stats()
		want.Nodes += st.Nodes
		want.Entries += st.Entries
		want.Timestamps += st.Timestamps
		want.Bytes += st.Bytes
	}
	if want.Entries == 0 {
		t.Fatal("dense feed left no auxiliary entries")
	}
	if got := r.Stats(); got.Nodes != want.Nodes || got.Entries != want.Entries ||
		got.Timestamps != want.Timestamps || got.Bytes != want.Bytes || got.PerNode != nil {
		t.Fatalf("router Stats() = %+v, summed shard Stats() = %+v", got, want)
	}
	if allocs := testing.AllocsPerRun(50, func() { r.Stats() }); allocs != 0 {
		t.Fatalf("router Stats allocates %.1f objects/run, want 0", allocs)
	}
}
