package core

import (
	"reflect"
	"testing"
)

// denseChecker replays the dense feed (see denseHistory).
func denseChecker(t *testing.T, steps int) *Checker {
	h := denseHistory(steps)
	c := newFromHistory(t, h)
	for _, s := range h.Steps {
		if _, err := c.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestStatsTotalsAgree(t *testing.T) {
	c := denseChecker(t, 200)
	st := c.Stats()
	if st.Entries == 0 || len(st.PerNode) != st.Nodes {
		t.Fatalf("stats = %+v", st)
	}
	var sum Stats
	for _, ns := range st.PerNode {
		if ns.Formula == "" {
			t.Fatalf("per-node row without formula: %+v", ns)
		}
		sum.add(ns)
	}
	if sum.Entries != st.Entries || sum.Timestamps != st.Timestamps || sum.Bytes != st.Bytes {
		t.Fatalf("per-node rows sum to %+v, totals are %+v", sum, st)
	}
	tot := c.Totals()
	if tot.PerNode != nil {
		t.Fatalf("Totals built per-node rows: %v", tot.PerNode)
	}
	st.PerNode = nil
	if !reflect.DeepEqual(tot, st) {
		t.Fatalf("Totals() = %+v, Stats() totals = %+v", tot, st)
	}
}

func TestTotalsAllocationFree(t *testing.T) {
	c := denseChecker(t, 100)
	allocs := testing.AllocsPerRun(50, func() { c.Totals() })
	if allocs != 0 {
		t.Fatalf("Totals allocates %.1f objects/run, want 0", allocs)
	}
}
