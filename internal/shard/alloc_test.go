package shard

import (
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/obs"
	"rtic/internal/value"
)

// TestShardOfMatchesFNV holds shardOf to 64-bit FNV-1a from hash/fnv
// over the value's key: per-shard journals written under one assignment
// must replay under the next.
func TestShardOfMatchesFNV(t *testing.T) {
	vals := []value.Value{
		value.Int(0), value.Int(1), value.Int(-1), value.Int(42), value.Int(-987654321),
		value.Int(math.MaxInt64), value.Int(math.MinInt64),
		value.Str(""), value.Str("a"), value.Str("sensor-17"),
		value.Str(strings.Repeat("long key ", 8)), // longer than shardOf's buffer
	}
	for _, n := range []int{2, 4, 8} {
		for _, v := range vals {
			h := fnv.New64a()
			h.Write([]byte(v.Key()))
			if want, got := int(h.Sum64()%uint64(n)), shardOf(v, n); got != want {
				t.Errorf("shardOf(%s, %d) = %d, hash/fnv assigns %d", v, n, got, want)
			}
		}
	}
	if raceEnabled {
		return
	}
	for _, v := range vals[:len(vals)-1] {
		if allocs := testing.AllocsPerRun(100, func() { shardOf(v, 4) }); allocs != 0 {
			t.Errorf("shardOf(%s) allocates %.1f objects/run, want 0", v, allocs)
		}
	}
}

// TestShardedCommitAllocations pins the steady-state allocation count
// of one commit through a 4-shard router with metrics attached, on the
// CDC freshness feed: per-commit work may allocate a bounded number of
// objects per shard and per constraint, not per routed operation.
func TestShardedCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const warm, measured = 500, 100
	h, _ := cdcgen.Generate(cdcgen.Config{
		Steps: warm + measured + 1, Seed: 1,
		BurstLen: 8, BurstEvery: 20,
		MaxReorder:    3,
		ViolationRate: 0.02,
	})
	r, err := New(h.Schema, 4, coreFactory(h.Schema))
	if err != nil {
		t.Fatal(err)
	}
	for _, cs := range h.Constraints {
		if err := r.AddConstraint(parse(t, h.Schema, cs.Name, cs.Source)); err != nil {
			t.Fatal(err)
		}
	}
	r.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	for _, s := range h.Steps[:warm] {
		if _, err := r.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(measured, func() {
		s := h.Steps[next]
		next++
		if _, err := r.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 64 {
		t.Fatalf("sharded commit allocates %.0f objects, want at most 64", allocs)
	}
	t.Logf("%.0f allocations per sharded commit", allocs)
}
