package core

import (
	"fmt"
	"testing"

	"rtic/internal/cdcgen"
	"rtic/internal/value"
	"rtic/internal/workload"
)

// The check phase keeps every planned constraint's denial answer in
// place across commits and emits violations by copying out of it. These
// tests pin the two halves of that contract: the maintained answer
// always equals a full plan run (CheckInvariants), and the reports the
// caller receives are its own.

// denseHistory is the dense feed: 32 once-window denials over a
// uniform 4-op stream on a domain of 16, about 300 witnesses per commit.
func denseHistory(steps int) workload.History {
	h := workload.Uniform(workload.UniformConfig{Steps: steps, Seed: 53, OpsPerTx: 4, Domain: 16})
	h.Constraints = nil
	for i := 0; i < 32; i++ {
		h.Constraints = append(h.Constraints, workload.ConstraintSpec{
			Name:   fmt.Sprintf("w%03d", i),
			Source: fmt.Sprintf("p(x) -> not once[0,%d] q(x)", 40+i),
		})
	}
	return h
}

func TestMaintainedAnswersMatchFullPlan(t *testing.T) {
	cdc, _ := cdcgen.Generate(cdcgen.Config{
		Steps: 300, Seed: 5, BurstLen: 8, MaxReorder: 3, ViolationRate: 0.05,
	})
	feeds := map[string]workload.History{"dense": denseHistory(150), "cdc": cdc}
	for name, h := range feeds {
		t.Run(name+"/"+sequential, func(t *testing.T) {
			c := newFromHistory(t, h)
			seeded := 0
			for i, s := range h.Steps {
				if _, err := c.Step(s.Time, s.Tx); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if err := c.CheckInvariants(); err != nil {
					t.Fatalf("step %d (t=%d): %v", i, s.Time, err)
				}
				for _, si := range c.LastSkips() {
					if si.Action == ActionSeeded {
						seeded++
					}
				}
			}
			if seeded == 0 {
				t.Fatal("no constraint was ever re-derived in place; the check covers nothing")
			}
		})
	}
}

// TestViolationBindingsAreCallerOwned scribbles over every reported
// binding; the checker must go on reporting exactly what an untouched
// twin reports.
func TestViolationBindingsAreCallerOwned(t *testing.T) {
	h := denseHistory(120)
	t.Run(sequential, func(t *testing.T) {
		scribbled := newFromHistory(t, h)
		twin := newFromHistory(t, h)
		junk := value.Str("scribbled")
		for i, s := range h.Steps {
			got, err := scribbled.Step(s.Time, s.Tx)
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			want, err := twin.Step(s.Time, s.Tx)
			if err != nil {
				t.Fatalf("step %d: twin: %v", i, err)
			}
			if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
				t.Fatalf("step %d (t=%d):\nscribbled: %v\ntwin:      %v", i, s.Time, cg, cw)
			}
			for k := range got {
				for j := range got[k].Binding {
					got[k].Binding[j] = junk
				}
			}
		}
	})
}

// TestDenseCommitAllocations pins the steady-state allocation count of
// one dense commit: a constant number per
// constraint, none per witness or per surviving answer row.
func TestDenseCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const warm, measured = 200, 100
	h := denseHistory(warm + measured + 1)
	c := newFromHistory(t, h)
	for _, s := range h.Steps[:warm] {
		if _, err := c.Step(s.Time, s.Tx); err != nil {
			t.Fatal(err)
		}
	}
	next, violations := warm, 0
	allocs := testing.AllocsPerRun(measured, func() {
		s := h.Steps[next]
		next++
		vs, err := c.Step(s.Time, s.Tx)
		if err != nil {
			t.Fatal(err)
		}
		violations += len(vs)
	})
	if violations < 100*measured {
		t.Fatalf("%d violations over %d commits; the feed is not dense", violations, measured)
	}
	if allocs > 100 {
		t.Fatalf("dense commit allocates %.0f objects, want at most 100", allocs)
	}
	t.Logf("%.0f allocations per dense commit, %d violations per commit", allocs, violations/(measured+1))
}
