package core

import (
	"fmt"
	"math/rand"
	"testing"

	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/workload"
)

// newFromHistory builds a checker with h's constraints installed.
func newFromHistory(t *testing.T, h workload.History, opts ...Option) *Checker {
	t.Helper()
	c := New(h.Schema, opts...)
	for _, cs := range h.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, h.Schema)
		if err != nil {
			t.Fatalf("constraint %s: %v", cs.Name, err)
		}
		if err := c.AddConstraint(con); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestStepRejectsNonIncreasingTimestamp: a commit at a timestamp not
// after the last one is refused before any phase runs.
func TestStepRejectsNonIncreasingTimestamp(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 5, Seed: 1, OpsPerTx: 1, Domain: 4})
	c := newFromHistory(t, h)
	if _, err := c.Step(h.Steps[0].Time, h.Steps[0].Tx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(h.Steps[0].Time, h.Steps[1].Tx); err == nil {
		t.Fatal("non-increasing timestamp accepted")
	}
	if c.Len() != 1 {
		t.Fatalf("checker committed %d states, want 1", c.Len())
	}
}

// scheduleInvariants checks the leveled schedule's structural
// guarantees: every registered node appears in exactly one level, and
// every node's level is strictly above all its direct temporal
// children's levels (so walking the levels in order updates children
// before parents).
func scheduleInvariants(c *Checker) error {
	seen := make(map[auxNode]int, len(c.nodes))
	count := 0
	for lvl, level := range c.levels {
		for _, n := range level {
			if prev, dup := seen[n]; dup {
				return fmt.Errorf("node %q scheduled twice (levels %d and %d)", n.formula().String(), prev, lvl)
			}
			if c.levelOf[n] != lvl {
				return fmt.Errorf("node %q: levelOf says %d, scheduled at %d", n.formula().String(), c.levelOf[n], lvl)
			}
			seen[n] = lvl
			count++
		}
	}
	if count != len(c.nodes) {
		return fmt.Errorf("schedule covers %d nodes, checker has %d", count, len(c.nodes))
	}
	for _, n := range c.nodes {
		lvl, ok := seen[n]
		if !ok {
			return fmt.Errorf("node %q missing from the schedule", n.formula().String())
		}
		var kids []mtl.Formula
		for _, op := range operands(n.formula()) {
			directTemporal(op, &kids)
		}
		for _, k := range kids {
			child, ok := c.byNode[k]
			if !ok {
				return fmt.Errorf("child %q of %q unregistered", k.String(), n.formula().String())
			}
			if seen[child] >= lvl {
				return fmt.Errorf("child %q (level %d) not strictly below parent %q (level %d)",
					k.String(), seen[child], n.formula().String(), lvl)
			}
		}
	}
	return nil
}

func TestScheduleShapes(t *testing.T) {
	s := equivSchema()
	cases := []struct {
		srcs   []string
		levels []int // nodes per level
	}{
		{[]string{"p(x) -> not once[0,3] q(x)"}, []int{1}},
		{[]string{"p(x) -> not once[0,4] prev q(x)"}, []int{1, 1}},
		{[]string{"p(x) -> not once[0,50] prev once[0,50] q(x)"}, []int{1, 1, 1}},
		{
			// Independent windows land on one level; shared shapes dedup.
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,5] q(x)",
				"q(x) -> not once[0,3] q(x)", // same shape as the first: shared node
			},
			[]int{2},
		},
		{
			[]string{
				"p(x) -> not once[0,3] q(x)",
				"p(x) -> not once[0,4] prev q(x)",
			},
			[]int{2, 1},
		},
	}
	for _, tc := range cases {
		c := New(s)
		for i, src := range tc.srcs {
			con, err := check.Parse(fmt.Sprintf("c%d", i), src, s)
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
		}
		sched := c.Schedule()
		if len(sched) != len(tc.levels) {
			t.Fatalf("%v: %d levels, want %d (%v)", tc.srcs, len(sched), len(tc.levels), sched)
		}
		for i, want := range tc.levels {
			if len(sched[i]) != want {
				t.Fatalf("%v: level %d has %d nodes, want %d (%v)", tc.srcs, i, len(sched[i]), want, sched)
			}
		}
		if err := scheduleInvariants(c); err != nil {
			t.Fatalf("%v: %v", tc.srcs, err)
		}
	}
}

// FuzzLevelSchedule draws random safe constraints from formgen's
// grammar and checks the scheduler's ordering invariant after every
// installation.
func FuzzLevelSchedule(f *testing.F) {
	for _, seed := range []int64{1, 42, 777, 9000} {
		f.Add(seed, uint8(3))
	}
	f.Fuzz(func(t *testing.T, seed int64, nCons uint8) {
		r := rand.New(rand.NewSource(seed))
		s := formgen.Schema()
		c := New(s)
		n := int(nCons%5) + 1
		for k := 0; k < n; k++ {
			src := formgen.Constraint(r)
			con, err := check.Parse(fmt.Sprintf("c%d", k), src, s)
			if err != nil {
				t.Fatalf("formgen produced unparseable constraint %q: %v", src, err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			if err := scheduleInvariants(c); err != nil {
				t.Fatalf("after installing %q: %v", src, err)
			}
		}
	})
}

func TestStepBatchMatchesSteps(t *testing.T) {
	h := workload.Tickets(workload.TicketsConfig{Steps: 120, Seed: 21, ViolationRate: 0.1})
	single := newFromHistory(t, h)
	batch := newFromHistory(t, h)

	steps := make([]engine.Step, len(h.Steps))
	var want [][]check.Violation
	for i, s := range h.Steps {
		steps[i] = engine.Step{Time: s.Time, Tx: s.Tx}
		vs, err := single.Step(s.Time, s.Tx)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		want = append(want, vs)
	}
	got, err := batch.StepBatch(steps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("batch returned %d slices, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameCanon(canon(got[i]), canon(want[i])) {
			t.Fatalf("step %d: batch %v vs single %v", i, canon(got[i]), canon(want[i]))
		}
	}
	if single.Len() != batch.Len() || single.Now() != batch.Now() {
		t.Fatalf("clocks diverged: single (%d, %d), batch (%d, %d)",
			single.Len(), single.Now(), batch.Len(), batch.Now())
	}
}

func TestStepBatchPrefixOnError(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 4, Seed: 3, OpsPerTx: 1, Domain: 4})
	c := newFromHistory(t, h)
	steps := []engine.Step{
		{Time: h.Steps[0].Time, Tx: h.Steps[0].Tx},
		{Time: h.Steps[1].Time, Tx: h.Steps[1].Tx},
		{Time: h.Steps[0].Time, Tx: h.Steps[2].Tx}, // non-increasing: fails
		{Time: h.Steps[3].Time, Tx: h.Steps[3].Tx},
	}
	out, err := c.StepBatch(steps)
	if err == nil {
		t.Fatal("batch with a non-increasing timestamp committed")
	}
	if len(out) != 2 {
		t.Fatalf("prefix has %d slices, want 2", len(out))
	}
	if c.Len() != 2 {
		t.Fatalf("checker committed %d states, want the 2-step prefix", c.Len())
	}
}
