package core

import (
	"math/rand"
	"strings"
	"testing"

	"rtic/internal/check"
)

// Delta-proportional maintenance: the check phase retests only the
// cached denial rows a commit's kills pin, and since/once nodes keep ⟦ψ⟧
// by ψ's source deltas. Every shape below runs on a checker taking those
// paths and on one forced onto the full-scan fallbacks, each held
// against the tree-walking checker at every commit; CheckInvariants
// additionally compares the cached ψ flags, answer flags and storage
// totals with full recomputations.

// pathCounts tallies the maintenance paths a checker took.
type pathCounts struct {
	targeted, retestAll int // seeded constraints: pinned retest, every row retested
	delta, full         int // since/once nodes after priming: ψ by delta, full re-enumeration
}

func (pc *pathCounts) record(c *Checker) {
	for _, si := range c.LastSkips() {
		if si.Action != ActionSeeded {
			continue
		}
		if strings.Contains(si.Reason, "every row retested") {
			pc.retestAll++
		} else {
			pc.targeted++
		}
	}
	for _, n := range c.nodes {
		if s, ok := n.(*sinceNode); ok && c.index > 1 {
			switch s.path {
			case pathDelta:
				pc.delta++
			case pathFull:
				pc.full++
			}
		}
	}
}

func TestDeltaMaintenanceShapes(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		// want names the counters the targeted checker must have bumped:
		// t = targeted retest, a = every row retested, d = ψ by delta.
		want string
	}{
		{"negated literal killed by insertion", "p(x) -> q(x)", "t"},
		{"constants and repeated variables", "r(x, 3) -> not r(x, x)", "t"},
		{"repeated variables over a constant-anchored once", "r(x, x) -> not once[0,4] r(x, 3)", "td"},
		{"multi-disjunct denial", "(p(x) -> q(x)) and (r(x, 1) -> not once[0,3] p(x))", "td"},
		{"non-covering relation literal", "r(x, y) -> not p(x)", "ta"},
		{"non-covering temporal literal", "r(x, y) -> not once[0,3] p(x)", "tad"},
		{"once over a nested temporal anchor", "p(x) -> not once[0,6] (q(x) and once[0,2] p(x))", "td"},
		{"once over a negated nested temporal", "p(x) -> not once[1,5] (q(x) and not once[0,2] p(x))", "td"},
		{"since with the chain changing", "q(x) -> not (p(x) since[1,6] r(x, 1))", "td"},
		{"since over a binary anchor", "r(x, y) -> not (p(x) since[0,6] r(x, y))", "td"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			targeted, fallback := runDeltaShape(t, tc.src, false), runDeltaShape(t, tc.src, true)
			if fallback.targeted+fallback.delta > 0 {
				t.Fatalf("forced fallback took a delta path: %+v", fallback)
			}
			for _, w := range tc.want {
				n := map[rune]int{'t': targeted.targeted, 'a': targeted.retestAll, 'd': targeted.delta}[w]
				if n == 0 {
					t.Errorf("path %q never taken (%+v)", w, targeted)
				}
			}
			if !strings.ContainsRune(tc.want, 'a') && targeted.retestAll > 0 {
				t.Errorf("every pinned source fell back to a full retest %d times (%+v)", targeted.retestAll, targeted)
			}
		})
	}
}

// runDeltaShape replays random histories of src on a planned checker
// (fullScan selects the fallbacks) and on the tree-walking checker.
func runDeltaShape(t *testing.T, src string, fullScan bool) pathCounts {
	t.Helper()
	s := equivSchema()
	var pc pathCounts
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		planned, walk := New(s), New(s, WithEvaluation(EvalTreeWalk))
		planned.fullScan = fullScan
		for _, c := range []*Checker{planned, walk} {
			con, err := check.Parse("c", src, s)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if err := c.AddConstraint(con); err != nil {
				t.Fatal(err)
			}
		}
		tm := uint64(0)
		for i := 0; i < 60; i++ {
			tm += uint64(1 + r.Intn(2))
			tx := randomTx(r, 4)
			got, err := planned.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			want, err := walk.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d step %d: tree-walk: %v", seed, i, err)
			}
			if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
				t.Fatalf("seed %d step %d (t=%d, tx=%s, fullScan=%v):\nplanned:   %v\ntree-walk: %v",
					seed, i, tm, tx, fullScan, cg, cw)
			}
			if err := planned.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d (fullScan=%v): %v", seed, i, fullScan, err)
			}
			pc.record(planned)
		}
	}
	return pc
}

// TestDenseFeedTakesDeltaPaths pins that the dense feed runs on the
// delta-proportional paths: after the first commit every seeded
// constraint retests only pinned rows and no once node re-enumerates ψ.
func TestDenseFeedTakesDeltaPaths(t *testing.T) {
	h := denseHistory(120)
	c := newFromHistory(t, h)
	var pc pathCounts
	for i, s := range h.Steps {
		if _, err := c.Step(s.Time, s.Tx); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		pc.record(c)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if pc.targeted == 0 || pc.delta == 0 || pc.retestAll != 0 || pc.full != 0 {
		t.Fatalf("dense feed paths %+v: want targeted retests and ψ by delta only", pc)
	}
	t.Logf("paths over %d commits: %+v", len(h.Steps), pc)
}
