package core

import (
	"math/rand"
	"testing"

	"rtic/internal/check"
	"rtic/internal/schema"
)

// The ablation: with pruning disabled the checker must still give the
// same answers, but its auxiliary storage grows with history length —
// demonstrating that the pruning rules are exactly what delivers the
// paper's space bound.

func newChecker(t *testing.T, s *schema.Schema, src string, prune bool) *Checker {
	t.Helper()
	c := New(s)
	if !prune {
		if err := c.DisablePruning(); err != nil {
			t.Fatal(err)
		}
	}
	con, err := check.Parse("c", src, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraint(con); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAblationSameAnswers(t *testing.T) {
	s := equivSchema()
	for _, src := range []string{
		"p(x) -> not once[0,5] q(x)",
		"p(x) -> not once q(x)",
		"p(x) -> not (q(x) since[1,6] p(x))",
	} {
		r := rand.New(rand.NewSource(31))
		pruned := newChecker(t, s, src, true)
		unpruned := newChecker(t, s, src, false)
		tm := uint64(0)
		for i := 0; i < 80; i++ {
			tm += uint64(1 + r.Intn(2))
			tx := randomTx(r, 3)
			a, err := pruned.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("%q: %v", src, err)
			}
			b, err := unpruned.Step(tm, tx)
			if err != nil {
				t.Fatalf("%q: unpruned: %v", src, err)
			}
			if !sameCanon(canon(a), canon(b)) {
				t.Fatalf("%q step %d: pruned %v vs unpruned %v", src, i, canon(a), canon(b))
			}
		}
	}
}

func TestAblationSpaceGrows(t *testing.T) {
	s := equivSchema()
	src := "p(x) -> not once[0,5] q(x)"
	pruned := newChecker(t, s, src, true)
	unpruned := newChecker(t, s, src, false)
	tm := uint64(0)
	for i := int64(0); i < 300; i++ {
		tm++
		tx := ins("q", i%3)
		if _, err := pruned.Step(tm, tx.Clone()); err != nil {
			t.Fatal(err)
		}
		if _, err := unpruned.Step(tm, tx); err != nil {
			t.Fatal(err)
		}
	}
	ps, us := pruned.Stats(), unpruned.Stats()
	// Pruned: a [0,b] window keeps only the newest anchor, one timestamp
	// per binding (3 bindings → 3). Unpruned: q tuples persist, so every
	// step anchors all three bindings — ~3 timestamps per step survive
	// (1+2+3+3·297 = 897 at 300 steps).
	if ps.Timestamps != 3 {
		t.Fatalf("pruned timestamps = %d, want 3", ps.Timestamps)
	}
	if us.Timestamps != 897 {
		t.Fatalf("unpruned timestamps = %d, want 897 (grows with history)", us.Timestamps)
	}
	if us.Bytes <= ps.Bytes*4 {
		t.Fatalf("ablation did not show space growth: pruned %dB, unpruned %dB", ps.Bytes, us.Bytes)
	}
}

func TestDisablePruningGuards(t *testing.T) {
	s := equivSchema()
	c := newChecker(t, s, "p(x) -> not once q(x)", true)
	if err := c.DisablePruning(); err == nil {
		t.Fatal("DisablePruning accepted after constraints were added")
	}
}
