package relation

import (
	"testing"
	"testing/quick"

	"rtic/internal/tuple"
)

func TestNewNegativeArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1)
}

func TestInsertContainsDelete(t *testing.T) {
	r := New(2)
	added, err := r.Insert(tuple.Ints(1, 2))
	if err != nil || !added {
		t.Fatalf("first insert: added=%v err=%v", added, err)
	}
	added, err = r.Insert(tuple.Ints(1, 2))
	if err != nil || added {
		t.Fatalf("duplicate insert: added=%v err=%v", added, err)
	}
	if r.Len() != 1 || !r.Contains(tuple.Ints(1, 2)) {
		t.Fatal("membership wrong after insert")
	}
	if !r.Delete(tuple.Ints(1, 2)) {
		t.Fatal("delete of present tuple returned false")
	}
	if r.Delete(tuple.Ints(1, 2)) {
		t.Fatal("delete of absent tuple returned true")
	}
	if r.Len() != 0 {
		t.Fatal("relation not empty after delete")
	}
}

func TestInsertArityMismatch(t *testing.T) {
	r := New(2)
	if _, err := r.Insert(tuple.Ints(1)); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestMustInsertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).MustInsert(tuple.Ints(1, 2))
}

func TestInsertCopies(t *testing.T) {
	r := New(1)
	row := tuple.Ints(5)
	r.MustInsert(row)
	row[0] = tuple.Ints(9)[0]
	if !r.Contains(tuple.Ints(5)) {
		t.Fatal("relation affected by caller mutation")
	}
}

func TestZeroArity(t *testing.T) {
	r := New(0)
	if r.Contains(tuple.Of()) {
		t.Fatal("empty nullary relation contains ()")
	}
	r.MustInsert(tuple.Of())
	if !r.Contains(tuple.Of()) || r.Len() != 1 {
		t.Fatal("nullary relation broken")
	}
}

func TestTuplesSorted(t *testing.T) {
	r := New(1)
	for _, v := range []int64{3, 1, 2} {
		r.MustInsert(tuple.Ints(v))
	}
	ts := r.Tuples()
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Compare(ts[i]) >= 0 {
			t.Fatal("Tuples not sorted")
		}
	}
}

func TestEachEarlyStop(t *testing.T) {
	r := New(1)
	for i := int64(0); i < 10; i++ {
		r.MustInsert(tuple.Ints(i))
	}
	n := 0
	r.Each(func(tuple.Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Each visited %d tuples, want 3", n)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := New(1)
	r.MustInsert(tuple.Ints(1))
	c := r.Clone()
	c.MustInsert(tuple.Ints(2))
	if r.Len() != 1 || c.Len() != 2 {
		t.Fatal("Clone shares storage")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(1), New(1)
	a.MustInsert(tuple.Ints(1))
	b.MustInsert(tuple.Ints(1))
	if !a.Equal(b) {
		t.Fatal("equal relations reported unequal")
	}
	b.MustInsert(tuple.Ints(2))
	if a.Equal(b) {
		t.Fatal("unequal relations reported equal")
	}
	if a.Equal(New(2)) {
		t.Fatal("different arities reported equal")
	}
}

func TestUnionDiff(t *testing.T) {
	a, b := New(1), New(1)
	a.MustInsert(tuple.Ints(1))
	b.MustInsert(tuple.Ints(1))
	b.MustInsert(tuple.Ints(2))
	if err := a.UnionInPlace(b); err != nil || a.Len() != 2 {
		t.Fatalf("union: len=%d err=%v", a.Len(), err)
	}
	if err := a.DiffInPlace(b); err != nil || a.Len() != 0 {
		t.Fatalf("diff: len=%d err=%v", a.Len(), err)
	}
	if err := a.UnionInPlace(New(2)); err == nil {
		t.Fatal("union arity mismatch accepted")
	}
	if err := a.DiffInPlace(New(2)); err == nil {
		t.Fatal("diff arity mismatch accepted")
	}
}

func TestClear(t *testing.T) {
	r := New(1)
	r.MustInsert(tuple.Ints(1))
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear left tuples")
	}
}

func TestSizeGrows(t *testing.T) {
	r := New(1)
	s0 := r.Size()
	r.MustInsert(tuple.Ints(1))
	if r.Size() <= s0 {
		t.Fatal("Size did not grow")
	}
}

func TestString(t *testing.T) {
	r := New(1)
	r.MustInsert(tuple.Ints(2))
	r.MustInsert(tuple.Ints(1))
	if got := r.String(); got != "{(1), (2)}" {
		t.Fatalf("String = %q", got)
	}
}

func TestQuickInsertDeleteInverse(t *testing.T) {
	f := func(xs []int64) bool {
		r := New(1)
		for _, x := range xs {
			r.MustInsert(tuple.Ints(x))
		}
		for _, x := range xs {
			r.Delete(tuple.Ints(x))
		}
		return r.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEachKeyDeletesWhileIterating(t *testing.T) {
	r := New(1)
	for i := int64(0); i < 10; i++ {
		r.MustInsert(tuple.Ints(i))
	}
	visited := 0
	r.EachKey(func(key string, row tuple.Tuple) bool {
		visited++
		if key != row.Key() {
			t.Fatalf("key %q for row %v, want %q", key, row, row.Key())
		}
		if row[0].AsInt()%2 == 0 {
			r.DeleteKey(key)
		}
		return true
	})
	if visited != 10 || r.Len() != 5 {
		t.Fatalf("visited %d rows, %d left; want 10 and 5", visited, r.Len())
	}
	r.Each(func(row tuple.Tuple) bool {
		if row[0].AsInt()%2 == 0 {
			t.Fatalf("even row %v survived", row)
		}
		return true
	})
}

func TestInsertOfPresentRowAllocatesNothing(t *testing.T) {
	r := New(2)
	row := tuple.Ints(4, 2)
	r.MustInsert(row)
	if allocs := testing.AllocsPerRun(100, func() { r.MustInsert(row) }); allocs != 0 {
		t.Fatalf("re-inserting a present row allocates %.1f objects, want 0", allocs)
	}
}

// Membership probes and deletions build their key on the stack: neither
// a present nor an absent row costs an allocation.
func TestProbeAndDeleteAllocateNothing(t *testing.T) {
	r := New(2)
	present, absent := tuple.Ints(4, 2), tuple.Ints(9, 9)
	absentKey := absent.AppendKeyTo(nil)
	r.MustInsert(present)
	for name, probe := range map[string]func(){
		"Contains/present":      func() { r.Contains(present) },
		"Contains/absent":       func() { r.Contains(absent) },
		"Delete/absent":         func() { r.Delete(absent) },
		"DeleteKeyBytes/absent": func() { r.DeleteKeyBytes(absentKey) },
	} {
		if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
			t.Errorf("%s allocates %.1f objects, want 0", name, allocs)
		}
	}
	const runs = 100
	rows := make([]tuple.Tuple, runs+1)
	for i := range rows {
		rows[i] = tuple.Ints(int64(i), int64(-i))
		r.MustInsert(rows[i])
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if !r.Delete(rows[next]) {
			t.Fatalf("row %v was not present", rows[next])
		}
		next++
	})
	if allocs != 0 {
		t.Errorf("Delete/present allocates %.1f objects, want 0", allocs)
	}
	if r.Len() != 1 || !r.Contains(present) {
		t.Fatalf("after deletions: %s", r)
	}
}
