package rtic

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func canonViolations(vs []Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Constraint + "|" + v.Binding.Key()
	}
	sort.Strings(out)
	return out
}

func TestShardsAccessor(t *testing.T) {
	s := hrSchema(t)
	c, err := NewChecker(s, WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Shards(); got != 4 {
		t.Fatalf("Shards() = %d, want 4", got)
	}
	if got := c.Mode(); got != Incremental {
		t.Fatalf("sharded Mode() = %v, want Incremental", got)
	}
	// n<=1 selects the plain unsharded engine, not a one-shard router.
	c, _ = NewChecker(s, WithShards(1))
	if got := c.Shards(); got != 1 {
		t.Fatalf("WithShards(1): Shards() = %d, want 1", got)
	}
	c, _ = NewChecker(s)
	if got := c.Shards(); got != 1 {
		t.Fatalf("default Shards() = %d, want 1", got)
	}
	// Sharding composes with mode selection.
	c, err = NewChecker(s, WithMode(Naive), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 2 || c.Mode() != Naive {
		t.Fatalf("naive sharded: shards=%d mode=%v", c.Shards(), c.Mode())
	}
}

func TestShardedCheckerEquivalence(t *testing.T) {
	build := func(opts ...Option) *Checker {
		c, err := NewChecker(hrSchema(t), opts...)
		if err != nil {
			t.Fatal(err)
		}
		c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
		c.MustAddConstraint("no_refire", "fire(e) -> not once[0,100] fire(e)")
		return c
	}
	plain, sharded := build(), build(WithShards(3))
	r := rand.New(rand.NewSource(83))
	tm := uint64(0)
	for i := 0; i < 100; i++ {
		tm += uint64(1 + r.Intn(20))
		e := int64(r.Intn(6))
		rel := "hire"
		if r.Intn(2) == 0 {
			rel = "fire"
		}
		want, err := plain.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, err := sharded.Begin().Insert(rel, Int(e)).Commit(tm)
		if err != nil {
			t.Fatalf("step %d (sharded): %v", i, err)
		}
		cg, cw := canonViolations(got), canonViolations(want)
		if len(cg) != len(cw) {
			t.Fatalf("step %d: %v vs %v", i, got, want)
		}
		for k := range cg {
			if cg[k] != cw[k] {
				t.Fatalf("step %d: %v vs %v", i, got, want)
			}
		}
	}
	// Tracked bindings live on exactly one shard each, so the summed
	// auxiliary entries match the unsharded engine exactly.
	ps, ss := plain.Stats(), sharded.Stats()
	if ps.Entries != ss.Entries || ps.Timestamps != ss.Timestamps {
		t.Fatalf("aux sums diverge: plain=%+v sharded=%+v", ps, ss)
	}
	// Queries read the merged state across shards.
	pq, err := plain.Query("hire(e) and not fire(e)")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := sharded.Query("hire(e) and not fire(e)")
	if err != nil {
		t.Fatal(err)
	}
	if len(pq.Rows) != len(sq.Rows) {
		t.Fatalf("query rows: plain=%v sharded=%v", pq.Rows, sq.Rows)
	}
	for i := range pq.Rows {
		if pq.Rows[i].Key() != sq.Rows[i].Key() {
			t.Fatalf("query row %d: %v vs %v", i, pq.Rows[i], sq.Rows[i])
		}
	}
}

func TestShardedCheckerUnsupported(t *testing.T) {
	c, err := NewChecker(hrSchema(t), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	c.MustAddConstraint("no_quick_rehire", "hire(e) -> not once[0,365] fire(e)")
	if _, err := c.Begin().Insert("fire", Int(7)).Commit(10); err != nil {
		t.Fatal(err)
	}
	vs, err := c.Begin().Insert("hire", Int(7)).Commit(20)
	if err != nil || len(vs) != 1 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	if _, err := c.Explain(vs[0]); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("Explain on sharded checker: %v", err)
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err == nil || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("SaveSnapshot on sharded checker: %v", err)
	}
}
