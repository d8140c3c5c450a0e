package monitor

import (
	"bytes"
	"sync"
	"testing"

	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/workload"
)

func hrMonitor(t *testing.T) (*Monitor, *schema.Schema) {
	t.Helper()
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

func ins(rel string, v int64) *storage.Transaction {
	return storage.NewTransaction().Insert(rel, tuple.Ints(v))
}

func TestMonitorApply(t *testing.T) {
	m, _ := hrMonitor(t)
	vs, err := m.Apply(0, ins("fire", 7))
	if err != nil || len(vs) != 0 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	vs, err = m.Apply(100, ins("hire", 7))
	if err != nil || len(vs) != 1 {
		t.Fatalf("vs=%v err=%v", vs, err)
	}
	if m.Len() != 2 || m.Now() != 100 {
		t.Fatalf("Len=%d Now=%d", m.Len(), m.Now())
	}
}

func TestMonitorBadConstraint(t *testing.T) {
	s := schema.NewBuilder().Relation("p", 1).MustBuild()
	if _, err := New(s, []workload.ConstraintSpec{{Name: "c", Source: "(("}}); err == nil {
		t.Fatal("bad constraint accepted")
	}
}

func TestSubscribeReceivesViolations(t *testing.T) {
	m, _ := hrMonitor(t)
	ch, cancel := m.Subscribe(8)
	defer cancel()
	if _, err := m.Apply(0, ins("fire", 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Apply(100, ins("hire", 7)); err != nil {
		t.Fatal(err)
	}
	v := <-ch
	if v.Constraint != "no_quick_rehire" {
		t.Fatalf("received %v", v)
	}
}

func TestSubscribeCancelIdempotent(t *testing.T) {
	m, _ := hrMonitor(t)
	ch, cancel := m.Subscribe(1)
	cancel()
	cancel() // must not panic or double-close
	if _, open := <-ch; open {
		t.Fatal("channel not closed after cancel")
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	m, _ := hrMonitor(t)
	_, cancel := m.Subscribe(1) // never read
	defer cancel()
	tm := uint64(0)
	// Produce violations: fire then hire distinct employees quickly.
	for i := int64(0); i < 5; i++ {
		tm++
		if _, err := m.Apply(tm, ins("fire", i)); err != nil {
			t.Fatal(err)
		}
		tm++
		if _, err := m.Apply(tm, ins("hire", i)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Dropped() == 0 {
		t.Fatal("expected drops from a full subscriber buffer")
	}
}

func TestConcurrentApplySerialized(t *testing.T) {
	m, _ := hrMonitor(t)
	// Concurrent commits with pre-assigned increasing timestamps: all
	// must succeed or fail only due to out-of-order arrival (which the
	// monitor must reject cleanly, never corrupt).
	var wg sync.WaitGroup
	errs := make([]error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.Apply(uint64(i+1), storage.NewTransaction())
		}(i)
	}
	wg.Wait()
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	if okCount == 0 {
		t.Fatal("no commit succeeded")
	}
	if m.Len() != okCount {
		t.Fatalf("Len=%d, successes=%d", m.Len(), okCount)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m, s := hrMonitor(t)
	if _, err := m.Apply(0, ins("fire", 7)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(s, &buf)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := m2.Apply(100, ins("hire", 7))
	if err != nil || len(vs) != 1 {
		t.Fatalf("restored monitor: vs=%v err=%v", vs, err)
	}
	if m2.Stats().Nodes != 1 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
}

func TestMonitorString(t *testing.T) {
	m, _ := hrMonitor(t)
	if m.String() == "" {
		t.Fatal("empty String")
	}
}

func TestRecentRingBuffer(t *testing.T) {
	m, _ := hrMonitor(t)
	if got := m.Recent(10); len(got) != 0 {
		t.Fatalf("fresh monitor Recent = %v", got)
	}
	tm := uint64(0)
	// Produce 150 violations to wrap the 128-slot ring.
	for i := int64(0); i < 150; i++ {
		tm++
		if _, err := m.Apply(tm, ins("fire", i)); err != nil {
			t.Fatal(err)
		}
		tm++
		if _, err := m.Apply(tm, ins("hire", i)); err != nil {
			t.Fatal(err)
		}
	}
	all := m.Recent(0)
	if len(all) != 128 {
		t.Fatalf("ring holds %d, want 128", len(all))
	}
	// Oldest-first ordering (several violations can share a commit
	// time, so non-decreasing).
	for i := 1; i < len(all); i++ {
		if all[i-1].Time > all[i].Time {
			t.Fatalf("Recent not ordered at %d", i)
		}
	}
	last5 := m.Recent(5)
	if len(last5) != 5 || last5[4].Time != all[127].Time {
		t.Fatalf("Recent(5) = %v", last5)
	}
}

// TestRecentKeepsNewestOfLargeCommits: a commit that wraps the ring
// and a commit with more violations than the ring holds both leave
// exactly the newest 128 reports in the ring, oldest first.
func TestRecentKeepsNewestOfLargeCommits(t *testing.T) {
	m, _ := hrMonitor(t)
	var reported []string
	// commit deletes rel(e) for e in [drop, lo) and inserts it for e in
	// [lo, hi); every hired employee fired in the window is one
	// violation.
	commit := func(tm uint64, rel string, drop, lo, hi int64, want int) {
		t.Helper()
		tx := storage.NewTransaction()
		for e := drop; e < lo; e++ {
			tx.Delete(rel, tuple.Ints(e))
		}
		for e := lo; e < hi; e++ {
			tx.Insert(rel, tuple.Ints(e))
		}
		vs, err := m.Apply(tm, tx)
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != want {
			t.Fatalf("t=%d: %d violations, want %d", tm, len(vs), want)
		}
		for _, v := range vs {
			reported = append(reported, v.String())
		}
		keep := reported
		if len(keep) > recentCapacity {
			keep = keep[len(keep)-recentCapacity:]
		}
		got := m.Recent(0)
		if len(got) != len(keep) {
			t.Fatalf("t=%d: ring holds %d reports, want %d", tm, len(got), len(keep))
		}
		for i, v := range got {
			if v.String() != keep[i] {
				t.Fatalf("t=%d: Recent(0)[%d] = %s, want %s", tm, i, v, keep[i])
			}
		}
	}
	commit(1, "fire", 0, 0, 400, 0)
	commit(2, "hire", 0, 0, 100, 100)     // ring partly filled
	commit(3, "hire", 0, 100, 150, 50)    // wraps across two commits
	commit(4, "hire", 100, 150, 400, 250) // more than the ring holds
}
