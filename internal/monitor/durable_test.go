package monitor

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/obs"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/wal"
	"rtic/internal/workload"
)

// hrTrace is a deterministic workload with violations scattered
// through it: firing then rehiring the same employee within the window
// trips no_quick_rehire.
func hrTrace(n int) []struct {
	t  uint64
	tx *storage.Transaction
} {
	var steps []struct {
		t  uint64
		tx *storage.Transaction
	}
	for i := 0; i < n; i++ {
		e := int64(i % 5)
		tx := storage.NewTransaction()
		if i%3 == 0 {
			tx.Insert("fire", tuple.Ints(e))
		} else {
			tx.Delete("fire", tuple.Ints(e)).Insert("hire", tuple.Ints(e))
		}
		steps = append(steps, struct {
			t  uint64
			tx *storage.Transaction
		}{uint64(i * 10), tx})
	}
	return steps
}

func durableMonitor(t *testing.T) *Monitor {
	t.Helper()
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{
		{Name: "no_quick_rehire", Source: "hire(e) -> not once[0,365] fire(e)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetObserver(&obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	return m
}

// violationKeys flattens per-step violations into comparable strings.
// Within one constraint a step reports witnesses in the answer set's
// unspecified iteration order, so each step's batch is sorted.
func violationKeys(vss [][]check.Violation) []string {
	var out []string
	for i, vs := range vss {
		step := make([]string, 0, len(vs))
		for _, v := range vs {
			step = append(step, fmt.Sprintf("%d:%s", i, v.String()))
		}
		sort.Strings(step)
		out = append(out, step...)
	}
	return out
}

// TestKillAndRecoverMatchesUninterrupted drives half a trace into a
// durable monitor, checkpoints mid-way, keeps committing, "crashes"
// (abandons the monitor without any shutdown), recovers a fresh one
// from checkpoint + WAL replay, and finishes the trace. Violations
// from the recovered half and the final auxiliary state must be
// identical to one uninterrupted run.
func TestKillAndRecoverMatchesUninterrupted(t *testing.T) {
	trace := hrTrace(30)
	half := len(trace) / 2
	ckptAt := len(trace) / 3

	// Reference: uninterrupted run.
	ref := durableMonitor(t)
	var refVs [][]check.Violation
	for _, st := range trace {
		vs, err := ref.Apply(st.t, st.tx)
		if err != nil {
			t.Fatal(err)
		}
		refVs = append(refVs, vs)
	}

	// Durable run, killed after half the trace.
	dir := t.TempDir()
	walPath := filepath.Join(dir, "state.wal")
	snapPath := filepath.Join(dir, "state.snap")
	m1 := durableMonitor(t)
	log1, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDurable(m1, log1, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	d1.Attach()
	var firstVs [][]check.Violation
	for _, st := range trace[:half] {
		vs, err := m1.Apply(st.t, st.tx)
		if err != nil {
			t.Fatal(err)
		}
		firstVs = append(firstVs, vs)
		if len(firstVs) == ckptAt {
			if err := d1.Checkpoint(); err != nil {
				t.Fatalf("mid-run checkpoint: %v", err)
			}
		}
	}
	if !reflect.DeepEqual(violationKeys(firstVs), violationKeys(refVs[:half])) {
		t.Fatal("pre-crash violations diverge from reference — test bug")
	}
	// Crash: no checkpoint, no WAL close, the monitor is simply gone.

	// Recover into a fresh monitor: newest checkpoint + WAL tail.
	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := RestoreObserved(s, sf, &obs.Observer{Metrics: obs.NewMetrics(obs.NewRegistry())})
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	d2, err := NewDurable(m2, log2, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := d2.Recover()
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if want := half - ckptAt; replayed != want {
		t.Errorf("replayed %d records, want %d (WAL tail past the checkpoint)", replayed, want)
	}
	d2.Attach()

	if m2.Len() != half || m2.Now() != trace[half-1].t {
		t.Fatalf("recovered to Len=%d Now=%d, want %d/%d", m2.Len(), m2.Now(), half, trace[half-1].t)
	}

	// The recovered monitor must finish the trace exactly like the
	// uninterrupted one: same violations, same auxiliary state.
	var restVs [][]check.Violation
	for _, st := range trace[half:] {
		vs, err := m2.Apply(st.t, st.tx)
		if err != nil {
			t.Fatal(err)
		}
		restVs = append(restVs, vs)
	}
	if got, want := violationKeys(restVs), violationKeys(refVs[half:]); !reflect.DeepEqual(got, want) {
		t.Errorf("post-recovery violations = %v, want %v", got, want)
	}
	if got, want := m2.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-recovery aux stats = %+v, want %+v", got, want)
	}
}

// TestRecoverWALOnly replays a journal into an empty monitor when no
// checkpoint was ever written.
func TestRecoverWALOnly(t *testing.T) {
	trace := hrTrace(12)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "only.wal")

	m1 := durableMonitor(t)
	log1, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDurable(m1, log1, "")
	if err != nil {
		t.Fatal(err)
	}
	d1.Attach()
	for _, st := range trace {
		if _, err := m1.Apply(st.t, st.tx); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without closing.

	m2 := durableMonitor(t)
	log2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	d2, err := NewDurable(m2, log2, "")
	if err != nil {
		t.Fatal(err)
	}
	n, err := d2.Recover()
	if err != nil || n != len(trace) {
		t.Fatalf("Recover = %d, %v; want %d records", n, err, len(trace))
	}
	if m2.Len() != m1.Len() || m2.Now() != m1.Now() || !reflect.DeepEqual(m2.Stats(), m1.Stats()) {
		t.Errorf("WAL-only recovery diverged: Len %d/%d Now %d/%d", m2.Len(), m1.Len(), m2.Now(), m1.Now())
	}
}

// TestRecoverSkipsRecordsCoveredByCheckpoint simulates a crash between
// checkpoint rename and WAL reset: every journaled record is also in
// the checkpoint, and replay must skip all of them by timestamp.
func TestRecoverSkipsRecordsCoveredByCheckpoint(t *testing.T) {
	trace := hrTrace(8)
	dir := t.TempDir()
	walPath := filepath.Join(dir, "state.wal")
	snapPath := filepath.Join(dir, "state.snap")

	m1 := durableMonitor(t)
	log1, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := NewDurable(m1, log1, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	d1.Attach()
	for _, st := range trace {
		if _, err := m1.Apply(st.t, st.tx); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint WITHOUT the WAL reset: write the snapshot atomically,
	// as if the process died right after the rename.
	if err := wal.WriteFileAtomic(snapPath, m1.Snapshot); err != nil {
		t.Fatal(err)
	}

	s := schema.NewBuilder().Relation("hire", 1).Relation("fire", 1).MustBuild()
	sf, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Restore(s, sf)
	sf.Close()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := wal.Open(walPath)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	d2, err := NewDurable(m2, log2, snapPath)
	if err != nil {
		t.Fatal(err)
	}
	n, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replayed %d records that the checkpoint already covers", n)
	}
	if m2.Len() != m1.Len() || m2.Now() != m1.Now() {
		t.Errorf("double-apply detected: Len %d/%d Now %d/%d", m2.Len(), m1.Len(), m2.Now(), m1.Now())
	}
}

// TestCheckpointFailureReportsDegraded points the checkpoint at an
// unwritable path and expects Health to flip to degraded — and back to
// ok once checkpointing succeeds again.
func TestCheckpointFailureReportsDegraded(t *testing.T) {
	dir := t.TempDir()
	m := durableMonitor(t)
	log, err := wal.Open(filepath.Join(dir, "state.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	bad := filepath.Join(dir, "no-such-dir", "state.snap")
	d, err := NewDurable(m, log, bad)
	if err != nil {
		t.Fatal(err)
	}
	d.Attach()
	if _, err := m.Apply(0, ins("fire", 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint into a missing directory succeeded")
	}
	h := d.Health()
	if h.Status != "degraded" || h.LastError == "" {
		t.Errorf("health after failed checkpoint = %+v, want degraded", h)
	}
	if h.LastCheckpointAgeSeconds != -1 {
		t.Errorf("LastCheckpointAgeSeconds = %v, want -1 (never)", h.LastCheckpointAgeSeconds)
	}
	mm, _ := m.Observer().Parts()
	if mm.CheckpointErrors.Value() != 1 {
		t.Errorf("CheckpointErrors = %d, want 1", mm.CheckpointErrors.Value())
	}

	// Recovery of the degraded state: fix the path, checkpoint again.
	d.snapPath = filepath.Join(dir, "state.snap")
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	h = d.Health()
	if h.Status != "ok" || h.LastCheckpointAgeSeconds < 0 {
		t.Errorf("health after recovery = %+v, want ok with a real age", h)
	}
	if log.Records() != 0 {
		t.Errorf("checkpoint did not reset the WAL: %d records", log.Records())
	}
}

// TestDurableRequiresIncremental rejects the baseline engines.
func TestDurableRequiresIncremental(t *testing.T) {
	s := schema.NewBuilder().Relation("p", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{{Name: "c", Source: "p(x) -> not once p(x)"}},
		WithMode(engine.Naive))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDurable(m, nil, "x.snap"); err == nil {
		t.Error("durability accepted a non-incremental engine")
	}
	m2 := durableMonitor(t)
	if _, err := NewDurable(m2, nil, ""); err == nil {
		t.Error("durability accepted neither WAL nor checkpoint path")
	}
}
