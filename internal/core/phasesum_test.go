package core

import (
	"testing"

	"rtic/internal/obs"
	"rtic/internal/workload"
)

// sequential names the subtests that run the one commit path: every
// commit runs on the calling goroutine, at parallelism 1.
const sequential = "parallelism=1"

// phaseNamesAll mirrors the phase labels the checker exports.
var phaseNamesAll = []string{"apply", "update", "check", "carry"}

// TestPhaseSecondsSumToCommitSeconds is the attribution acceptance
// criterion: the per-phase histograms must account for the commit
// histogram — what rtic_step_phase_seconds{phase} sums to has to land
// within 10% of rtic_commit_duration_seconds, or the decomposition is
// lying about where commit time goes.
func TestPhaseSecondsSumToCommitSeconds(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 400, Seed: 53, OpsPerTx: 4, Domain: 16})
	t.Run(sequential, func(t *testing.T) {
		c := newFromHistory(t, h)
		m := obs.NewMetrics(obs.NewRegistry())
		c.SetObserver(&obs.Observer{Metrics: m})
		for _, s := range h.Steps {
			if _, err := c.Step(s.Time, s.Tx); err != nil {
				t.Fatal(err)
			}
		}
		commit := m.CommitSeconds.Sum()
		if commit <= 0 {
			t.Fatal("commit histogram saw nothing")
		}
		var phases float64
		for _, name := range phaseNamesAll {
			ph := m.StepPhaseSeconds.With(name)
			if ph.Count() != uint64(len(h.Steps)) {
				t.Errorf("phase %q observed %d commits, want %d", name, ph.Count(), len(h.Steps))
			}
			phases += ph.Sum()
		}
		if ratio := phases / commit; ratio < 0.9 || ratio > 1.1 {
			t.Errorf("phase sum %.6fs vs commit %.6fs: ratio %.3f outside [0.9, 1.1]",
				phases, commit, ratio)
		}
	})
}

// TestCommitSpanDecomposition checks the span tree a commit emits: a
// commit root with the four phase children in pipeline order, each a
// leaf on the serial lane.
func TestCommitSpanDecomposition(t *testing.T) {
	h := workload.Uniform(workload.UniformConfig{Steps: 50, Seed: 7, OpsPerTx: 3, Domain: 8})
	t.Run(sequential, func(t *testing.T) {
		c := newFromHistory(t, h)
		rec := obs.NewSpanRecorder(len(h.Steps))
		c.SetObserver(&obs.Observer{Spans: rec})
		for _, s := range h.Steps {
			if _, err := c.Step(s.Time, s.Tx); err != nil {
				t.Fatal(err)
			}
		}
		roots := rec.Snapshot()
		if len(roots) != len(h.Steps) {
			t.Fatalf("recorded %d commit spans, want %d", len(roots), len(h.Steps))
		}
		for i, root := range roots {
			if root.Name != obs.SpanCommit {
				t.Fatalf("root %d is %q, want %q", i, root.Name, obs.SpanCommit)
			}
			if root.Time != h.Steps[i].Time {
				t.Errorf("root %d at t=%d, want %d", i, root.Time, h.Steps[i].Time)
			}
			if root.Dur <= 0 {
				t.Errorf("root %d has no duration", i)
			}
			var phaseNames []string
			var phaseSum float64
			for _, ch := range root.Children {
				phaseNames = append(phaseNames, ch.Name)
				phaseSum += ch.Dur.Seconds()
				if ch.Track != 0 {
					t.Errorf("phase %q on track %d, want the serial lane", ch.Name, ch.Track)
				}
				for _, g := range ch.Children {
					t.Errorf("unexpected grandchild %q under %q", g.Name, ch.Name)
				}
			}
			want := []string{obs.SpanApply, obs.SpanUpdate, obs.SpanCheck, obs.SpanCarry}
			if len(phaseNames) != len(want) {
				t.Fatalf("commit %d decomposes into %v, want %v", i, phaseNames, want)
			}
			for j := range want {
				if phaseNames[j] != want[j] {
					t.Errorf("commit %d phase[%d] = %q, want %q", i, j, phaseNames[j], want[j])
				}
			}
			if phaseSum > root.Dur.Seconds()*1.05 {
				t.Errorf("commit %d phases sum to %.6fs > commit %.6fs", i, phaseSum, root.Dur.Seconds())
			}
		}
	})
}
