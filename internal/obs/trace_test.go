package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestSlogTracerEnabledGate(t *testing.T) {
	var buf bytes.Buffer
	// An INFO-level handler should suppress (and report as disabled)
	// the high-frequency DEBUG ops while keeping steps and errors.
	tr := NewSlogTracer(slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})))
	if TraceEnabled(tr, OpNodeUpdate) {
		t.Error("node.update should be disabled at INFO level")
	}
	if TraceEnabled(tr, OpConstraintCheck) {
		t.Error("constraint.check should be disabled at INFO level")
	}
	if !TraceEnabled(tr, OpStep) {
		t.Error("step should be enabled at INFO level")
	}
	tr.Trace(TraceEvent{Op: OpNodeUpdate, Detail: "dropped"})
	tr.Trace(TraceEvent{Op: OpStep, Time: 3})
	tr.Trace(TraceEvent{Op: OpNodeUpdate, Detail: "kept", Err: errFake})
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("suppressed event logged:\n%s", out)
	}
	if !strings.Contains(out, "msg=step") || !strings.Contains(out, "err=fake") {
		t.Errorf("kept events missing:\n%s", out)
	}
}

func TestTraceEnabledDefaults(t *testing.T) {
	if TraceEnabled(nil, OpStep) {
		t.Error("nil tracer should be disabled")
	}
	// Tracers without the TraceEnabler interface receive everything.
	if !TraceEnabled(&recordingTracer{}, OpNodeUpdate) {
		t.Error("plain tracer should default to enabled")
	}
}

func TestSamplingTracer(t *testing.T) {
	rt := &recordingTracer{}
	if got := NewSamplingTracer(rt, 1); got != Tracer(rt) {
		t.Error("n<=1 should return the tracer unchanged")
	}
	if got := NewSamplingTracer(nil, 10); got != nil {
		t.Error("nil tracer should stay nil")
	}
	s := NewSamplingTracer(rt, 10)
	for i := 0; i < 100; i++ {
		s.Trace(TraceEvent{Op: OpNodeUpdate})
	}
	if len(rt.evs) != 10 {
		t.Errorf("sampled %d of 100 high-frequency events, want 10", len(rt.evs))
	}
	rt.evs = nil
	// Low-frequency ops and errors always pass.
	s.Trace(TraceEvent{Op: OpStep})
	s.Trace(TraceEvent{Op: OpNodeUpdate, Err: errFake})
	if len(rt.evs) != 2 {
		t.Errorf("step/error events dropped: got %d, want 2", len(rt.evs))
	}
	// Enabled delegates to the wrapped tracer's default.
	if !TraceEnabled(s, OpNodeUpdate) {
		t.Error("sampler over a plain tracer should report enabled")
	}
}

func TestFloatGauge(t *testing.T) {
	r := NewRegistry()
	g := r.FloatGauge("rtic_shard_commit_skew", "Shard sub-commit skew.")
	g.Set(0.75)
	if got := g.Value(); got != 0.75 {
		t.Errorf("Value = %v, want 0.75", got)
	}
	if g2 := r.FloatGauge("rtic_shard_commit_skew", "Shard sub-commit skew."); g2 != g {
		t.Error("re-registration should return the same gauge")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE rtic_shard_commit_skew gauge") {
		t.Errorf("float gauge must expose as TYPE gauge:\n%s", out)
	}
	if !strings.Contains(out, "rtic_shard_commit_skew 0.75") {
		t.Errorf("float gauge sample missing:\n%s", out)
	}
}

// TestConcurrentScrape scrapes the registry while every metric kind is
// being written — the situation the rticd /metrics endpoint is in. Run
// under -race this is the exposition thread-safety check.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m.Commits.Inc()
				m.Violations.With(fmt.Sprintf("c%d", w)).Inc()
				m.CommitSeconds.Observe(0.001)
				m.StepPhaseSeconds.With("check").Observe(0.0005)
				m.ShardSkew.Set(float64(i%100) / 100)
				m.AuxBytes.Set(int64(i))
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "rtic_commits_total") {
			t.Fatal("scrape lost the commits family")
		}
	}
	close(stop)
	wg.Wait()
}

func TestMetricsIncludesAttributionFamilies(t *testing.T) {
	r := NewRegistry()
	m := NewMetrics(r)
	m.StepPhaseSeconds.With("apply").Observe(0.001)
	m.ShardSkew.Set(2)
	m.LockWaitSeconds.Observe(0.0002)
	m.BuildInfo.With("go1.24.0", "abc123").Set(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE rtic_step_phase_seconds histogram",
		`rtic_step_phase_seconds_bucket{phase="apply",le=`,
		"# TYPE rtic_shard_commit_skew gauge",
		"# TYPE rtic_commit_lock_wait_seconds histogram",
		`rtic_build_info{go_version="go1.24.0",rev="abc123"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
