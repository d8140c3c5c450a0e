package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// tree builds a commit span with a shard sub-commit child on lane 1
// and a phase grandchild on the same lane.
func tree(t0 time.Time) *Span {
	root := &Span{Name: SpanCommit, Time: 7, Start: t0, Dur: 10 * time.Millisecond, Ops: 3}
	shard := &Span{
		Name: SpanShardCommit, Detail: "0", Time: 7, Track: 1,
		Start: t0.Add(time.Millisecond), Dur: 8 * time.Millisecond, Ops: 5, Wait: time.Millisecond,
	}
	check := shard.Child(SpanCheck, "")
	check.Start, check.Dur, check.Ops = t0.Add(2*time.Millisecond), 6*time.Millisecond, 5
	root.Children = append(root.Children, shard)
	return root
}

func TestSpanWalkAndRender(t *testing.T) {
	s := tree(time.Now())
	var names []string
	s.Walk(func(sp *Span) { names = append(names, sp.Name) })
	want := []string{SpanCommit, SpanShardCommit, SpanCheck}
	if len(names) != len(want) {
		t.Fatalf("walked %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("walk[%d] = %q, want %q (parents first)", i, names[i], want[i])
		}
	}
	r := s.Render()
	for _, want := range []string{"commit 10ms ops=3", "  shard.commit(0)", "    phase.check", "wait=1ms", "track=1"} {
		if !strings.Contains(r, want) {
			t.Errorf("render missing %q:\n%s", want, r)
		}
	}
}

func TestSpanChildInheritsContext(t *testing.T) {
	p := &Span{Name: SpanCommit, Time: 42, Track: 3, Start: time.Now()}
	c := p.Child(SpanWALFsync, "d")
	if c.Time != 42 || c.Track != 3 {
		t.Errorf("child did not inherit time/track: %+v", c)
	}
	if len(p.Children) != 1 || p.Children[0] != c {
		t.Error("child not appended to parent")
	}
	c.End()
	if c.Dur < 0 {
		t.Errorf("End produced negative duration %v", c.Dur)
	}
}

func TestSpanRecorderRing(t *testing.T) {
	r := NewSpanRecorder(4)
	for i := 0; i < 6; i++ {
		r.ObserveSpan(&Span{Name: SpanCommit, Time: uint64(i)})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	snap := r.Snapshot()
	for i, s := range snap {
		if want := uint64(i + 2); s.Time != want {
			t.Errorf("snapshot[%d].Time = %d, want %d (oldest-first after wrap)", i, s.Time, want)
		}
	}
}

func TestSpanRecorderConcurrent(t *testing.T) {
	r := NewSpanRecorder(64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.ObserveSpan(&Span{Name: SpanCommit})
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Len(); got != 64 {
		t.Errorf("Len = %d, want 64", got)
	}
}

func TestMultiSpanSink(t *testing.T) {
	if MultiSpanSink() != nil {
		t.Error("no sinks should collapse to nil")
	}
	if MultiSpanSink(nil, nil) != nil {
		t.Error("all-nil sinks should collapse to nil")
	}
	a := NewSpanRecorder(8)
	if MultiSpanSink(nil, a) != SpanSink(a) {
		t.Error("single sink should be returned unwrapped")
	}
	b := NewSpanRecorder(8)
	m := MultiSpanSink(a, b)
	m.ObserveSpan(&Span{Name: SpanCommit})
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out miscounted: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestSlowSpanLogger(t *testing.T) {
	var logged []string
	sink := NewSlowSpanLogger(5*time.Millisecond, func(s string) { logged = append(logged, s) })
	sink.ObserveSpan(&Span{Name: SpanCommit, Time: 1, Dur: time.Millisecond})
	if len(logged) != 0 {
		t.Fatal("fast commit logged")
	}
	sink.ObserveSpan(tree(time.Now()))
	if len(logged) != 1 {
		t.Fatalf("slow commit not logged (%d entries)", len(logged))
	}
	for _, want := range []string{"slow commit t=7 took 10ms", "shard.commit(0)", "phase.check"} {
		if !strings.Contains(logged[0], want) {
			t.Errorf("slow log missing %q:\n%s", want, logged[0])
		}
	}
}

func TestSpanTracerAdapter(t *testing.T) {
	if NewSpanTracerAdapter(nil) != nil {
		t.Error("nil tracer should collapse to nil sink")
	}
	rt := &recordingTracer{}
	sink := NewSpanTracerAdapter(rt)
	sink.ObserveSpan(tree(time.Now()))
	if len(rt.evs) != 3 {
		t.Fatalf("flattened to %d events, want 3", len(rt.evs))
	}
	if rt.evs[0].Op != OpStep {
		t.Errorf("commit span mapped to %q, want %q", rt.evs[0].Op, OpStep)
	}
	if rt.evs[1].Op != SpanShardCommit || rt.evs[2].Op != SpanCheck {
		t.Errorf("child ops = %q, %q", rt.evs[1].Op, rt.evs[2].Op)
	}
	if rt.evs[0].Time != 7 || rt.evs[0].Duration != 10*time.Millisecond {
		t.Errorf("commit event lost context: %+v", rt.evs[0])
	}
}

func TestWriteChromeTrace(t *testing.T) {
	t0 := time.Now()
	roots := []*Span{tree(t0), nil, {
		Name: SpanCommit, Time: 8, Start: t0.Add(20 * time.Millisecond),
		Dur: time.Millisecond, Err: errFake,
	}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, roots); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 4 {
		t.Fatalf("%d events, want 4 (nil root skipped)", len(trace.TraceEvents))
	}
	ev := trace.TraceEvents[0]
	if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 0 || ev.Ts != 0 {
		t.Errorf("root event = %+v", ev)
	}
	if ev.Dur != 10_000 {
		t.Errorf("root dur = %v µs, want 10000", ev.Dur)
	}
	shard := trace.TraceEvents[1]
	if shard.Name != SpanShardCommit || shard.Tid != 1 {
		t.Errorf("shard event on tid %d: %+v", shard.Tid, shard)
	}
	if shard.Args["wait_us"] != 1000.0 {
		t.Errorf("shard wait_us = %v", shard.Args["wait_us"])
	}
	// Child slices must nest inside the parent on the timeline.
	phase := trace.TraceEvents[2]
	if phase.Tid != 1 {
		t.Errorf("phase event on tid %d, want its parent's lane 1", phase.Tid)
	}
	if phase.Ts < shard.Ts || phase.Ts+phase.Dur > shard.Ts+shard.Dur {
		t.Errorf("phase [%v,%v] escapes parent [%v,%v]",
			phase.Ts, phase.Ts+phase.Dur, shard.Ts, shard.Ts+shard.Dur)
	}
	errEv := trace.TraceEvents[3]
	if errEv.Args["err"] != "fake" {
		t.Errorf("error not exported: %+v", errEv.Args)
	}
}
