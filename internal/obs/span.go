package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Span names emitted by the commit path. A commit span decomposes into
// per-phase children (apply/update/check/carry); the shard router adds
// per-shard sub-commit children, and the durability layer adds WAL
// append/fsync spans.
const (
	SpanCommit       = "commit"        // one committed transaction, end to end
	SpanApply        = "phase.apply"   // transaction applied to storage
	SpanUpdate       = "phase.update"  // auxiliary node updates (all levels)
	SpanCheck        = "phase.check"   // constraint denial evaluations
	SpanCarry        = "phase.carry"   // deferred window advance bookkeeping
	SpanShardCommit  = "shard.commit"  // one shard engine's sub-commit
	SpanWALAppend    = "wal.append"    // one record framed and written
	SpanWALFsync     = "wal.fsync"     // fsync issued by the append
	SpanMonitorApply = "monitor.apply" // monitor's serialized commit section
)

// Span is one timed section of the commit path. Spans form a tree: the
// root is typically a commit (or the monitor's apply section enclosing
// it) and children decompose its time. All fields are filled by the
// emitting layer before the root is handed to a SpanSink, so sinks see
// a complete, immutable tree.
type Span struct {
	Name   string        // one of the Span* constants
	Detail string        // subject (constraint, shard index, level, ...)
	Time   uint64        // engine timestamp of the enclosing commit
	Track  int           // timeline lane: 0 = serial path, 1..n = shard n-1
	Start  time.Time     // wall-clock begin
	Dur    time.Duration // wall-clock length
	Ops    int           // operations attributed (nodes, checks, tuples, ...)
	Wait   time.Duration // queue-wait or lock-wait included in Dur's span
	Err    error         // nil on success

	Children []*Span
}

// End sets Dur from Start.
func (s *Span) End() { s.Dur = time.Since(s.Start) }

// Child appends and returns a started child span on the parent's track.
func (s *Span) Child(name, detail string) *Span {
	c := &Span{Name: name, Detail: detail, Time: s.Time, Track: s.Track, Start: time.Now()}
	s.Children = append(s.Children, c)
	return c
}

// Walk visits the span and all descendants, parents first.
func (s *Span) Walk(f func(*Span)) {
	if s == nil {
		return
	}
	f(s)
	for _, c := range s.Children {
		c.Walk(f)
	}
}

// Render writes the span tree as an indented text block, one line per
// span — the shape the slow-commit log dumps.
func (s *Span) Render() string {
	var b strings.Builder
	s.render(&b, 0)
	return b.String()
}

func (s *Span) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	if s.Detail != "" {
		fmt.Fprintf(b, "(%s)", s.Detail)
	}
	fmt.Fprintf(b, " %v", s.Dur)
	if s.Ops > 0 {
		fmt.Fprintf(b, " ops=%d", s.Ops)
	}
	if s.Wait > 0 {
		fmt.Fprintf(b, " wait=%v", s.Wait)
	}
	if s.Track > 0 {
		fmt.Fprintf(b, " track=%d", s.Track)
	}
	if s.Err != nil {
		fmt.Fprintf(b, " err=%v", s.Err)
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		c.render(b, depth+1)
	}
}

// SpanSink receives completed root spans. Implementations must be safe
// for concurrent use; they run on the commit path after the commit's
// timing has been taken, so a slow sink delays the caller but not the
// measurement.
type SpanSink interface {
	ObserveSpan(*Span)
}

// SpanSinkFunc adapts a function to a SpanSink.
type SpanSinkFunc func(*Span)

// ObserveSpan calls f.
func (f SpanSinkFunc) ObserveSpan(s *Span) { f(s) }

// MultiSpanSink fans a span out to several sinks, skipping nils.
func MultiSpanSink(sinks ...SpanSink) SpanSink {
	kept := make([]SpanSink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return multiSink(kept)
}

type multiSink []SpanSink

func (m multiSink) ObserveSpan(s *Span) {
	for _, sink := range m {
		sink.ObserveSpan(s)
	}
}

// SpanRecorder keeps the last cap root spans in a ring buffer, for the
// trace exporter and the daemons' -trace-out flag.
type SpanRecorder struct {
	mu    sync.Mutex
	ring  []*Span
	next  int
	total int
}

// NewSpanRecorder returns a recorder keeping the last capacity roots
// (capacity <= 0 selects 4096).
func NewSpanRecorder(capacity int) *SpanRecorder {
	if capacity <= 0 {
		capacity = 4096
	}
	return &SpanRecorder{ring: make([]*Span, capacity)}
}

// ObserveSpan records one root span.
func (r *SpanRecorder) ObserveSpan(s *Span) {
	r.mu.Lock()
	r.ring[r.next] = s
	r.next = (r.next + 1) % len(r.ring)
	r.total++
	r.mu.Unlock()
}

// Len reports how many roots are currently held (at most the capacity).
func (r *SpanRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.total < len(r.ring) {
		return r.total
	}
	return len(r.ring)
}

// Snapshot returns the held roots oldest-first.
func (r *SpanRecorder) Snapshot() []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	if n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]*Span, 0, n)
	start := 0
	if r.total >= len(r.ring) {
		start = r.next
	}
	for i := 0; i < n; i++ {
		out = append(out, r.ring[(start+i)%len(r.ring)])
	}
	return out
}

// NewSlowSpanLogger returns a sink that renders any root span slower
// than threshold through out (one multi-line string per slow commit) —
// the rticd -slow-commit hook.
func NewSlowSpanLogger(threshold time.Duration, out func(string)) SpanSink {
	return SpanSinkFunc(func(s *Span) {
		if s.Dur >= threshold {
			out(fmt.Sprintf("slow commit t=%d took %v (threshold %v)\n%s", s.Time, s.Dur, threshold, s.Render()))
		}
	})
}

// NewSpanTracerAdapter bridges the span stream onto the PR-1 Tracer
// interface: every span in the tree is flattened to one TraceEvent, so
// existing tracers (slog, test collectors) keep working unchanged. The
// commit span maps to OpStep; other spans keep their span name as the
// event op.
func NewSpanTracerAdapter(t Tracer) SpanSink {
	if t == nil {
		return nil
	}
	return SpanSinkFunc(func(root *Span) {
		root.Walk(func(s *Span) {
			op := s.Name
			if op == SpanCommit {
				op = OpStep
			}
			t.Trace(TraceEvent{Op: op, Detail: s.Detail, Time: s.Time, Duration: s.Dur, Err: s.Err})
		})
	})
}
