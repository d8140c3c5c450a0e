package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span names rticd -trace-out writes (internal/obs).
const (
	spanApply   = "monitor.apply"
	spanCommit  = "commit"
	spanShard   = "shard.commit"
	spanAppend  = "wal.append"
	spanFsync   = "wal.fsync"
	phasePrefix = "phase."
)

var phaseNames = []string{"phase.apply", "phase.update", "phase.check", "phase.carry"}

// sumTolerance is how far the child spans may sum from their parent, as
// a share of the parent: ROADMAP item 1's attribution check.
const sumTolerance = 0.10

// traceEvent is one Chrome trace-event slice; times are microseconds.
type traceEvent struct {
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int     `json:"tid"`
	Args struct {
		T      *uint64 `json:"t"`
		WaitUS float64 `json:"wait_us"`
	} `json:"args"`
}

type traceData struct {
	Events []traceEvent `json:"traceEvents"`
}

func readTrace(path string) (*traceData, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var td traceData
	if err := json.Unmarshal(b, &td); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &td, nil
}

// commitSpans gathers the spans of one commit. The daemon emits them as
// separate roots — commit, then the journal's wal.append, then
// monitor.apply — so they are joined by engine timestamp, and the
// timestamp-less WAL spans by lying inside the monitor.apply interval.
type commitSpans struct {
	apply, wait, commit float64
	hasApply, hasCommit bool
	phases              map[string]float64
	shards              []float64
	appends             int
	appendDur, fsyncDur float64
	fsyncs              int
}

// layers is the per-layer breakdown of the complete commits of a trace,
// as means per commit in microseconds unless noted.
type layers struct {
	complete      int
	lockWait      float64
	applySelf     float64
	commit        float64
	phases        map[string]float64
	shardCommit   float64 // slowest shard sub-commit
	shardSkew     float64 // slowest minus fastest shard sub-commit
	walAppend     float64 // append self time, fsync excluded
	walFsync      float64
	fsyncs        float64 // per commit
	residual      float64 // client-side service time minus monitor.apply
	phaseRatio    float64 // Σ phases / Σ commit (unsharded only)
	applyRatio    float64 // Σ (commit + wal.append + lock wait) / Σ monitor.apply
	phaseWithin   int     // commits whose own phase sum is within tolerance
	applyWithin   int     // commits whose own monitor.apply parts are within tolerance
	shardOverruns int     // commits whose slowest shard outlasted the commit span
}

// analyze derives the layer self times from the trace of a run that
// sent times[i] as commit i with the given send/ack times, against a
// daemon with the given shard count. Only commits whose spans are all
// in the trace count: the daemon's recorder keeps the newest 4096 roots.
func analyze(td *traceData, times []uint64, prod *production, shards int) (*layers, error) {
	byT := map[uint64]*commitSpans{}
	get := func(t uint64) *commitSpans {
		cs := byT[t]
		if cs == nil {
			cs = &commitSpans{phases: map[string]float64{}}
			byT[t] = cs
		}
		return cs
	}
	type interval struct {
		start, end float64
		cs         *commitSpans
	}
	var applies []interval
	var wal []traceEvent
	for _, ev := range td.Events {
		switch {
		case ev.Name == spanAppend || ev.Name == spanFsync:
			wal = append(wal, ev)
			continue
		case ev.Args.T == nil:
			continue
		}
		cs := get(*ev.Args.T)
		switch {
		case ev.Name == spanApply:
			cs.apply, cs.wait, cs.hasApply = ev.Dur, ev.Args.WaitUS, true
			applies = append(applies, interval{ev.Ts, ev.Ts + ev.Dur, cs})
		case ev.Name == spanCommit && ev.Tid == 0:
			cs.commit, cs.hasCommit = ev.Dur, true
		case ev.Name == spanShard:
			cs.shards = append(cs.shards, ev.Dur)
		case len(ev.Name) > len(phasePrefix) && ev.Name[:len(phasePrefix)] == phasePrefix && ev.Tid == 0:
			cs.phases[ev.Name] += ev.Dur
		}
	}
	sort.Slice(applies, func(i, j int) bool { return applies[i].start < applies[j].start })
	const slack = 0.01 // µs: float rounding of the exported timestamps
	for _, ev := range wal {
		k := sort.Search(len(applies), func(i int) bool { return applies[i].start > ev.Ts+slack }) - 1
		if k < 0 || ev.Ts+ev.Dur > applies[k].end+slack {
			continue
		}
		cs := applies[k].cs
		if ev.Name == spanAppend {
			cs.appends++
			cs.appendDur += ev.Dur
		} else {
			cs.fsyncs++
			cs.fsyncDur += ev.Dur
		}
	}

	l := &layers{phases: map[string]float64{}}
	var sumApply, sumParts, sumCommit, sumPhases float64
	for i, t := range times {
		cs := byT[t]
		if cs == nil || !cs.hasApply || !cs.hasCommit || cs.appends != shards {
			continue
		}
		if shards > 1 && len(cs.shards) != shards || shards == 1 && len(cs.phases) != len(phaseNames) {
			continue
		}
		l.complete++
		var phases float64
		for _, d := range cs.phases {
			phases += d
		}
		if shards == 1 && within(phases/cs.commit) {
			l.phaseWithin++
		}
		if within((cs.commit + cs.appendDur + cs.wait) / cs.apply) {
			l.applyWithin++
		}
		l.lockWait += cs.wait
		l.applySelf += cs.apply - cs.wait - cs.commit - cs.appendDur
		l.commit += cs.commit
		for name, d := range cs.phases {
			l.phases[name] += d
		}
		sumPhases += phases
		if shards > 1 {
			lo, hi := cs.shards[0], cs.shards[0]
			for _, d := range cs.shards {
				lo, hi = min(lo, d), max(hi, d)
			}
			l.shardCommit += hi
			l.shardSkew += hi - lo
			if hi > cs.commit+slack {
				l.shardOverruns++
			}
		}
		l.walAppend += cs.appendDur - cs.fsyncDur
		l.walFsync += cs.fsyncDur
		l.fsyncs += float64(cs.fsyncs)
		// The client sees the daemon busy on commit i from its send, or
		// from the previous ack if the commit was queued behind it.
		begin := prod.sent[i]
		if i > 0 && prod.acked[i-1] > begin {
			begin = prod.acked[i-1]
		}
		l.residual += us(prod.acked[i]-begin) - cs.apply
		sumApply += cs.apply
		sumParts += cs.commit + cs.appendDur + cs.wait
		sumCommit += cs.commit
	}
	if l.complete == 0 {
		return nil, fmt.Errorf("trace holds no complete commit (%d events)", len(td.Events))
	}
	n := float64(l.complete)
	for _, p := range []*float64{&l.lockWait, &l.applySelf, &l.commit, &l.shardCommit, &l.shardSkew,
		&l.walAppend, &l.walFsync, &l.fsyncs, &l.residual} {
		*p /= n
	}
	for _, name := range phaseNames {
		l.phases[name] /= n
	}
	l.applyRatio = sumParts / sumApply
	if shards == 1 {
		l.phaseRatio = sumPhases / sumCommit
	}
	return l, nil
}

// check applies the span-sum checks, summed over the complete commits:
// phases against commit (unsharded: the sharded commit span holds
// concurrent shard sub-commits instead), commit + wal.append + lock
// wait against monitor.apply, and no shard sub-commit outlasting its
// commit.
func (l *layers) check(shards int) error {
	if shards == 1 && !within(l.phaseRatio) {
		return fmt.Errorf("phase spans sum to %.3f of commit, outside ±%.0f%%", l.phaseRatio, sumTolerance*100)
	}
	if !within(l.applyRatio) {
		return fmt.Errorf("commit + wal.append + lock wait sum to %.3f of monitor.apply, outside ±%.0f%%", l.applyRatio, sumTolerance*100)
	}
	if l.shardOverruns > 0 {
		return fmt.Errorf("%d commits have a shard sub-commit longer than the commit", l.shardOverruns)
	}
	return nil
}

func within(ratio float64) bool { return ratio >= 1-sumTolerance && ratio <= 1+sumTolerance }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
