// Command e2ebench is the repository's end-to-end benchmark. It drives
// a real rticd child process over the TCP line protocol — real flags, a
// real on-disk WAL — with a closed-loop producer holding 16 commits in
// flight and a dashboard connection scraping metrics and stats at 10
// requests/s, checks every reply against an in-process reference, and
// crashes and recovers the daemon in every round. See README.md.
//
// Usage (from the repository root, after building rticd):
//
//	e2ebench -rticd path/to/rticd -workload dense_violations -seed 1 -seconds 45 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end set with -trace 0,
// the per-layer set (from a traced daemon run) with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"rtic/internal/core"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	rticd    string
	workdir  string
	commits  int // commits per round; 0 takes the workload's (tests shrink it)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// The generator shares the machine with the daemon it measures.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	var o options
	flag.StringVar(&o.workload, "workload", "dense_violations", "workload: dense_violations, cdc_sharded or cdc_durable")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed renders the same feed")
	flag.IntVar(&o.seconds, "seconds", 10, "measure rounds until this many seconds have passed (at least one round)")
	flag.IntVar(&o.trace, "trace", 0, "1: report per-layer metrics from a traced run instead of the end-to-end set")
	flag.StringVar(&o.rticd, "rticd", ".bench_build/bin/rticd", "rticd binary to drive")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/runs", "scratch directory for specs, journals and traces")
	flag.Parse()

	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(o options) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace wants 0 or 1, got %d", o.trace)
	}
	n := w.commits
	if o.commits > 0 {
		n = o.commits
	}
	f, err := newFeed(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	rticd, err := filepath.Abs(o.rticd)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: w, rticd: rticd, dir: dir, specPath: filepath.Join(dir, "spec.rtic"), f: f, n: n}
	if err := os.WriteFile(b.specPath, []byte(f.spec), 0o644); err != nil {
		return nil, err
	}
	if o.trace == 1 {
		return b.perLayer()
	}
	return b.endToEnd(time.Duration(o.seconds) * time.Second)
}

// endToEnd measures rounds until the budget is spent and reports the
// end-to-end metrics as medians over rounds, or over all samples of the
// run where a round takes several.
func (b *bench) endToEnd(budget time.Duration) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups, rate, p50, p99, cpu, state, finals, disk, recov, rss, scrapes []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < budget; i++ {
		for j := 0; j < setupProbes; j++ {
			s, err := b.probeSetup(j)
			if err != nil {
				return nil, err
			}
			setups = append(setups, s.Seconds())
		}
		r, err := b.round(i, false)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		b.tally(res, r)
		final, err := statField(r.stats, "bytes")
		if err != nil {
			return nil, err
		}
		finals = append(finals, float64(final))
		acks := make([]float64, len(r.prod.acked))
		for j := range acks {
			acks[j] = ms(r.prod.acked[j] - r.prod.sent[j])
		}
		sort.Float64s(acks)
		setups = append(setups, r.setup.Seconds())
		rate = append(rate, float64(b.n)/r.prod.elapsed().Seconds())
		p50 = append(p50, quantile(acks, 0.50))
		p99 = append(p99, quantile(acks, 0.99))
		cpu = append(cpu, us(r.cpu)/float64(b.n))
		disk = append(disk, float64(r.journal)/float64(b.n))
		recov = append(recov, r.recover.Seconds())
		rss = append(rss, float64(r.peakRSS)/(1<<20))
		for _, sb := range r.scrape.stateBytes {
			state = append(state, float64(sb))
		}
		for _, d := range r.scrape.metricsRTT {
			scrapes = append(scrapes, ms(d))
		}
		fmt.Fprintf(os.Stderr, "round %d: %.0f commits/s, ack p50 %.3f p99 %.3f ms, cpu %.1f µs/commit, rss %.1f MB, recover %.3fs, %s\n",
			i, rate[i], p50[i], p99[i], cpu[i], rss[i], recov[i], r.stats)
	}
	// The ack p99, the scrape median and the recovery time are reported
	// here, not as metrics, because they vary from run to run by more
	// than any bound could allow (see README.md).
	fmt.Fprintf(os.Stderr, "%s: %d rounds of %d commits; ack p50 %.3f ms, p99 %.3f ms (per-round percentiles over %d samples each, median over rounds); scrape p50 %.3f ms over %d metrics requests; recover %.3f s (median of %d); %d launches, %d stats samples\n",
		b.w.name, len(rate), b.n, median(p50), median(p99), b.n, median(scrapes), len(scrapes), median(recov), len(recov), len(setups), len(state))
	if len(state) == 0 {
		// Rounds too short for the dashboard's first stats request.
		state = finals
	}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("commits_per_s", "1/s", median(rate))
	put("ack_p50_ms", "ms", median(p50))
	put("cpu_us_per_commit", "us", median(cpu))
	put("state_bytes", "bytes", median(state))
	put("disk_bytes_per_commit", "bytes", median(disk))
	put("setup_s", "s", median(setups))
	put("peak_rss_mb", "MB", median(rss))
	return res, nil
}

// perLayer runs one untraced round (the crash check and the tracing
// baseline) and one traced round, and reports the per-layer metrics:
// span self times from the daemon's Chrome trace, the generator's own
// send/ack times, and in-process timings of the public functions each
// layer is built on.
func (b *bench) perLayer() (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	base, err := b.round(0, false)
	if err != nil {
		return nil, fmt.Errorf("untraced round: %w", err)
	}
	b.tally(res, base)
	tr, err := b.round(1, true)
	if err != nil {
		return nil, fmt.Errorf("traced round: %w", err)
	}
	b.tally(res, tr)
	l, err := analyze(tr.trace, b.f.times[:b.n], tr.prod, b.w.shards)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d complete commits in the trace; phases/commit %.3f (%d commits within ±%.0f%%), (commit+wal+wait)/monitor.apply %.3f (%d within)\n",
		b.w.name, l.complete, l.phaseRatio, l.phaseWithin, sumTolerance*100, l.applyRatio, l.applyWithin)
	// A failed span sum means the daemon's spans leave part of a commit
	// unattributed; it says nothing about the daemon's outputs, so it is
	// reported here and in the attributed-share metrics, not as a failed
	// operation.
	if err := l.check(b.w.shards); err != nil {
		fmt.Fprintln(os.Stderr, "span-sum check FAILED:", err)
	}
	allocs, err := replayAllocs(b.f, b.n)
	if err != nil {
		return nil, err
	}
	entries, err := statField(tr.stats, "entries")
	if err != nil {
		return nil, err
	}

	n := float64(b.n)
	decisions := 0
	for _, c := range b.f.actions {
		decisions += c
	}
	share := func(a core.SkipAction) float64 { return float64(b.f.actions[a]) / float64(max(decisions, 1)) }
	baseRate := n / base.prod.elapsed().Seconds()
	traceRate := n / tr.prod.elapsed().Seconds()
	var scrapeBytes []float64
	for _, r := range []*roundResult{base, tr} {
		for _, s := range r.scrape.metricsBytes {
			scrapeBytes = append(scrapeBytes, float64(s))
		}
	}

	put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
	put("protocol.decode_us", "us", us(b.f.decode)/n)
	put("protocol.encode_us", "us", us(b.f.encode)/n)
	put("protocol.reply_bytes_per_commit", "bytes", float64(tr.prod.replyBytes)/n)
	put("protocol.residual_us", "us", l.residual)
	put("monitor.lock_wait_us", "us", l.lockWait)
	put("monitor.apply_self_us", "us", l.applySelf)
	put("core.commit_us", "us", l.commit)
	put("core.apply_us", "us", l.phases["phase.apply"])
	put("core.update_us", "us", l.phases["phase.update"])
	put("core.check_us", "us", l.phases["phase.check"])
	put("core.carry_us", "us", l.phases["phase.carry"])
	put("core.allocs_per_commit", "count", allocs)
	put("core.skip_share", "share", share(core.ActionSkipped))
	put("core.seed_share", "share", share(core.ActionSeeded))
	put("core.planned_share", "share", share(core.ActionPlanned))
	put("core.treewalk_share", "share", share(core.ActionTreeWalk))
	put("core.violations_per_commit", "count", float64(b.f.violations)/n)
	put("core.aux_entries", "count", float64(entries))
	put("shard.commit_us", "us", l.shardCommit)
	put("shard.skew_us", "us", l.shardSkew)
	put("wal.append_us", "us", l.walAppend)
	put("wal.fsync_us", "us", l.walFsync)
	put("wal.fsyncs_per_commit", "count", l.fsyncs)
	put("recover.replay_us_per_commit", "us", us(base.recover)/n)
	put("obs.scrape_bytes", "bytes", median(scrapeBytes))
	put("trace.overhead_share", "share", 1-traceRate/baseRate)
	put("trace.complete_commits", "count", float64(l.complete))
	put("trace.phase_attributed_share", "share", l.phaseRatio)
	put("trace.apply_attributed_share", "share", l.applyRatio)
	return res, nil
}

// tally adds a round's operations to the result: every commit sent, and
// every error reply, output mismatch or failed recovery as a failure.
func (b *bench) tally(res *result, r *roundResult) {
	res.Attempted += len(r.prod.sent)
	if r.probe != nil {
		res.Attempted += len(r.probe.sent)
	}
	if f := r.failed(); f > 0 {
		res.Failed += f
		res.Correct = false
		for _, msg := range []string{r.prod.firstFail, r.lost} {
			if msg != "" {
				fmt.Fprintln(os.Stderr, "failed:", msg)
			}
		}
		if r.probe != nil && r.probe.firstFail != "" {
			fmt.Fprintln(os.Stderr, "failed after recovery:", r.probe.firstFail)
		}
	}
}

// replayAllocs replays the first n commits through a fresh in-process
// checker and returns the heap allocations per commit.
func replayAllocs(f *feed, n int) (float64, error) {
	c, err := newChecker(f.spec)
	if err != nil {
		return 0, err
	}
	txs, err := parseLines(f.lines[:n])
	if err != nil {
		return 0, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, tx := range txs {
		if _, err := c.Step(f.times[i], tx); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile reads the q-quantile of sorted xs, interpolating linearly.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
