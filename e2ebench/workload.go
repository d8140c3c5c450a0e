package main

import (
	"fmt"
	"strings"
	"time"

	"rtic/internal/cdcgen"
	"rtic/internal/check"
	"rtic/internal/core"
	"rtic/internal/spec"
	"rtic/internal/storage"
	"rtic/internal/workload"
)

// benchWorkload is one daemon configuration plus the feed it is driven
// with. commits is the length of one measured round: every round
// replays the same first commits against a fresh daemon, so the journal
// a crash leaves behind — and with it recover_s — has the same size in
// every round and every run.
type benchWorkload struct {
	name    string
	shards  int
	walSync string
	commits int
	history func(seed int64, steps int) workload.History
}

// workloads are all the configurations e2ebench runs. cdc_durable is
// left out of BENCHMARK.json: its fsync-bound figures drift with the
// disk by more than any allowed bound (README.md).
var workloads = []benchWorkload{
	{name: "cdc_durable", shards: 1, walSync: "always", commits: 6000, history: cdcHistory},
	{name: "dense_violations", shards: 1, walSync: "batch", commits: 1200, history: denseHistory},
	{name: "cdc_sharded", shards: 4, walSync: "batch", commits: 12000, history: cdcHistory},
}

func lookupWorkload(name string) (benchWorkload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// daemonArgs are the rticd flags of the workload: a real on-disk WAL,
// everything else (no periodic checkpoints, default parallelism) left
// at its default.
func (w benchWorkload) daemonArgs(specPath, walPath string) []string {
	args := []string{"-spec", specPath, "-listen", "127.0.0.1:0", "-wal", walPath, "-wal-sync", w.walSync}
	if w.shards > 1 {
		args = append(args, "-shards", fmt.Sprint(w.shards))
	}
	return args
}

// cdcHistory is the Table 10 CDC freshness feed: 24 sensors, burst
// trains of 8 every 20 commits, late arrivals up to 3 commits, 2%
// scheduled violations.
func cdcHistory(seed int64, steps int) workload.History {
	h, _ := cdcgen.Generate(cdcgen.Config{
		Steps: steps, Seed: seed, Sensors: 24,
		BurstLen: 8, BurstEvery: 20,
		MaxReorder:    3,
		ViolationRate: 0.02,
	})
	return h
}

// denseHistory is the Table 8 feed: uniform random updates, 4 ops per
// commit over a domain of 16, checked by 32 distinct once-window
// denials, so nearly every commit violates many constraints at once.
func denseHistory(seed int64, steps int) workload.History {
	h := workload.Uniform(workload.UniformConfig{Steps: steps, Seed: seed, OpsPerTx: 4, Domain: 16})
	h.Constraints = nil
	for i := 0; i < 32; i++ {
		h.Constraints = append(h.Constraints, workload.ConstraintSpec{
			Name:   fmt.Sprintf("w%03d", i),
			Source: fmt.Sprintf("p(x) -> not once[0,%d] q(x)", 40+i),
		})
	}
	return h
}

// renderSpec writes a spec file declaring the history's schema and
// constraints, so the daemon sees only generated text.
func renderSpec(h workload.History) (string, error) {
	var b strings.Builder
	for _, name := range h.Schema.Names() {
		arity, err := h.Schema.Arity(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "relation %s/%d\n", name, arity)
	}
	for _, c := range h.Constraints {
		fmt.Fprintf(&b, "constraint %s: %s\n", c.Name, c.Source)
	}
	return b.String(), nil
}

// digest is an order-insensitive fingerprint of one commit's violation
// lines: the line count plus the wrapping sum of per-line hashes. Two
// commits' digests agree exactly when their canonically sorted lines
// agree (up to a 64-bit hash collision), whatever order the daemon
// emitted them in — sharded daemons merge per-shard reports.
type digest struct {
	n   int
	sum uint64
}

func (d *digest) add(line []byte) {
	x := uint64(14695981039346656037) // FNV-1a, inline to stay allocation-free
	for _, c := range line {
		x ^= uint64(c)
		x *= 1099511628211
	}
	// splitmix64 finalizer: spreads FNV's low-entropy high bits so the
	// sum does not cancel on near-identical lines.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	d.n++
	d.sum += x
}

// feed is one workload's generated input and its expected output.
type feed struct {
	spec  string
	lines []string // rendered commits; the last one is the post-recovery probe
	times []uint64
	want  []digest // expected violation lines, per commit

	// Figures gathered while replaying the reference.
	violations int           // over the measured commits
	encode     time.Duration // check.Violation.String over the measured commits
	decode     time.Duration // spec.ParseLogLine over the measured commits
	actions    map[core.SkipAction]int
}

// newFeed renders commits+1 commits of the workload's history at seed
// and replays the rendered text through an in-process core checker to
// get the expected violations of every commit. core is itself pinned to
// the naive engine by internal/difftest.
func newFeed(w benchWorkload, seed int64, commits int) (*feed, error) {
	h := w.history(seed, commits+1)
	text, err := renderSpec(h)
	if err != nil {
		return nil, err
	}
	f := &feed{
		spec:    text,
		lines:   strings.Split(strings.TrimSuffix(cdcgen.Render(h), "\n"), "\n"),
		actions: map[core.SkipAction]int{},
	}
	if len(f.lines) != commits+1 {
		return nil, fmt.Errorf("rendered %d commits, want %d", len(f.lines), commits+1)
	}
	c, err := newChecker(text)
	if err != nil {
		return nil, err
	}
	for i, line := range f.lines {
		t0 := time.Now()
		t, tx, ok, err := spec.ParseLogLine(line)
		d := time.Since(t0)
		if err != nil || !ok {
			return nil, fmt.Errorf("commit %d: rendered line %q does not parse: %v", i, line, err)
		}
		vs, err := c.Step(t, tx)
		if err != nil {
			return nil, fmt.Errorf("reference commit %d: %w", i, err)
		}
		var dg digest
		t0 = time.Now()
		strs := make([]string, len(vs))
		for j, v := range vs {
			strs[j] = v.String()
		}
		e := time.Since(t0)
		for _, s := range strs {
			dg.add([]byte("violation " + s))
		}
		f.times = append(f.times, t)
		f.want = append(f.want, dg)
		if i < commits {
			f.decode += d
			f.encode += e
			f.violations += len(vs)
			for _, si := range c.LastSkips() {
				f.actions[si.Action]++
			}
		}
	}
	return f, nil
}

// newChecker builds an in-process incremental checker from spec text.
func newChecker(text string) (*core.Checker, error) {
	sp, err := spec.ParseSpec(strings.NewReader(text))
	if err != nil {
		return nil, err
	}
	c := core.New(sp.Schema)
	for _, cs := range sp.Constraints {
		con, err := check.Parse(cs.Name, cs.Source, sp.Schema)
		if err != nil {
			return nil, err
		}
		if err := c.AddConstraint(con); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// parseLines parses rendered commits back into transactions.
func parseLines(lines []string) ([]*storage.Transaction, error) {
	txs := make([]*storage.Transaction, len(lines))
	for i, line := range lines {
		_, tx, _, err := spec.ParseLogLine(line)
		if err != nil {
			return nil, fmt.Errorf("commit %d: %w", i, err)
		}
		txs[i] = tx
	}
	return txs, nil
}
