package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// setupProbes is how many bare launches precede each round, so setup_s
// is a median over many start-ups spread across the run. (A launch
// creates and fsyncs the journal, so single start-ups vary with the
// disk.)
const setupProbes = 10

// bench drives one workload's feed against fresh rticd processes.
type bench struct {
	w        benchWorkload
	rticd    string
	dir      string // scratch directory of this run
	specPath string
	f        *feed
	n        int // commits per round
}

// roundResult is one daemon lifetime: launch, load, then either a crash
// and recovery or, traced, a clean shutdown that writes the trace.
type roundResult struct {
	setup   time.Duration
	prod    *production
	scrape  scraping
	cpu     time.Duration // daemon user + system time over its lifetime
	peakRSS int64         // daemon VmHWM after the last ack, bytes
	stats   string        // stats line after the last ack
	journal int64         // journal bytes left by the crash

	recover time.Duration // SIGKILL to the restarted daemon's stats reply
	probe   *production   // the commit sent to the restarted daemon
	lost    string        // non-empty if recovery did not restore the stats line

	trace *traceData // traced rounds only
}

// failed counts this round's failed operations.
func (r *roundResult) failed() int {
	n := r.prod.failed
	if r.probe != nil {
		n += r.probe.failed
	}
	if r.lost != "" {
		n++
	}
	return n
}

func (b *bench) args(dir string, extra ...string) []string {
	return append(b.w.daemonArgs(b.specPath, filepath.Join(dir, "state.wal")), extra...)
}

// probeSetup launches a daemon on an empty directory and stops it
// again, returning the launch-to-accepted-connection time.
func (b *bench) probeSetup(i int) (time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("probe%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	d, conn, setup, err := launch(b.rticd, b.args(dir))
	if err != nil {
		return 0, err
	}
	conn.Close()
	d.stop(syscall.SIGTERM)
	return setup, nil
}

// round runs one daemon lifetime over the first b.n commits of the feed.
func (b *bench) round(i int, traced bool) (*roundResult, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("round%d", i))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	walPath := filepath.Join(dir, "state.wal")
	tracePath := filepath.Join(dir, "trace.json")
	args := b.args(dir)
	if traced {
		args = b.args(dir, "-trace-out", tracePath)
	}

	d, conn, setup, err := launch(b.rticd, args)
	if err != nil {
		return nil, err
	}
	defer d.stop(syscall.SIGKILL)
	defer conn.Close()
	sconn, err := net.Dial("tcp", d.addr)
	if err != nil {
		return nil, fmt.Errorf("dial scraper: %w", err)
	}
	defer sconn.Close()

	pc := newClient(conn)
	// Offsetting each round's dashboard by a fraction of its period
	// spreads the stats samples over the feed instead of repeating the
	// same commits every round.
	scr := startScraper(newClient(sconn), time.Duration(i*37%100)*time.Millisecond)
	prod, err := produce(pc, b.f.lines[:b.n], b.f.want[:b.n])
	scrape := scr.finish()
	if err != nil {
		return nil, err
	}
	if scrape.err != nil {
		return nil, fmt.Errorf("scraper: %w", scrape.err)
	}
	stats, err := pc.stats()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSS()
	if err != nil {
		return nil, err
	}
	r := &roundResult{setup: setup, prod: prod, scrape: scrape, stats: stats, peakRSS: rss}

	if traced {
		r.cpu = d.stop(syscall.SIGTERM)
		if !d.cmd.ProcessState.Success() {
			return nil, fmt.Errorf("traced rticd shut down with %s:\n%s", d.cmd.ProcessState, d.out)
		}
		r.trace, err = readTrace(tracePath)
		return r, err
	}

	// Crash right after the last ack: no shutdown checkpoint is written,
	// so the restart must recover everything from the journal.
	kill := time.Now()
	r.cpu = d.stop(syscall.SIGKILL)
	if r.journal, err = journalBytes(walPath, b.w.shards); err != nil {
		return nil, err
	}
	d2, conn2, _, err := launch(b.rticd, args)
	if err != nil {
		return nil, fmt.Errorf("restart after crash: %w", err)
	}
	defer d2.stop(syscall.SIGKILL)
	defer conn2.Close()
	c2 := newClient(conn2)
	got, err := c2.stats()
	if err != nil {
		return nil, err
	}
	r.recover = time.Since(kill)
	if got != stats {
		r.lost = fmt.Sprintf("recovered %q, want %q", got, stats)
	}
	// One further commit at a later timestamp must be accepted, with the
	// reference's violations.
	if r.probe, err = produce(c2, b.f.lines[b.n:b.n+1], b.f.want[b.n:b.n+1]); err != nil {
		return nil, fmt.Errorf("commit after recovery: %w", err)
	}
	d2.stop(syscall.SIGTERM)
	return r, nil
}
