package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"
)

const (
	// window is the producer's pipeline depth: commits sent and not yet
	// acknowledged. Timestamps must rise across all connections, so load
	// comes from depth on one connection rather than more producers.
	window = 16
	// scrapeEvery paces the dashboard connection at 10 requests/s.
	scrapeEvery = 100 * time.Millisecond
)

// production is what the producer observed over one round.
type production struct {
	sent, acked []time.Duration // per commit, since the first send
	replyBytes  int64
	failed      int    // error replies plus output mismatches
	firstFail   string // description of the first failure
}

func (p *production) fail(format string, args ...any) {
	if p.failed == 0 {
		p.firstFail = fmt.Sprintf(format, args...)
	}
	p.failed++
}

// elapsed is the time from the first send to the last acknowledgement.
func (p *production) elapsed() time.Duration { return p.acked[len(p.acked)-1] }

// produce sends lines as a closed loop holding window commits in flight,
// and checks every commit's violation lines against want.
func produce(c *client, lines []string, want []digest) (*production, error) {
	n := len(lines)
	p := &production{sent: make([]time.Duration, n), acked: make([]time.Duration, n)}
	start := time.Now()
	next := 0
	queue := func() {
		p.sent[next] = time.Since(start)
		c.w.WriteString(lines[next])
		c.w.WriteByte('\n')
		next++
	}
	for next < n && next < window {
		queue()
	}
	if err := c.w.Flush(); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	var got digest
	for done := 0; done < n; {
		b, err := c.line()
		if err != nil {
			return nil, fmt.Errorf("commit %d: %w", done, err)
		}
		p.replyBytes += int64(len(b)) + 1
		switch {
		case bytes.HasPrefix(b, []byte("violation ")):
			got.add(b)
			continue
		case bytes.HasPrefix(b, []byte("ok ")):
			count, err := strconv.Atoi(string(b[3:]))
			switch {
			case err != nil || count != got.n:
				p.fail("commit %d: reply %q after %d violation lines", done, b, got.n)
			case got != want[done]:
				p.fail("commit %d (%s): %d violation lines differ from the reference's %d",
					done, lines[done], got.n, want[done].n)
			}
		case bytes.HasPrefix(b, []byte("error ")):
			p.fail("commit %d (%s): %s", done, lines[done], b)
		default:
			return nil, fmt.Errorf("commit %d: unexpected reply %q", done, b)
		}
		p.acked[done] = time.Since(start)
		got = digest{}
		done++
		if next < n {
			queue()
			if err := c.w.Flush(); err != nil {
				return nil, fmt.Errorf("send: %w", err)
			}
		}
	}
	return p, nil
}

// scraping is what the dashboard connection observed.
type scraping struct {
	metricsRTT   []time.Duration
	metricsBytes []int
	stateBytes   []int64 // bytes= of every stats reply
	err          error
}

// scraper plays an operator dashboard on its own connection,
// alternating metrics and stats requests at a fixed rate until stopped.
type scraper struct {
	stop chan struct{}
	done chan scraping
}

// startScraper starts the dashboard; its first request goes out after
// phase, so rounds replaying the same feed sample different commits.
func startScraper(c *client, phase time.Duration) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan scraping, 1)}
	go func() { s.done <- scrapeLoop(c, phase, s.stop) }()
	return s
}

// finish stops the scraper and waits for its figures.
func (s *scraper) finish() scraping {
	close(s.stop)
	return <-s.done
}

func scrapeLoop(c *client, phase time.Duration, stop <-chan struct{}) (out scraping) {
	delay := time.NewTimer(phase)
	defer delay.Stop()
	select {
	case <-stop:
		return out
	case <-delay.C:
	}
	tick := time.NewTicker(scrapeEvery)
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return out
		case <-tick.C:
		}
		if i%2 == 1 {
			line, err := c.stats()
			if err != nil {
				out.err = err
				return out
			}
			bytes, err := statField(line, "bytes")
			if err != nil {
				out.err = err
				return out
			}
			out.stateBytes = append(out.stateBytes, bytes)
			continue
		}
		t0 := time.Now()
		if err := c.send("metrics"); err != nil {
			out.err = err
			return out
		}
		size := 0
		for {
			b, err := c.r.ReadSlice('\n')
			size += len(b)
			if err == nil && string(b) == "# EOF\n" {
				break
			}
			if err != nil && !errors.Is(err, bufio.ErrBufferFull) {
				out.err = fmt.Errorf("metrics: %w", err)
				return out
			}
		}
		out.metricsRTT = append(out.metricsRTT, time.Since(t0))
		out.metricsBytes = append(out.metricsBytes, size)
	}
}
