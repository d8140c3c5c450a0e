package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// startTimeout bounds how long a launch (including WAL recovery) may take
// before the daemon counts as hung.
const startTimeout = 60 * time.Second

var listenLine = regexp.MustCompile(`rticd listening on (\S+) `)

// daemon is one running rticd child process.
type daemon struct {
	cmd    *exec.Cmd
	out    *watchBuffer
	addr   string
	exited chan struct{} // closed once the process has been reaped
}

// watchBuffer collects the daemon's output and reports the listen
// address from its startup line.
type watchBuffer struct {
	mu    sync.Mutex
	b     bytes.Buffer
	ready chan string
	found bool
}

func (w *watchBuffer) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.b.Write(p)
	if !w.found {
		if m := listenLine.FindSubmatch(w.b.Bytes()); m != nil {
			w.found = true
			w.ready <- string(m[1])
		}
	}
	return len(p), nil
}

func (w *watchBuffer) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.String()
}

// launch starts rticd and dials it. The returned duration runs from the
// process start to the first accepted connection, which the caller
// owns.
func launch(bin string, args []string) (*daemon, net.Conn, time.Duration, error) {
	out := &watchBuffer{ready: make(chan string, 1)}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = out
	cmd.Stderr = out
	// A daemon must not outlive the benchmark, even if the benchmark is
	// killed before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, nil, 0, fmt.Errorf("start rticd: %w", err)
	}
	d := &daemon{cmd: cmd, out: out, exited: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed daemon exits non-zero by design; ProcessState carries the outcome
		close(d.exited)
	}()
	select {
	case d.addr = <-out.ready:
	case <-d.exited:
		return nil, nil, 0, fmt.Errorf("rticd exited during startup: %s\n%s", cmd.ProcessState, out)
	case <-time.After(startTimeout):
		d.stop(syscall.SIGKILL)
		return nil, nil, 0, fmt.Errorf("rticd did not listen within %v:\n%s", startTimeout, out)
	}
	conn, err := net.Dial("tcp", d.addr)
	setup := time.Since(t0)
	if err != nil {
		d.stop(syscall.SIGKILL)
		return nil, nil, 0, fmt.Errorf("dial rticd: %w", err)
	}
	return d, conn, setup, nil
}

// stop signals the daemon, waits until it has been reaped and returns
// the CPU time (user + system) the kernel accounted to it.
func (d *daemon) stop(sig syscall.Signal) time.Duration {
	d.cmd.Process.Signal(sig) //nolint:errcheck // fails only if the process already exited, which the wait below covers
	<-d.exited
	return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
}

// peakRSS reads the running daemon's VmHWM in bytes. (The rusage of a
// reaped child is no substitute: its maxrss also counts the launching
// process's memory, shared with the child until exec.)
func (d *daemon) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%d kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// client is one line-protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

func newClient(conn net.Conn) *client {
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 256<<10), w: bufio.NewWriterSize(conn, 64<<10)}
}

// send writes one request line and flushes it.
func (c *client) send(line string) error {
	c.w.WriteString(line)
	c.w.WriteByte('\n')
	return c.w.Flush()
}

// line reads one reply line without its newline. The slice is valid
// until the next read.
func (c *client) line() ([]byte, error) {
	b, err := c.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	return b[:len(b)-1], nil
}

// stats asks for the auxiliary-state summary line.
func (c *client) stats() (string, error) {
	if err := c.send("stats"); err != nil {
		return "", err
	}
	b, err := c.line()
	if err != nil {
		return "", err
	}
	if !bytes.HasPrefix(b, []byte("stats ")) {
		return "", fmt.Errorf("stats: unexpected reply %q", b)
	}
	return string(b), nil
}

// statField extracts one numeric field from a stats line.
func statField(line, key string) (int64, error) {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			var n int64
			_, err := fmt.Sscan(v, &n)
			return n, err
		}
	}
	return 0, fmt.Errorf("stats line %q has no %s field", line, key)
}

// journalBytes sums the sizes of the journal files under walPath: the
// file itself, or one file per shard at walPath.0 .. walPath.N-1.
func journalBytes(walPath string, shards int) (int64, error) {
	paths := []string{walPath}
	if shards > 1 {
		paths = paths[:0]
		for i := 0; i < shards; i++ {
			paths = append(paths, fmt.Sprintf("%s.%d", walPath, i))
		}
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
