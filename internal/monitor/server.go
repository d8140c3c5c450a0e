package monitor

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"rtic/internal/check"
	"rtic/internal/spec"
)

// maxLineBytes caps one protocol line (a transaction can carry many
// tuples); lines beyond the cap earn an "error" reply instead of a
// silent disconnect.
const maxLineBytes = 1 << 20

// Server speaks a line protocol over any net.Listener, sharing one
// Monitor across all connections:
//
//	client: @100 -fire(7) +hire(7)       -- one transaction per line
//	server: violation <constraint> ...   -- zero or more, then
//	server: ok 1                         -- violation count, or
//	server: error <message>
//
// Additional client commands:
//
//	stats   -> "stats nodes=N entries=E timestamps=T bytes=B"
//	metrics -> the full Prometheus text exposition, terminated by a
//	           line reading "# EOF" (requires an attached observer
//	           with metrics; "error metrics not enabled" otherwise)
//	lint    -> one "diag <severity> <rule> <constraint> <message>" line
//	           per linter finding recorded at spec load ("-" as the
//	           constraint for spec-level findings), then "ok N"
//	quit    -> closes the connection
//
// Each reply is written in one flush: its lines are encoded into the
// connection's reply buffer and reach the socket in one write (see
// replyWriter). Lines up to 1 MiB are accepted; a longer line (or any
// other read error) earns a final "error" reply before the connection
// closes.
// Timestamps are global across clients (the monitor serializes commits),
// so interleaved producers must coordinate their clocks; a stale
// timestamp earns an "error" reply and the connection stays open.
//
// When the shared monitor carries an observer (Monitor.SetObserver),
// the server counts accepted/active connections and error replies.
type Server struct {
	M *Monitor

	maxConns    int           // 0 = unlimited
	idleTimeout time.Duration // 0 = no read deadline

	mu    sync.Mutex
	conns map[net.Conn]bool
}

// ServerOption configures a server at construction time.
type ServerOption func(*Server)

// WithMaxConns caps concurrently open connections (0 = unlimited). A
// connection arriving at the cap receives one "error" reply and is
// closed, so a client can tell a full server from a dead one.
func WithMaxConns(n int) ServerOption {
	return func(s *Server) { s.maxConns = n }
}

// WithIdleTimeout closes connections whose socket stays silent for d
// (0 = never); without it a stalled client pins its goroutine forever.
// The deadline is refreshed on every read, so a slowly streaming client
// is never cut off.
func WithIdleTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.idleTimeout = d }
}

// NewServer wraps a monitor.
func NewServer(m *Monitor, opts ...ServerOption) *Server {
	s := &Server{M: m, conns: make(map[net.Conn]bool)}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// acceptBackoff bounds the retry delays on temporary Accept errors.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = time.Second
)

// Serve accepts connections until the listener is closed. Temporary
// accept failures (EMFILE, ECONNABORTED, ...) are retried with
// exponential backoff instead of killing the serve loop — under fd
// exhaustion the server degrades instead of dying.
func (s *Server) Serve(l net.Listener) error {
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if ne, ok := err.(interface{ Temporary() bool }); ok && ne.Temporary() {
				if backoff == 0 {
					backoff = acceptBackoffMin
				} else if backoff *= 2; backoff > acceptBackoffMax {
					backoff = acceptBackoffMax
				}
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.maxConns > 0 && len(s.conns) >= s.maxConns {
			s.mu.Unlock()
			s.reject(conn)
			continue
		}
		s.conns[conn] = true
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// reject tells a connection the server is at capacity and closes it.
func (s *Server) reject(conn net.Conn) {
	if m, _ := s.M.Observer().Parts(); m != nil {
		m.ConnectionsRejected.Inc()
	}
	go func() {
		conn.SetWriteDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(conn, "error server at connection limit (%d)\n", s.maxConns)
		conn.Close() //rtic:errok tearing down a rejected connection; there is no one to report the error to
	}()
}

// Close terminates every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for conn := range s.conns {
		conn.Close() //rtic:errok server shutdown discards every connection unconditionally
		delete(s.conns, conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	m, _ := s.M.Observer().Parts()
	if m != nil {
		m.Connections.Inc()
		m.ConnectionsActive.Inc()
	}
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close() //rtic:errok session teardown; a close error on a finished connection changes nothing
		if m != nil {
			m.ConnectionsActive.Dec()
		}
	}()
	var src io.Reader = conn
	if s.idleTimeout > 0 {
		src = &idleReader{conn: conn, timeout: s.idleTimeout}
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 4096), maxLineBytes)
	r := &replyWriter{conn: conn}
	replyError := func(format string, args ...interface{}) bool {
		if m != nil {
			m.ProtocolErrors.Inc()
		}
		return r.endf("error "+format, args...)
	}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "--"):
			continue
		case line == "quit":
			return
		case line == "stats":
			st := s.M.Stats()
			if !r.endf("stats nodes=%d entries=%d timestamps=%d bytes=%d",
				st.Nodes, st.Entries, st.Timestamps, st.Bytes) {
				return
			}
		case line == "metrics":
			if m == nil {
				if !replyError("metrics not enabled") {
					return
				}
				continue
			}
			// Render the full exposition to memory first: the conn write
			// below can stall on a slow reader for as long as the idle
			// timeout allows, and nothing shared with the commit path may
			// be held while it does.
			expo := bytes.NewBuffer(r.buf[:0])
			if err := m.Registry().WritePrometheus(expo); err != nil {
				return
			}
			r.buf = expo.Bytes()
			if !r.endf("# EOF") {
				return
			}
		case line == "lint":
			ds := s.M.Diagnostics()
			for _, d := range ds {
				name := d.Constraint
				if name == "" {
					name = "-"
				}
				r.linef("diag %s %s %s %s", d.Severity, d.Rule, name, d.Message)
			}
			if !r.ok(len(ds)) {
				return
			}
		case line == "recent" || strings.HasPrefix(line, "recent "):
			n := 10
			if rest := strings.TrimSpace(strings.TrimPrefix(line, "recent")); rest != "" {
				parsed, err := strconv.Atoi(rest)
				if err != nil || parsed < 1 {
					if !replyError("recent wants a positive count, got %q", rest) {
						return
					}
					continue
				}
				n = parsed
			}
			vs := s.M.Recent(n)
			r.violations(vs)
			if !r.ok(len(vs)) {
				return
			}
		default:
			t, tx, ok, err := spec.ParseLogLine(line)
			if err != nil {
				if !replyError("%v", err) {
					return
				}
				continue
			}
			if !ok {
				continue
			}
			vs, err := s.M.Apply(t, tx)
			if err != nil {
				if !replyError("%v", err) {
					return
				}
				continue
			}
			r.violations(vs)
			if !r.ok(len(vs)) {
				return
			}
		}
	}
	// A scan error (oversized line, mid-line disconnect) would otherwise
	// kill the loop silently; tell the client what happened before the
	// deferred close. bufio reports ErrTooLong for lines over the cap.
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			replyError("line exceeds %d bytes", maxLineBytes)
			discardLine(conn)
			return
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			replyError("idle for more than %s, closing", s.idleTimeout)
			return
		}
		replyError("read: %v", err)
	}
}

// discardLine reads and drops the rest of an oversized line, bounded
// in bytes and time, before the connection closes: closing a socket
// with unread input makes the kernel reset the connection, and a reset
// can destroy the error reply still in flight to the client.
func discardLine(conn net.Conn) {
	// Best effort: without the deadline the drain still ends at the byte
	// cap, at EOF, or when Server.Close closes the connection.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 32<<10)
	for n := 0; n < 4*maxLineBytes; {
		k, err := conn.Read(buf)
		if err != nil || bytes.IndexByte(buf[:k], '\n') >= 0 {
			return
		}
		n += k
	}
}

// replySpill bounds the reply scratch buffer: once an encoded reply
// reaches this many bytes, the encoded part goes to the connection and
// encoding continues into the emptied buffer.
const replySpill = 64 << 10

// replyWriter frames one connection's replies. Every line of a reply —
// the violation or diag lines, then the closing "ok", "error" or
// "# EOF" line — is encoded into one scratch buffer that is reused
// across replies, and the reply reaches the connection in one write
// when it ends (one per replySpill bytes for longer replies). A commit
// with hundreds of violations thus costs one socket write, not one per
// line. A write error is kept: the reply it hit reports failure, and
// the session ends.
type replyWriter struct {
	conn io.Writer
	buf  []byte
	err  error
}

// violations appends one "violation <v>" line per violation.
func (r *replyWriter) violations(vs []check.Violation) {
	for _, v := range vs {
		r.buf = append(r.buf, "violation "...)
		r.buf = v.AppendText(r.buf)
		r.buf = append(r.buf, '\n')
		if len(r.buf) >= replySpill {
			r.write()
		}
	}
}

// linef appends one formatted line.
func (r *replyWriter) linef(format string, args ...interface{}) {
	r.buf = fmt.Appendf(r.buf, format, args...)
	r.buf = append(r.buf, '\n')
}

// ok ends the reply with "ok <n>" and sends it.
func (r *replyWriter) ok(n int) bool {
	r.buf = append(r.buf, "ok "...)
	r.buf = strconv.AppendInt(r.buf, int64(n), 10)
	r.buf = append(r.buf, '\n')
	return r.write()
}

// endf ends the reply with one formatted line and sends it.
func (r *replyWriter) endf(format string, args ...interface{}) bool {
	r.linef(format, args...)
	return r.write()
}

// write sends the encoded lines and empties the buffer; it reports
// whether every write of the session so far succeeded.
func (r *replyWriter) write() bool {
	if r.err == nil {
		_, r.err = r.conn.Write(r.buf)
	}
	r.buf = r.buf[:0]
	return r.err == nil
}

// idleReader refreshes the connection's read deadline before every
// socket read, so the deadline measures idle time, not connection age.
type idleReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r *idleReader) Read(p []byte) (int, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}
