package monitor

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"

	"rtic/internal/schema"
	"rtic/internal/workload"
)

// replyFanout is the number of violations every commit of the reply
// fixture reports.
const replyFanout = 400

// writeCounter counts the Write calls that reach the server's side of
// the connection.
type writeCounter struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeCounter) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// replyFixture serves a monitor in which every commit after the first
// two reports replyFanout violations (p(x) holds for replyFanout values
// that q once held, with an unbounded window) over an in-memory pipe.
// It returns the server's counted conn and the client's ends.
func replyFixture(tb testing.TB) (*Monitor, *writeCounter, net.Conn, *bufio.Reader) {
	tb.Helper()
	s := schema.NewBuilder().Relation("p", 1).Relation("q", 1).MustBuild()
	m, err := New(s, []workload.ConstraintSpec{{Name: "stale", Source: "p(x) -> not once q(x)"}})
	if err != nil {
		tb.Fatal(err)
	}
	srvConn, cliConn := net.Pipe()
	wc := &writeCounter{Conn: srvConn}
	go NewServer(m).handle(wc)
	tb.Cleanup(func() { cliConn.Close() })
	r := bufio.NewReader(cliConn)
	var q, p strings.Builder
	for i := 0; i < replyFanout; i++ {
		fmt.Fprintf(&q, " +q(%d)", i)
		fmt.Fprintf(&p, " +p(%d)", i)
	}
	for i, line := range []string{"@0" + q.String(), "@1" + p.String()} {
		lines, _ := roundTrip(tb, cliConn, r, line)
		if want := fmt.Sprintf("ok %d", i*replyFanout); lines[len(lines)-1] != want {
			tb.Fatalf("priming reply ends %q, want %q", lines[len(lines)-1], want)
		}
	}
	return m, wc, cliConn, r
}

// roundTrip sends one command and reads its reply through the final
// "ok"/"error" line, returning the lines and the reply's byte count.
func roundTrip(tb testing.TB, conn net.Conn, r *bufio.Reader, cmd string) ([]string, int) {
	tb.Helper()
	if _, err := conn.Write([]byte(cmd + "\n")); err != nil {
		tb.Fatal(err)
	}
	var lines []string
	n := 0
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			tb.Fatal(err)
		}
		n += len(line)
		lines = append(lines, strings.TrimSuffix(line, "\n"))
		if strings.HasPrefix(line, "ok ") || strings.HasPrefix(line, "error ") {
			return lines, n
		}
	}
}

// TestServerReplyWriteCount pins the reply framing: a commit with
// hundreds of violations reaches the connection in a handful of
// writes, not one per line, and its lines keep the order the monitor
// published the violations in. The recent reply is held to the same
// bound and order.
func TestServerReplyWriteCount(t *testing.T) {
	m, wc, conn, r := replyFixture(t)
	published, cancel := m.Subscribe(replyFanout)
	defer cancel()
	send := func(cmd string) []string {
		t.Helper()
		before := wc.writes.Load()
		lines, n := roundTrip(t, conn, r, cmd)
		writes := wc.writes.Load() - before
		if bound := int64((n+replySpill-1)/replySpill + 1); writes > bound {
			t.Errorf("%q: %d-byte reply took %d writes, want at most %d", cmd, n, writes, bound)
		}
		return lines
	}
	expect := func(cmd string, got, want []string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%q: %d reply lines, want %d", cmd, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q: reply line %d = %q, want %q", cmd, i, got[i], want[i])
			}
		}
	}

	// The monitor publishes a commit's violations before replying, so
	// the subscription holds all of them once the reply has been read.
	got := send("@2")
	want := make([]string, 0, replyFanout+1)
	for i := 0; i < replyFanout; i++ {
		want = append(want, "violation "+(<-published).String())
	}
	expect("@2", got, append(want, fmt.Sprintf("ok %d", replyFanout)))

	got = send(fmt.Sprintf("recent %d", replyFanout))
	recent := m.Recent(replyFanout)
	want = want[:0]
	for _, v := range recent {
		want = append(want, "violation "+v.String())
	}
	expect("recent", got, append(want, fmt.Sprintf("ok %d", len(recent))))
}

// BenchmarkServerReply times one commit's round trip through the
// server — parse, apply, encode replyFanout violation lines and write
// the reply — over an in-memory pipe.
func BenchmarkServerReply(b *testing.B) {
	_, _, conn, r := replyFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines, n := roundTrip(b, conn, r, fmt.Sprintf("@%d", i+2))
		if len(lines) != replyFanout+1 {
			b.Fatalf("reply has %d lines, want %d", len(lines), replyFanout+1)
		}
		b.SetBytes(int64(n))
	}
}
