package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"rtic/internal/check"
	"rtic/internal/naive"
)

// Deadline-driven maintenance: [0,b] and [a,∞) since/once nodes keep one
// timestamp per entry, leave ψ-runs open, and visit only the entries
// ψ's delta touches plus those that fall due. The tests below hold that
// machinery against the naive engine on sparse timelines, across
// snapshots taken mid-run, and against an independent count of the
// entries a commit can change.

// sparseConstraints covers each maintenance mode: deadline-driven [0,b]
// and [a,∞) windows, a bounded a > 0 window (every entry visited), and
// since nodes whose chains break.
var sparseConstraints = []string{
	"p(x) -> not once[0,3] q(x)",
	"p(x) -> not once[2,5] q(x)",
	"p(x) -> not once[3,*] q(x)",
	"q(x) -> not (p(x) since[0,4] r(x, 1))",
	"q(x) -> not (p(x) since[2,*] r(x, 1))",
	"r(x, y) -> not (p(x) since[1,3] q(x))",
}

// TestSparseTimestampsMatchNaive replays histories whose commit gaps
// often exceed b−a (gaps of 1..9 against windows three wide), so entries
// fall due between commits and whole windows pass without a commit. The
// incremental checker must agree with the naive engine and pass its
// invariants at every commit.
func TestSparseTimestampsMatchNaive(t *testing.T) {
	s := equivSchema()
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		inc, ref := New(s), naive.New(s)
		for i, src := range sparseConstraints {
			name := string(rune('a' + i))
			for _, add := range []func(*check.Constraint) error{inc.AddConstraint, ref.AddConstraint} {
				con, err := check.Parse(name, src, s)
				if err != nil {
					t.Fatal(err)
				}
				if err := add(con); err != nil {
					t.Fatal(err)
				}
			}
		}
		tm := uint64(0)
		for i := 0; i < 80; i++ {
			tm += uint64(1 + r.Intn(9))
			tx := randomTx(r, 4)
			got, err := inc.Step(tm, tx.Clone())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
			want, err := ref.Step(tm, tx)
			if err != nil {
				t.Fatalf("seed %d step %d: naive: %v", seed, i, err)
			}
			if cg, cw := canon(got), canon(want); !sameCanon(cg, cw) {
				t.Fatalf("seed %d step %d (t=%d, tx=%s):\nincremental: %v\nnaive:       %v", seed, i, tm, tx, cg, cw)
			}
			if err := inc.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
	}
}

// nodeStates renders every since/once node's entries as a snapshot
// would (open runs resolved), for comparing two checkers' aux state.
func nodeStates(t *testing.T, c *Checker) []snapNode {
	t.Helper()
	var out []snapNode
	for _, n := range c.nodes {
		sn, err := encodeNode(n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sn)
	}
	return out
}

func openRuns(c *Checker) int {
	n := 0
	for _, node := range c.nodes {
		if s, ok := node.(*sinceNode); ok {
			for _, e := range s.list {
				if e.open {
					n++
				}
			}
		}
	}
	return n
}

// TestSnapshotMidOpenRun saves checkpoints while ψ-runs are open and
// requires the restored checker to continue exactly as the uninterrupted
// one: same violations, same resolved aux state, same storage totals.
func TestSnapshotMidOpenRun(t *testing.T) {
	s := equivSchema()
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		orig := New(s)
		for i, src := range sparseConstraints {
			addConstraint(t, orig, s, string(rune('a'+i)), src)
		}
		tm := uint64(0)
		step := func(cs ...*Checker) {
			tm += uint64(1 + r.Intn(4))
			tx := randomTx(r, 3)
			var first []string
			for i, c := range cs {
				vs := mustStep(t, c, tm, tx.Clone())
				if i == 0 {
					first = canon(vs)
				} else if got := canon(vs); !sameCanon(got, first) {
					t.Fatalf("seed %d t=%d: restored reports %v, uninterrupted %v", seed, tm, got, first)
				}
			}
		}
		for i := 0; i < 30; i++ {
			step(orig)
		}
		if openRuns(orig) == 0 {
			t.Fatalf("seed %d: no open run at the checkpoint", seed)
		}
		restored := snapshotRoundTrip(t, orig, s)
		if err := restored.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: restored: %v", seed, err)
		}
		if !reflect.DeepEqual(nodeStates(t, restored), nodeStates(t, orig)) || !reflect.DeepEqual(restored.Totals(), orig.Totals()) {
			t.Fatalf("seed %d: restored aux state differs from the checkpointed one", seed)
		}
		for i := 0; i < 30; i++ {
			step(orig, restored)
			if !reflect.DeepEqual(nodeStates(t, restored), nodeStates(t, orig)) {
				t.Fatalf("seed %d t=%d: aux state diverged after restore", seed, tm)
			}
			if !reflect.DeepEqual(restored.Totals(), orig.Totals()) {
				t.Fatalf("seed %d t=%d: totals %+v, uninterrupted %+v", seed, tm, restored.Totals(), orig.Totals())
			}
		}
	}
}

// TestRestorePrunesLongTimestampLists restores a snapshot whose entries
// carry many timestamps per binding — as an unpruned checker, or one
// built under the older keep-every-age-up-to-b rule, writes them — and
// requires the restored checker to hold the current bounded encoding at
// once and to go on answering as the writer does.
func TestRestorePrunesLongTimestampLists(t *testing.T) {
	s := equivSchema()
	srcs := []string{"p(x) -> not once[0,6] q(x)", "p(x) -> not once[2,8] q(x)", "p(x) -> not once[1,*] q(x)"}
	r := rand.New(rand.NewSource(7))
	old := New(s)
	if err := old.DisablePruning(); err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		addConstraint(t, old, s, string(rune('a'+i)), src)
	}
	tm := uint64(0)
	for i := 0; i < 40; i++ {
		tm++
		if _, err := old.Step(tm, ins("q", r.Int63n(3))); err != nil {
			t.Fatal(err)
		}
	}
	if st := old.Totals(); st.Timestamps <= 3*st.Entries {
		t.Fatalf("unpruned writer kept only %d timestamps for %d entries", st.Timestamps, st.Entries)
	}
	restored := snapshotRoundTrip(t, old, s)
	if err := restored.CheckInvariants(); err != nil {
		t.Fatalf("restored checker: %v", err)
	}
	for _, n := range restored.nodes {
		sn := n.(*sinceNode)
		for _, e := range sn.list {
			if max := int(sn.iv.Lo) + 1; len(e.times) > max {
				t.Fatalf("%s: entry %s restored with %d timestamps, want at most %d",
					sn.node.String(), e.row, len(e.times), max)
			}
		}
	}
	for i := 0; i < 40; i++ {
		tm += uint64(1 + r.Intn(3))
		tx := randomTx(r, 3)
		want, err := old.Step(tm, tx.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if got := mustStep(t, restored, tm, tx); !sameCanon(canon(got), canon(want)) {
			t.Fatalf("t=%d: restored reports %v, writer %v", tm, canon(got), canon(want))
		}
	}
}

// entryView is what a commit can know about an entry before it runs.
type entryView struct {
	inRB bool
	due  uint64 // 0: not parked
}

// TestDenseFeedVisitsOnlyTouchedAndDue counts, per commit on the dense
// feed, the recurrence visits of every once node against a bound
// computed independently from the node's state before and after the
// commit: the entries whose ψ membership flipped or that were created
// (delta-touched), plus the entries parked under a due time the commit
// reached. A full sweep would visit every entry, ~440 per commit here.
func TestDenseFeedVisitsOnlyTouchedAndDue(t *testing.T) {
	h := denseHistory(200)
	c := newFromHistory(t, h)
	var visits, bound, entries int
	for i, st := range h.Steps {
		before := map[*sinceNode]map[string]entryView{}
		for _, n := range c.nodes {
			s := n.(*sinceNode)
			m := make(map[string]entryView, len(s.entries))
			for k, e := range s.entries {
				v := entryView{inRB: e.inRB}
				if e.hpos > 0 {
					v.due = e.due
				}
				m[k] = v
			}
			before[s] = m
		}
		if _, err := c.Step(st.Time, st.Tx); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if i == 0 {
			continue // the first commit enumerates ψ in full
		}
		for s, prev := range before {
			if s.path == pathFull {
				t.Fatalf("step %d: %s took the full path", i, s.node.String())
			}
			n := 0
			for k, v := range prev {
				e, live := s.entries[k]
				if v.due != 0 && v.due <= st.Time || !live || e.inRB != v.inRB {
					n++
				}
			}
			for k := range s.entries {
				if _, ok := prev[k]; !ok {
					n++ // created this commit
				}
			}
			if s.visits > n {
				t.Fatalf("step %d: %s visited %d entries, only %d touched or due", i, s.node.String(), s.visits, n)
			}
			visits += s.visits
			bound += n
			entries += len(s.entries)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	commits := len(h.Steps) - 1
	t.Logf("per commit: %.1f visits, %.1f touched or due, %.1f entries",
		float64(visits)/float64(commits), float64(bound)/float64(commits), float64(entries)/float64(commits))
	if visits*10 > entries {
		t.Fatalf("%d visits over %d commits against %d entry-commits: the sweep still scales with the aux size",
			visits, commits, entries)
	}
}

// TestDeadlineStorageIsOnePerEntry pins the space side on the dense
// feed: every [0,b] entry keeps exactly one timestamp.
func TestDeadlineStorageIsOnePerEntry(t *testing.T) {
	h := denseHistory(150)
	c := newFromHistory(t, h)
	for i, st := range h.Steps {
		if _, err := c.Step(st.Time, st.Tx); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if tot := c.Totals(); tot.Timestamps != tot.Entries {
			t.Fatalf("step %d: %d timestamps for %d entries", i, tot.Timestamps, tot.Entries)
		}
	}
	var buf bytes.Buffer
	if err := c.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(h.Schema, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.Totals(), c.Totals()) {
		t.Fatalf("restored totals %+v, saved %+v", restored.Totals(), c.Totals())
	}
}
