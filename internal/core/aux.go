package core

import (
	"container/heap"
	"fmt"
	"sort"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/plan"
	"rtic/internal/tuple"
)

// auxNode is the per-temporal-subformula state of the bounded history
// encoding. Each committed transaction drives every node through two
// phases:
//
//   - phase A brings the node's *answer* up to the new state i, using
//     only the previous auxiliary state and evaluations in state i
//     (children are updated first, so nested temporal subformulas
//     already answer for state i);
//   - phase B computes and then commits state the node must carry to
//     state i+1 (only prev nodes defer work to phase B: their stored
//     enumeration must keep answering for state i while other nodes —
//     and the constraint check — still run against state i).
//
// Nodes additionally maintain their answer *as a set* across commits:
// enumerate at the current time returns the maintained set without
// rebuilding it, dirty reports whether the answer changed in the latest
// commit, and answerDelta exposes the exact rows that entered and left
// it — the inputs of the checker's delta-driven constraint evaluation.
type auxNode interface {
	formula() mtl.Formula
	phaseA(sc *stepCtx, ev *fol.Evaluator, t uint64) error
	phaseBCompute(sc *stepCtx, ev *fol.Evaluator, t uint64) error
	phaseBCommit(t uint64)
	enumerate(now uint64) (*fol.Bindings, error)
	test(env fol.Env, now uint64) (bool, error)
	// testKey decides the node under the binding whose tuple.Key encoding
	// (aligned with the node's sorted free variables) is key — the
	// allocation-free probe of plan execution.
	testKey(key []byte, now uint64) (bool, error)
	// dirty reports whether the node's answer changed in the last commit.
	dirty() bool
	// answerDelta returns the rows that entered and left the answer in
	// the last commit. exact is false when the node does not track the
	// delta row-by-row (prev nodes); callers must then fall back to full
	// evaluation whenever the node is dirty.
	answerDelta() (added, removed []tuple.Tuple, exact bool)
	// usage reports the node's storage counts; Formula is left empty
	// so the totals-only walk builds no strings.
	usage() NodeStats
}

// NodeStats describes the auxiliary storage of one temporal subformula.
type NodeStats struct {
	Formula    string
	Entries    int // bindings currently tracked
	Timestamps int // timestamps stored across all bindings
	Bytes      int // estimated footprint
}

// nodeDeps is the read set of one node formula, derived at registration
// time: the relations it reads directly, its child nodes, and whether
// the cached fast paths are sound for it (no universal quantification —
// see domainDependent).
type nodeDeps struct {
	srcRels  []string
	children []auxNode
	domDep   bool
}

// clean reports whether nothing the node reads changed in this commit.
func (d *nodeDeps) clean(sc *stepCtx) bool {
	return sc != nil && sc.planned && !d.domDep &&
		!sc.relsChanged(d.srcRels) && !anyDirty(d.children)
}

// prevNode implements ⊖_I φ: it stores the enumeration of φ in the
// previous state together with the previous timestamp — one state's
// worth of bindings, never more.
type prevNode struct {
	n     *mtl.Prev
	fvars []string
	deps  nodeDeps
	fPlan *plan.Plan

	stored     *fol.Bindings
	storedTime uint64
	has        bool
	// storedBytes is stored.Size(), computed in phase B when the
	// answer is built, so usage is O(1).
	storedBytes int

	pending      *fol.Bindings
	pendingTime  uint64
	pendingBytes int

	// lastServed is the answer the node served in the previous commit;
	// comparing against the current answer yields the dirty bit. Prev
	// nodes do not track row-level answer deltas (answerDelta is
	// inexact): the answer can swap wholesale every step.
	lastServed *fol.Bindings
	dirtyBit   bool
}

func newPrevNode(n *mtl.Prev) *prevNode {
	return &prevNode{n: n, fvars: mtl.FreeVars(n.F)}
}

func (p *prevNode) formula() mtl.Formula { return p.n }

// phaseA computes the dirty bit: the answer served for this state vs the
// previous one. The stored enumeration itself only advances in phase B.
func (p *prevNode) phaseA(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	cur, err := p.enumerate(t)
	if err != nil {
		return err
	}
	p.dirtyBit = !bindingsEqual(p.lastServed, cur)
	p.lastServed = cur
	return nil
}

func bindingsEqual(a, b *fol.Bindings) bool {
	if a == b {
		return true
	}
	if a == nil {
		return b.Empty()
	}
	if b == nil {
		return a.Empty()
	}
	return a.Equal(b)
}

func (p *prevNode) phaseBCompute(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	// Refresh fast path: when nothing φ reads changed in this commit,
	// φ's enumeration in the new state equals the stored one — alias it
	// (bindings are immutable once published).
	if p.has && p.deps.clean(sc) {
		p.pending, p.pendingTime, p.pendingBytes = p.stored, t, p.storedBytes
		return nil
	}
	var b *fol.Bindings
	var err error
	if p.fPlan != nil && sc != nil && sc.planned {
		b, err = p.fPlan.Eval(sc.c.cur, sc.orc, nil)
	} else {
		b, err = ev.Eval(p.n.F)
		if err == nil {
			// The evaluator may hand back a child node's maintained
			// answer (φ a bare temporal subformula); that set mutates in
			// place on later commits, so snapshot before retaining.
			b = b.Clone()
		}
	}
	if err != nil {
		return fmt.Errorf("core: prev %q: %w", p.n.String(), err)
	}
	p.pending, p.pendingTime, p.pendingBytes = b, t, b.Size()
	return nil
}

func (p *prevNode) phaseBCommit(uint64) {
	p.stored, p.storedTime, p.storedBytes, p.has = p.pending, p.pendingTime, p.pendingBytes, true
	p.pending = nil
}

func (p *prevNode) enumerate(now uint64) (*fol.Bindings, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return fol.NewBindings(p.fvars), nil
	}
	return p.stored, nil
}

func (p *prevNode) test(env fol.Env, now uint64) (bool, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return false, nil
	}
	return p.stored.Contains(env)
}

func (p *prevNode) testKey(key []byte, now uint64) (bool, error) {
	if !p.has || !p.n.I.Contains(now-p.storedTime) {
		return false, nil
	}
	return p.stored.ContainsKeyBytes(key), nil
}

func (p *prevNode) dirty() bool { return p.dirtyBit }

func (p *prevNode) answerDelta() ([]tuple.Tuple, []tuple.Tuple, bool) {
	return nil, nil, false
}

func (p *prevNode) usage() NodeStats {
	var s NodeStats
	if p.has {
		s.Entries = p.stored.Len()
		s.Bytes = p.storedBytes + 16
	}
	return s
}

// sinceEntry is the bounded history the checker keeps for one binding θ
// of a since/once subformula: the timestamps t_j at which the anchor ψ
// held with the chain φ unbroken since, pruned to the ones that can still
// decide the answer (see prune). inRB and keep cache the entry's last
// evaluated recurrence inputs (row ∈ ⟦ψ⟧? and θ ⊨ φ?) so commits that
// touch nothing the node reads can replay the recurrence without
// re-evaluating either formula; inAns mirrors the row's membership in the
// node's maintained answer.
type sinceEntry struct {
	key   string // row's tuple.Key encoding: the entry's key in sinceNode.entries
	pos   int    // the entry's index in sinceNode.list
	row   tuple.Tuple
	times []uint64 // ascending; see open
	inRB  bool
	keep  bool
	inAns bool
	// open marks a ψ-run in progress on a deadline node: the recurrence
	// would set times to {t} at every commit, so the entry's one
	// timestamp is the node's current commit (lastT), resolved when read;
	// times[0] is stale until the run closes.
	open  bool
	stamp uint64 // t+1 of the commit that created the entry
	mark  uint64 // t+1 of the latest commit that queued the entry for a visit
	// due is the first commit time at which the answer membership of a
	// parked entry can change without input; hpos is the entry's index in
	// sinceNode.dueQ plus one, 0 when the entry is not parked.
	due  uint64
	hpos int
}

// updatePath names how a since/once node's phase A ran in the latest
// commit.
type updatePath uint8

const (
	// pathFull re-enumerated ψ and re-tested φ for every entry.
	pathFull updatePath = iota
	// pathRefresh replayed the recurrence from the cached inputs: the
	// commit touched nothing the node reads.
	pathRefresh
	// pathDelta kept ⟦ψ⟧ by ψ's source deltas, then replayed the
	// recurrence: φ's read set was untouched.
	pathDelta
)

// sinceNode implements φ S_I ψ (and once_I ψ, with φ = true) via the
// recurrence S_i(θ) = (i ⊨θ φ ? S_{i−1}(θ) : ∅) ∪ (i ⊨θ ψ ? {t_i} : ∅).
type sinceNode struct {
	node  mtl.Formula // *mtl.Once or *mtl.Since
	iv    mtl.Interval
	left  mtl.Formula // Truth{true} for once
	right mtl.Formula
	vars  []string // fv(node), sorted; equals fv(right) by safety
	lvars []string
	lPos  []int // position in vars of each lvars entry

	// lDeps and rDeps are the read sets of φ and ψ; psi is ψ's compiled
	// plan with its sources (plan nil when ψ's shape is unplannable).
	lDeps, rDeps nodeDeps
	psi          seededPlan

	// noPrune disables the bounded-encoding pruning rules (the space
	// ablation); answers are unchanged, storage grows with history.
	noPrune bool
	// deadlines selects deadline-driven maintenance, sound when every
	// entry keeps one timestamp whose membership changes at a known time:
	// [0,b] and [a,∞) windows with pruning on. An entry is then visited
	// only when ψ's delta touches it or it falls due (dueQ); open ψ-runs
	// need no visit at all. Other nodes visit every entry at every commit.
	deadlines bool
	dueQ      dueQueue
	// visit queues the entries the current commit must visit (deadline
	// nodes only); visits counts the latest commit's recurrence
	// applications.
	visit  []*sinceEntry
	visits int

	// entries indexes the entries by key; list holds the same entries
	// for the recurrence sweeps, which iterate a slice faster than a map.
	entries map[string]*sinceEntry
	list    []*sinceEntry
	// nTimes and fixedBytes are running storage totals over entries: the
	// timestamps held, and the per-entry bytes that do not depend on them
	// (see entryBytes). usage reads them instead of walking entries.
	nTimes     int
	fixedBytes int

	// The maintained answer: ans holds exactly the rows satisfied at
	// lastT (valid once primed), added/removed the rows that entered and
	// left it in the last commit. envBuf and keyBuf are scratch.
	ans     *fol.Bindings
	lastT   uint64
	primed  bool
	dirtied bool
	path    updatePath
	added   []tuple.Tuple
	removed []tuple.Tuple
	envBuf  fol.Env
	keyBuf  []byte
}

// newOnceNode and newSinceNode build a since/once node; noPrune selects
// the unpruned space ablation.
func newOnceNode(n *mtl.Once, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, mtl.Truth{Bool: true}, n.F, noPrune)
}

func newSinceNode(n *mtl.Since, noPrune bool) (*sinceNode, error) {
	return newSinceLike(n, n.I, n.L, n.R, noPrune)
}

func newSinceLike(node mtl.Formula, iv mtl.Interval, left, right mtl.Formula, noPrune bool) (*sinceNode, error) {
	vars := mtl.FreeVars(node)
	rvars := mtl.FreeVars(right)
	if len(vars) != len(rvars) {
		return nil, fmt.Errorf("core: %q: binding space must be generated by the right-hand side (fv %v vs %v)",
			node.String(), vars, rvars)
	}
	lvars := mtl.FreeVars(left)
	for _, lv := range lvars {
		if i := sort.SearchStrings(vars, lv); i >= len(vars) || vars[i] != lv {
			return nil, fmt.Errorf("core: %q: left-hand variable %q not bound by the right-hand side",
				node.String(), lv)
		}
	}
	return &sinceNode{
		node:      node,
		iv:        iv,
		left:      left,
		right:     right,
		vars:      vars,
		lvars:     lvars,
		lPos:      varPositions(vars, lvars),
		noPrune:   noPrune,
		deadlines: !noPrune && (iv.Unbounded || iv.Lo == 0),
		entries:   make(map[string]*sinceEntry),
		ans:       fol.NewBindings(vars),
	}, nil
}

func (s *sinceNode) formula() mtl.Formula { return s.node }

func (s *sinceNode) isOnce() bool {
	t, ok := s.left.(mtl.Truth)
	return ok && t.Bool
}

// phaseA brings the entries and the answer to time t by the cheapest
// sound path: replay the cached recurrence inputs when nothing the node
// reads changed (refresh); keep ⟦ψ⟧ by ψ's source deltas when φ's read
// set is untouched (delta); otherwise re-enumerate ψ and re-test φ for
// every entry (full). Aging — times entering and leaving the metric
// window — runs on every path, so answers stay exact.
func (s *sinceNode) phaseA(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	s.added = s.added[:0]
	s.removed = s.removed[:0]
	s.visits = 0
	s.visit = s.visit[:0]
	var err error
	switch {
	case s.primed && s.lDeps.clean(sc) && s.rDeps.clean(sc):
		s.path = pathRefresh
		s.replay(t)
	case s.psiByDelta(sc):
		s.path = pathDelta
		err = s.deltaA(sc, ev, t)
	default:
		s.path = pathFull
		err = s.fullA(sc, ev, t)
	}
	if err != nil {
		return err
	}
	s.finish(t)
	return nil
}

// psiByDelta reports whether the delta path is sound this commit, and
// loads ψ's source deltas when it is: the cached inRB flags are ⟦ψ⟧ at
// the previous commit (primed), ψ's plan is seedable and not
// domain-dependent, φ's read set is untouched, so the cached keep flags
// still hold, and every ψ source delta is exact and pins the rows its
// kills touch.
func (s *sinceNode) psiByDelta(sc *stepCtx) bool {
	if !s.primed || !s.psi.canSeed || s.rDeps.domDep || !s.lDeps.clean(sc) {
		return false
	}
	exact, pinned := s.psi.load(sc)
	return exact && pinned
}

// anchor records that row (whose key is key) satisfies ψ at t: it sets
// the entry's inRB flag, or creates a fresh entry {t}. fresh reports a
// created entry, changed one whose inRB flag was unset before.
func (s *sinceNode) anchor(row tuple.Tuple, key []byte, t uint64) (e *sinceEntry, fresh, changed bool, err error) {
	if e, ok := s.entries[string(key)]; ok {
		changed = !e.inRB
		e.inRB = true
		return e, false, changed, nil
	}
	e = &sinceEntry{key: string(key), row: row.Clone(), times: []uint64{t}, inRB: true, keep: true, stamp: t + 1}
	s.addEntry(e)
	if s.iv.Contains(0) {
		if err := s.ans.AddRow(e.row); err != nil {
			return nil, false, false, err
		}
		e.inAns = true
		s.added = append(s.added, e.row)
	}
	return e, true, true, nil
}

// chain decides θ ⊨ φ for an entry row (always true for once).
func (s *sinceNode) chain(ev *fol.Evaluator, row tuple.Tuple) (bool, error) {
	if s.isOnce() {
		return true, nil
	}
	if s.envBuf == nil {
		s.envBuf = make(fol.Env, len(s.lvars)+1)
	}
	for i, p := range s.lPos {
		s.envBuf[s.lvars[i]] = row[p]
	}
	ok, err := ev.Test(s.left, s.envBuf)
	if err != nil {
		return false, fmt.Errorf("core: %q: testing chain: %w", s.node.String(), err)
	}
	return ok, nil
}

// fullA is the full path: enumerate ⟦ψ⟧ in the new state (marking
// surviving entries and creating fresh anchors), then re-test φ for
// every entry and apply the recurrence. The compiled plan streams rows
// without materializing the binding set; the tree-walking evaluator is
// the fallback.
func (s *sinceNode) fullA(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	for _, e := range s.list {
		e.inRB = false
	}
	var markErr error
	mark := func(row tuple.Tuple) bool {
		s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
		_, _, _, markErr = s.anchor(row, s.keyBuf, t)
		return markErr == nil
	}
	if s.psi.plan != nil && sc != nil && sc.planned {
		err := s.psi.plan.Execute(sc.c.cur, sc.orc, nil, mark)
		if err == nil {
			err = markErr
		}
		if err != nil {
			return fmt.Errorf("core: %q: %w", s.node.String(), err)
		}
	} else {
		rb, err := ev.Eval(s.right)
		if err != nil {
			return fmt.Errorf("core: %q: %w", s.node.String(), err)
		}
		if !sameStrings(rb.Vars(), s.vars) {
			return fmt.Errorf("core: %q: right-hand side bound %v, node needs %v",
				s.node.String(), rb.Vars(), s.vars)
		}
		rb.EachRow(mark)
		if markErr != nil {
			return markErr
		}
	}

	// Downward, so dropEntry's swap-remove only moves visited entries.
	for i := len(s.list) - 1; i >= 0; i-- {
		e := s.list[i]
		keep, err := s.chain(ev, e.row)
		if err != nil {
			return err
		}
		// Cache the chain's truth for the refresh and delta paths — fresh
		// anchors included: their recurrence ignores φ this commit (times
		// is just {t}), but later commits replay from the cache.
		e.keep = keep
		if e.stamp == t+1 {
			s.settle(e, t) // created above; times already [t], answer updated
			continue
		}
		if err := s.applyRecurrence(e, keep, t); err != nil {
			return err
		}
	}
	return nil
}

// deltaA is the delta path: retest the inRB entries ψ's kills pin,
// anchor the rows ψ's seeds derive (testing φ for fresh entries only),
// then replay the recurrence from the flags. Entries whose inRB flag
// flipped are queued for the replay's visit.
func (s *sinceNode) deltaA(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	var rerr error
	err := s.psi.eachTouched(func(row tuple.Tuple) bool {
		s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
		e, ok := s.entries[string(s.keyBuf)]
		if !ok || !e.inRB {
			return true
		}
		if e.inRB, rerr = s.psi.plan.RetestRow(sc.c.cur, sc.orc, row); rerr == nil && !e.inRB {
			s.touch(e, t)
		}
		return rerr == nil
	})
	if err == nil && rerr == nil {
		err = s.psi.eachSeeded(sc, func(row tuple.Tuple) bool {
			s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
			e, fresh, changed, aerr := s.anchor(row, s.keyBuf, t)
			if rerr = aerr; rerr == nil && fresh {
				e.keep, rerr = s.chain(ev, e.row)
			}
			if rerr == nil && changed {
				s.touch(e, t)
			}
			return rerr == nil
		})
	}
	if err == nil {
		err = rerr
	}
	if err != nil {
		return fmt.Errorf("core: %q: %w", s.node.String(), err)
	}
	s.replay(t)
	return nil
}

// touch queues e for this commit's visit on a deadline node (once per
// commit); other nodes visit every entry anyway.
func (s *sinceNode) touch(e *sinceEntry, t uint64) {
	if !s.deadlines || e.mark == t+1 {
		return
	}
	e.mark = t + 1
	s.visit = append(s.visit, e)
}

// applyRecurrence replays one entry's recurrence step from keep/inRB,
// prunes, deletes empty entries, settles the rest, and maintains the
// answer set and the storage totals.
func (s *sinceNode) applyRecurrence(e *sinceEntry, keep bool, t uint64) error {
	s.visits++
	if e.open {
		// Close the run: its newest anchor is the previous commit.
		e.times[0], e.open = s.lastT, false
	}
	n0 := len(e.times)
	if !keep {
		e.times = e.times[:0]
	}
	if e.inRB {
		e.times = append(e.times, t)
	}
	s.prune(e, t)
	s.nTimes += len(e.times) - n0
	after := len(e.times) > 0 && s.satisfied(e, t)
	if len(e.times) == 0 {
		s.dropEntry(e)
	} else {
		s.settle(e, t)
	}
	if e.inAns && !after {
		s.ans.RemoveKey(e.key)
		e.inAns = false
		s.removed = append(s.removed, e.row)
	} else if !e.inAns && after {
		if err := s.ans.AddRow(e.row); err != nil {
			return err
		}
		e.inAns = true
		s.added = append(s.added, e.row)
	}
	return nil
}

// replay applies the recurrence from the cached inRB/keep flags — no
// formula evaluation — to every entry that can change at t and was not
// created this commit. A deadline node visits the entries queued by ψ's
// delta and those that fall due; any other node visits every entry. On
// the refresh path no entry is fresh: an unchanged ⟦ψ⟧ cannot contain a
// row without an entry (every ⟦ψ⟧ row is an entry with inRB set, and
// inRB entries always retain the current timestamp and so are never
// deleted).
func (s *sinceNode) replay(t uint64) {
	keepAll := s.isOnce()
	// applyRecurrence cannot error here: it only errors on AddRow of a
	// stable entry row, whose arity matched when first added.
	if !s.deadlines {
		// Downward, so dropEntry's swap-remove only moves visited entries.
		for i := len(s.list) - 1; i >= 0; i-- {
			if e := s.list[i]; e.stamp != t+1 {
				_ = s.applyRecurrence(e, keepAll || e.keep, t)
			}
		}
		return
	}
	for len(s.dueQ) > 0 && s.dueQ[0].due <= t {
		s.touch(heap.Pop(&s.dueQ).(*sinceEntry), t)
	}
	for i, e := range s.visit {
		if e.stamp == t+1 {
			s.settle(e, t)
		} else {
			_ = s.applyRecurrence(e, keepAll || e.keep, t)
		}
		s.visit[i] = nil
	}
	s.visit = s.visit[:0]
}

// settle files an entry of a deadline node after its recurrence ran at
// t (times is then {t} or one older timestamp). While ψ holds, the
// recurrence would set times to {t} at every commit, except on an
// unbounded window with φ holding, where the earliest anchor stays: the
// entry becomes an open run that needs no visit until ψ's delta touches
// it. Any other entry parks in the due queue until the first time its
// membership can change — its timestamp leaving [0,b], or entering
// [a,∞) — or leaves the queue when no time can change it.
func (s *sinceNode) settle(e *sinceEntry, t uint64) {
	if !s.deadlines {
		return
	}
	tm := e.times[0]
	switch {
	case e.inRB && (!s.iv.Unbounded || !e.keep):
		e.open = true
		s.unpark(e)
	case !s.iv.Unbounded:
		s.park(e, satAdd(tm, satAdd(s.iv.Hi, 1)))
	case t-tm < s.iv.Lo:
		s.park(e, satAdd(tm, s.iv.Lo))
	default:
		s.unpark(e)
	}
}

// park files e in the due queue under due, or moves it there.
func (s *sinceNode) park(e *sinceEntry, due uint64) {
	e.due = due
	if e.hpos > 0 {
		heap.Fix(&s.dueQ, e.hpos-1)
		return
	}
	heap.Push(&s.dueQ, e)
}

// unpark takes e out of the due queue if it is parked.
func (s *sinceNode) unpark(e *sinceEntry) {
	if e.hpos > 0 {
		heap.Remove(&s.dueQ, e.hpos-1)
	}
}

// dueQueue is a min-heap of parked entries by due time; each entry
// tracks its own position (hpos) so it can be moved or removed.
type dueQueue []*sinceEntry

func (q dueQueue) Len() int           { return len(q) }
func (q dueQueue) Less(i, j int) bool { return q[i].due < q[j].due }

func (q dueQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].hpos, q[j].hpos = i+1, j+1
}

func (q *dueQueue) Push(x any) {
	e := x.(*sinceEntry)
	e.hpos = len(*q) + 1
	*q = append(*q, e)
}

func (q *dueQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	e.hpos = 0
	return e
}

// entryBytes is an entry's storage estimate without its timestamps,
// which cost 8 bytes each; the key is the row's tuple.Key encoding, so
// len(key) is the key's size without re-encoding.
func entryBytes(e *sinceEntry) int { return len(e.key) + e.row.Size() + 48 }

// addEntry stores a new entry (key set) and counts it in the totals.
func (s *sinceNode) addEntry(e *sinceEntry) {
	s.entries[e.key] = e
	e.pos = len(s.list)
	s.list = append(s.list, e)
	s.nTimes += len(e.times)
	s.fixedBytes += entryBytes(e)
}

// dropEntry deletes an entry, moving the last entry of list into its
// slot, takes it out of the due queue, and uncounts it.
func (s *sinceNode) dropEntry(e *sinceEntry) {
	delete(s.entries, e.key)
	last := s.list[len(s.list)-1]
	s.list[e.pos], last.pos = last, e.pos
	s.list[len(s.list)-1] = nil
	s.list = s.list[:len(s.list)-1]
	s.unpark(e)
	s.nTimes -= len(e.times)
	s.fixedBytes -= entryBytes(e)
}

// finish seals the commit: answers now served for time t.
func (s *sinceNode) finish(t uint64) {
	s.lastT = t
	s.primed = true
	s.dirtied = len(s.added)+len(s.removed) > 0
}

// prune enforces the bounded history encoding. An unbounded window
// keeps the earliest timestamp: satisfaction is monotone in age, so it
// subsumes all others. A bounded [a,b] window keeps the timestamps
// younger than a, which may yet enter it, plus the newest matured one
// (age ≥ a) while it is still inside: ages only grow, so an older
// matured timestamp leaves the window before the newest one and can
// never witness what the newest does not. For a = 0 that is exactly
// one timestamp.
func (s *sinceNode) prune(e *sinceEntry, now uint64) {
	if s.noPrune {
		return
	}
	if s.iv.Unbounded {
		if len(e.times) > 1 {
			e.times = e.times[:1]
		}
		return
	}
	matured := 0 // times ascend, so the matured ones are a prefix
	for matured < len(e.times) && now-e.times[matured] >= s.iv.Lo {
		matured++
	}
	cut := matured
	if matured > 0 && now-e.times[matured-1] <= s.iv.Hi {
		cut--
	}
	if cut > 0 {
		e.times = append(e.times[:0], e.times[cut:]...)
	}
}

func (s *sinceNode) phaseBCompute(*stepCtx, *fol.Evaluator, uint64) error { return nil }
func (s *sinceNode) phaseBCommit(uint64)                                  {}

// timesOf returns e's timestamps with an open run resolved to the node's
// current commit; it aliases e.times unless the run is open.
func (s *sinceNode) timesOf(e *sinceEntry) []uint64 {
	if e.open {
		return []uint64{s.lastT}
	}
	return e.times
}

// satisfied reports whether one of e's timestamps lies in the window at
// now. Timestamps ascend, so ages descend: the scan stops at the first
// one younger than the window, which after pruning is at most the
// second.
func (s *sinceNode) satisfied(e *sinceEntry, now uint64) bool {
	if e.open {
		return s.iv.Contains(now - s.lastT)
	}
	for _, tm := range e.times {
		if now-tm < s.iv.Lo {
			return false
		}
		if s.iv.Contains(now - tm) {
			return true
		}
	}
	return false
}

func (s *sinceNode) enumerate(now uint64) (*fol.Bindings, error) {
	if s.primed && now == s.lastT {
		return s.ans, nil
	}
	out := fol.NewBindings(s.vars)
	for _, e := range s.entries {
		if s.satisfied(e, now) {
			if err := out.AddRow(e.row); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// rowOf builds the entry row for a full binding of the node's variables.
func (s *sinceNode) rowOf(env fol.Env) (tuple.Tuple, error) {
	row := make(tuple.Tuple, len(s.vars))
	for i, v := range s.vars {
		val, ok := env[v]
		if !ok {
			return nil, fmt.Errorf("core: test of %q misses variable %q", s.node.String(), v)
		}
		row[i] = val
	}
	return row, nil
}

func (s *sinceNode) test(env fol.Env, now uint64) (bool, error) {
	row, err := s.rowOf(env)
	if err != nil {
		return false, err
	}
	e, ok := s.entries[row.Key()]
	if !ok {
		return false, nil
	}
	return s.satisfied(e, now), nil
}

func (s *sinceNode) testKey(key []byte, now uint64) (bool, error) {
	if s.primed && now == s.lastT {
		return s.ans.ContainsKeyBytes(key), nil
	}
	e, ok := s.entries[string(key)]
	return ok && s.satisfied(e, now), nil
}

func (s *sinceNode) dirty() bool { return s.dirtied }

func (s *sinceNode) answerDelta() ([]tuple.Tuple, []tuple.Tuple, bool) {
	return s.added, s.removed, true
}

// usage reports the entries' storage from the running totals, in O(1).
func (s *sinceNode) usage() NodeStats {
	return NodeStats{Entries: len(s.entries), Timestamps: s.nTimes, Bytes: s.fixedBytes + 8*s.nTimes}
}

// Invariants returns an error if the node's internal invariants are
// broken; the property tests call it after every step.
func (s *sinceNode) invariants(now uint64) error {
	if s.primed && now == s.lastT {
		sat := 0
		for key, e := range s.entries {
			if s.satisfied(e, now) {
				sat++
				if !s.ans.ContainsKey(key) {
					return fmt.Errorf("core: %q: maintained answer misses satisfied entry %s", s.node.String(), key)
				}
			} else if s.ans.ContainsKey(key) {
				return fmt.Errorf("core: %q: maintained answer retains unsatisfied entry %s", s.node.String(), key)
			}
		}
		if s.ans.Len() != sat {
			return fmt.Errorf("core: %q: maintained answer has %d rows, %d entries satisfied",
				s.node.String(), s.ans.Len(), sat)
		}
	}
	var walk NodeStats
	inAns := 0
	if len(s.list) != len(s.entries) {
		return fmt.Errorf("core: %q: %d listed entries, %d indexed", s.node.String(), len(s.list), len(s.entries))
	}
	for key, e := range s.entries {
		if e.key != key || e.pos >= len(s.list) || s.list[e.pos] != e {
			return fmt.Errorf("core: %q: entry %s misplaced (key %s, list position %d)", s.node.String(), key, e.key, e.pos)
		}
		walk.Timestamps += len(e.times)
		walk.Bytes += entryBytes(e) + 8*len(e.times)
		if e.inAns != s.ans.ContainsKey(key) {
			return fmt.Errorf("core: %q: entry %s has inAns=%v, answer membership %v",
				s.node.String(), key, e.inAns, !e.inAns)
		}
		if e.inAns {
			inAns++
		}
	}
	if inAns != s.ans.Len() {
		return fmt.Errorf("core: %q: %d entries flagged in the answer, answer has %d rows", s.node.String(), inAns, s.ans.Len())
	}
	walk.Entries = len(s.entries)
	if got := s.usage(); got != walk {
		return fmt.Errorf("core: %q: running totals %+v, walk %+v", s.node.String(), got, walk)
	}
	if err := s.queueInvariants(now); err != nil {
		return err
	}
	if s.noPrune {
		return nil // the ablation deliberately violates the space bounds
	}
	for key, e := range s.entries {
		if len(e.times) == 0 {
			return fmt.Errorf("core: %q: empty entry %s retained", s.node.String(), key)
		}
		times := s.timesOf(e)
		for i := 1; i < len(times); i++ {
			if times[i-1] >= times[i] {
				return fmt.Errorf("core: %q: timestamps not strictly ascending: %v", s.node.String(), times)
			}
		}
		if s.iv.Unbounded {
			if len(times) > 1 {
				return fmt.Errorf("core: %q: unbounded window kept %d timestamps", s.node.String(), len(times))
			}
			continue
		}
		matured := 0
		for _, tm := range times {
			if now-tm > s.iv.Hi {
				return fmt.Errorf("core: %q: stale timestamp %d at now=%d (window %s)", s.node.String(), tm, now, s.iv.String())
			}
			if now-tm >= s.iv.Lo {
				matured++
			}
		}
		if matured > 1 {
			return fmt.Errorf("core: %q: entry %s kept %d matured timestamps %v at now=%d (window %s)",
				s.node.String(), key, matured, times, now, s.iv.String())
		}
	}
	return nil
}

// queueInvariants checks the deadline bookkeeping: the due queue is a
// heap holding each parked entry exactly once, and once the node has
// settled a commit at now, every entry is either an open run (ψ holds,
// one timestamp), parked under the first time its membership can change
// (still in the future), or unchangeable without input. Nodes without
// deadlines keep no open or parked entry.
func (s *sinceNode) queueInvariants(now uint64) error {
	for i, e := range s.dueQ {
		if e.hpos != i+1 || s.entries[e.key] != e {
			return fmt.Errorf("core: %q: due queue slot %d holds entry %s (position %d, indexed %v)",
				s.node.String(), i, e.key, e.hpos, s.entries[e.key] == e)
		}
		if i > 0 && s.dueQ[(i-1)/2].due > e.due {
			return fmt.Errorf("core: %q: due queue out of heap order at slot %d", s.node.String(), i)
		}
	}
	parked := 0
	for key, e := range s.entries {
		if e.hpos > 0 {
			parked++
		}
		if !s.deadlines {
			if e.open || e.hpos > 0 {
				return fmt.Errorf("core: %q: entry %s open=%v parked=%v on a node without deadlines", s.node.String(), key, e.open, e.hpos > 0)
			}
			continue
		}
		if !s.primed || now != s.lastT {
			continue // restored entries settle on the first commit
		}
		if e.open {
			if len(e.times) != 1 || !e.inRB || (s.iv.Unbounded && e.keep) || e.hpos > 0 {
				return fmt.Errorf("core: %q: open run %s with %d timestamps, inRB=%v keep=%v parked=%v",
					s.node.String(), key, len(e.times), e.inRB, e.keep, e.hpos > 0)
			}
			continue
		}
		if e.inRB && (!s.iv.Unbounded || !e.keep) {
			return fmt.Errorf("core: %q: entry %s holds ψ but is not an open run", s.node.String(), key)
		}
		tm := e.times[0]
		var due uint64
		switch {
		case !s.iv.Unbounded:
			due = satAdd(tm, satAdd(s.iv.Hi, 1))
		case now-tm < s.iv.Lo:
			due = satAdd(tm, s.iv.Lo)
		}
		if due == 0 {
			if e.hpos > 0 {
				return fmt.Errorf("core: %q: settled entry %s parked until %d", s.node.String(), key, e.due)
			}
			continue
		}
		if e.hpos == 0 || e.due != due || due <= now {
			return fmt.Errorf("core: %q: entry %s parked=%v until %d, want until %d (now=%d)",
				s.node.String(), key, e.hpos > 0, e.due, due, now)
		}
	}
	if parked != len(s.dueQ) {
		return fmt.Errorf("core: %q: %d entries parked, due queue holds %d", s.node.String(), parked, len(s.dueQ))
	}
	return nil
}

func varPositions(vars, subset []string) []int {
	out := make([]int, len(subset))
	for i, v := range subset {
		out[i] = sort.SearchStrings(vars, v)
	}
	return out
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
