package core

import (
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
// held with the chain φ unbroken since, pruned to the metric window
// (a single timestamp suffices when the window is unbounded above).
// inRB and keep cache the entry's last evaluated recurrence inputs
// (row ∈ ⟦ψ⟧? and θ ⊨ φ?) so commits that touch nothing the node reads
// can replay the recurrence without re-evaluating either formula; inAns
// mirrors the row's membership in the node's maintained answer.
type sinceEntry struct {
	key   string // row's tuple.Key encoding: the entry's key in sinceNode.entries
	pos   int    // the entry's index in sinceNode.list
	row   tuple.Tuple
	times []uint64 // ascending
	inRB  bool
	keep  bool
	inAns bool
	stamp uint64 // t+1 of the commit that created the entry
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

func newOnceNode(n *mtl.Once) (*sinceNode, error) {
	return newSinceLike(n, n.I, mtl.Truth{Bool: true}, n.F)
}

func newSinceNode(n *mtl.Since) (*sinceNode, error) {
	return newSinceLike(n, n.I, n.L, n.R)
}

func newSinceLike(node mtl.Formula, iv mtl.Interval, left, right mtl.Formula) (*sinceNode, error) {
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
		node:    node,
		iv:      iv,
		left:    left,
		right:   right,
		vars:    vars,
		lvars:   lvars,
		lPos:    varPositions(vars, lvars),
		entries: make(map[string]*sinceEntry),
		ans:     fol.NewBindings(vars),
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
// the entry's inRB flag, or creates a fresh entry {t} and reports it.
func (s *sinceNode) anchor(row tuple.Tuple, key []byte, t uint64) (*sinceEntry, bool, error) {
	if e, ok := s.entries[string(key)]; ok {
		e.inRB = true
		return e, false, nil
	}
	e := &sinceEntry{key: string(key), row: row.Clone(), times: []uint64{t}, inRB: true, keep: true, stamp: t + 1}
	s.addEntry(e)
	if s.iv.Contains(0) {
		if err := s.ans.AddRow(e.row); err != nil {
			return nil, false, err
		}
		e.inAns = true
		s.added = append(s.added, e.row)
	}
	return e, true, nil
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
		_, _, markErr = s.anchor(row, s.keyBuf, t)
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
			continue // created above; times already [t], answer updated
		}
		if err := s.applyRecurrence(e, keep, t); err != nil {
			return err
		}
	}
	return nil
}

// deltaA is the delta path: retest the inRB entries ψ's kills pin,
// anchor the rows ψ's seeds derive (testing φ for fresh entries only),
// then replay the recurrence from the flags.
func (s *sinceNode) deltaA(sc *stepCtx, ev *fol.Evaluator, t uint64) error {
	var rerr error
	err := s.psi.eachTouched(func(row tuple.Tuple) bool {
		s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
		e, ok := s.entries[string(s.keyBuf)]
		if !ok || !e.inRB {
			return true
		}
		e.inRB, rerr = s.psi.plan.RetestRow(sc.c.cur, sc.orc, row)
		return rerr == nil
	})
	if err == nil && rerr == nil {
		err = s.psi.eachSeeded(sc, func(row tuple.Tuple) bool {
			s.keyBuf = row.AppendKeyTo(s.keyBuf[:0])
			var e *sinceEntry
			var fresh bool
			if e, fresh, rerr = s.anchor(row, s.keyBuf, t); rerr == nil && fresh {
				e.keep, rerr = s.chain(ev, e.row)
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

// applyRecurrence replays one entry's recurrence step from keep/inRB,
// prunes, deletes empty entries, and maintains the answer set and the
// storage totals.
func (s *sinceNode) applyRecurrence(e *sinceEntry, keep bool, t uint64) error {
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

// replay applies the recurrence to every entry not created this commit
// from its cached inRB/keep flags — no formula evaluation. On the refresh
// path no entry is fresh: an unchanged ⟦ψ⟧ cannot contain a row without
// an entry (every ⟦ψ⟧ row is an entry with inRB set, and inRB entries
// always retain the current timestamp and so are never deleted).
func (s *sinceNode) replay(t uint64) {
	once := s.isOnce()
	// Downward, so dropEntry's swap-remove only moves visited entries.
	for i := len(s.list) - 1; i >= 0; i-- {
		e := s.list[i]
		if e.stamp == t+1 {
			continue
		}
		// applyRecurrence cannot error here: it only errors on AddRow of
		// a stable entry row, whose arity matched when first added.
		_ = s.applyRecurrence(e, once || e.keep, t)
	}
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
// slot, and uncounts it.
func (s *sinceNode) dropEntry(e *sinceEntry) {
	delete(s.entries, e.key)
	last := s.list[len(s.list)-1]
	s.list[e.pos], last.pos = last, e.pos
	s.list[len(s.list)-1] = nil
	s.list = s.list[:len(s.list)-1]
	s.nTimes -= len(e.times)
	s.fixedBytes -= entryBytes(e)
}

// finish seals the commit: answers now served for time t.
func (s *sinceNode) finish(t uint64) {
	s.lastT = t
	s.primed = true
	s.dirtied = len(s.added)+len(s.removed) > 0
}

// prune enforces the bounded history encoding: timestamps older than the
// upper window bound can never re-enter the window; with an unbounded
// window, satisfaction is monotone in age so the earliest timestamp
// subsumes all others.
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
	cut := 0
	for cut < len(e.times) && now-e.times[cut] > s.iv.Hi {
		cut++
	}
	if cut > 0 {
		e.times = append(e.times[:0], e.times[cut:]...)
	}
}

func (s *sinceNode) phaseBCompute(*stepCtx, *fol.Evaluator, uint64) error { return nil }
func (s *sinceNode) phaseBCommit(uint64)                                  {}

func (s *sinceNode) satisfied(e *sinceEntry, now uint64) bool {
	for _, tm := range e.times {
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
	if s.noPrune {
		return nil // the ablation deliberately violates the space bounds
	}
	for key, e := range s.entries {
		if len(e.times) == 0 {
			return fmt.Errorf("core: %q: empty entry %s retained", s.node.String(), key)
		}
		for i := 1; i < len(e.times); i++ {
			if e.times[i-1] >= e.times[i] {
				return fmt.Errorf("core: %q: timestamps not strictly ascending: %v", s.node.String(), e.times)
			}
		}
		if s.iv.Unbounded && len(e.times) > 1 {
			return fmt.Errorf("core: %q: unbounded window kept %d timestamps", s.node.String(), len(e.times))
		}
		if !s.iv.Unbounded {
			for _, tm := range e.times {
				if now-tm > s.iv.Hi {
					return fmt.Errorf("core: %q: stale timestamp %d at now=%d (window %s)", s.node.String(), tm, now, s.iv.String())
				}
			}
		}
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
