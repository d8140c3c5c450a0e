package core

import (
	"sort"

	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/plan"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Delta-driven checking: each commit computes the transaction's *net*
// per-relation delta (membership before vs after the apply phase) and a
// read-set index decides, per constraint and per auxiliary node, whether
// anything it reads changed. Untouched constraints reuse their previous
// denial answer, touched seedable ones retest and re-derive only the
// answers the delta reaches (see seededPlan and checkPlanned), and
// auxiliary nodes with clean sources run a cached-recurrence refresh
// instead of re-evaluating their formulas — since/once nodes whose ψ
// alone changed keep ⟦ψ⟧ by the same delta rules (see aux.go).

// relDelta is the net change of one relation in one commit: tuples
// absent before and present after (inserted), and vice versa (deleted).
// Slices are reused across commits; rows alias transaction tuples and
// are only valid during the commit.
type relDelta struct {
	inserted []tuple.Tuple
	deleted  []tuple.Tuple
}

func (d *relDelta) changed() bool { return len(d.inserted)+len(d.deleted) > 0 }

// stepCtx carries one commit's delta and mode through the pipeline
// phases. A ctx with planned=false (tree-walk mode) disables every
// delta-driven shortcut: nodes and constraints evaluate in full.
type stepCtx struct {
	c       *Checker
	t       uint64
	planned bool
	delta   map[string]*relDelta
	orc     *oracle
	ev      *fol.Evaluator // see eval
}

// relsChanged reports whether the commit touched any of rels (net).
func (sc *stepCtx) relsChanged(rels []string) bool {
	for _, r := range rels {
		if d := sc.delta[r]; d != nil && d.changed() {
			return true
		}
	}
	return false
}

// anyDirty reports whether any node's answer changed this commit.
func anyDirty(nodes []auxNode) bool {
	for _, n := range nodes {
		if n.dirty() {
			return true
		}
	}
	return false
}

// seededPlan is a compiled flat plan together with the auxiliary nodes
// of its temporal sources: the unit of delta-proportional maintenance.
// The check phase maintains a denial's answer through one (conState),
// the update phase a since/once node's anchor set ⟦ψ⟧ (sinceNode). A
// maintained answer moves to the new state in two steps:
//
//   - kill: only an opposite-sign change can falsify a literal for a
//     cached row θ — a deletion under a positive relation literal, an
//     insertion under a negated one, a removed (positive) or added
//     (negated) row of a node's answer delta — and only when the changed
//     row unifies with the literal under θ. When every changed source
//     pins its answer rows (plan.Pins), eachTouched names exactly the
//     cached rows to retest; otherwise every cached row is retested.
//   - seed: any new answer row needs a literal that became true, so
//     eachSeeded runs the plan from the same-sign changes only.
//
// The per-commit source deltas live in the seededPlan itself (cur,
// filled by load).
type seededPlan struct {
	plan    *plan.Plan
	sources []plan.Source
	srcRel  []*relDelta // per source: the relation's delta slot; nil for temporal sources
	srcNode []auxNode   // per source: the node; nil for relation sources
	pins    []bool      // per source: plan.Pins
	// canSeed: the plan is seedable and every temporal source resolved
	// to its node.
	canSeed bool
	cur     []srcDelta
}

// srcDelta is one source's change in one commit: seeds can make the
// literal true, kills can make it false.
type srcDelta struct{ seeds, kills []tuple.Tuple }

// seedPlan resolves p's sources for delta-driven maintenance. A nil or
// unseedable plan yields a seededPlan with canSeed unset.
func (c *Checker) seedPlan(p *plan.Plan) seededPlan {
	sp := seededPlan{plan: p}
	if p == nil || !p.Seedable() {
		return sp
	}
	sp.sources = p.Sources()
	n := len(sp.sources)
	sp.srcRel, sp.srcNode = make([]*relDelta, n), make([]auxNode, n)
	sp.pins, sp.cur = make([]bool, n), make([]srcDelta, n)
	for i, src := range sp.sources {
		sp.pins[i] = p.Pins(src)
		if src.IsRel {
			sp.srcRel[i] = c.deltaSlot(src.Rel)
			continue
		}
		node, ok := c.byNode[src.Temp]
		if !ok {
			// Unreachable: compile registered every temporal subformula
			// before planning it. Disable seeding, keep the plan.
			return seededPlan{plan: p}
		}
		sp.srcNode[i] = node
	}
	sp.canSeed = true
	return sp
}

// load fills cur with this commit's source deltas (planned mode only).
// exact reports that every source changed by row-level deltas, so
// seeding misses no derivation; pinned that, in addition, every source
// with kills pins its answer rows, so eachTouched covers every cached
// row a kill can falsify.
func (sp *seededPlan) load(sc *stepCtx) (exact, pinned bool) {
	pinned = !sc.c.fullScan
	for k, src := range sp.sources {
		var in, out []tuple.Tuple
		if d := sp.srcRel[k]; d != nil {
			in, out = d.inserted, d.deleted
		} else if node := sp.srcNode[k]; node.dirty() {
			var ok bool
			if in, out, ok = node.answerDelta(); !ok {
				return false, false
			}
		}
		if !src.Positive {
			in, out = out, in
		}
		sp.cur[k] = srcDelta{seeds: in, kills: out}
		pinned = pinned && (len(out) == 0 || sp.pins[k])
	}
	return true, pinned
}

// eachTouched calls f with every answer row a kill row pins (scratch;
// repeats possible) until f returns false. Valid after a pinned load.
func (sp *seededPlan) eachTouched(f func(row tuple.Tuple) bool) error {
	stopped := false
	g := func(row tuple.Tuple) bool {
		stopped = !f(row)
		return !stopped
	}
	for k, src := range sp.sources {
		for _, row := range sp.cur[k].kills {
			if err := sp.plan.TouchedRows(src, row, g); err != nil || stopped {
				return err
			}
		}
	}
	return nil
}

// eachSeeded runs the plan from every source's seed rows, emitting the
// derived rows (scratch; repeats possible) until emit returns false.
// Valid after an exact load.
func (sp *seededPlan) eachSeeded(sc *stepCtx, emit func(row tuple.Tuple) bool) error {
	stopped := false
	g := func(row tuple.Tuple) bool {
		stopped = !emit(row)
		return !stopped
	}
	for k, src := range sp.sources {
		if seeds := sp.cur[k].seeds; len(seeds) > 0 {
			if err := sp.plan.ExecuteSeeded(sc.c.cur, sc.orc, src, seeds, g); err != nil || stopped {
				return err
			}
		}
	}
	return nil
}

// deltaSlot returns rel's reusable net-delta slot, creating it on first
// use; slots live as long as the checker, so plans resolve them once.
func (c *Checker) deltaSlot(rel string) *relDelta {
	if c.delta == nil {
		c.delta = make(map[string]*relDelta)
	}
	d := c.delta[rel]
	if d == nil {
		d = &relDelta{}
		c.delta[rel] = d
	}
	return d
}

// computeDelta fills sc.delta with the transaction's net effect on
// c.cur. Must run before the transaction is applied (it reads
// pre-membership). The per-relation slots persist across commits so the
// steady state allocates nothing.
func (c *Checker) computeDelta(sc *stepCtx, tx *storage.Transaction) error {
	for _, d := range c.delta {
		d.inserted = d.inserted[:0]
		d.deleted = d.deleted[:0]
	}
	ops := tx.Ops()
	// Only the last op on a given (relation, tuple) decides its final
	// membership; earlier ops on the same tuple are shadowed. Small
	// transactions detect shadowing by allocation-free pairwise scan;
	// large ones build a last-index map to stay linear.
	const smallTxOps = 32
	var lastOf map[string]int
	var kb []byte
	if len(ops) > smallTxOps {
		lastOf = make(map[string]int, len(ops))
		for i, op := range ops {
			kb = appendOpKey(kb[:0], op.Rel, op.Tuple)
			lastOf[string(kb)] = i
		}
	}
	for i, op := range ops {
		last := true
		if lastOf != nil {
			kb = appendOpKey(kb[:0], op.Rel, op.Tuple)
			last = lastOf[string(kb)] == i
		} else {
			for j := i + 1; j < len(ops); j++ {
				if ops[j].Rel == op.Rel && ops[j].Tuple.Equal(op.Tuple) {
					last = false
					break
				}
			}
		}
		if !last {
			continue
		}
		rel, err := c.cur.Relation(op.Rel)
		if err != nil {
			return err
		}
		pre := rel.Contains(op.Tuple)
		if pre == op.Insert {
			continue // no net change
		}
		d := c.deltaSlot(op.Rel)
		if op.Insert {
			d.inserted = append(d.inserted, op.Tuple)
		} else {
			d.deleted = append(d.deleted, op.Tuple)
		}
	}
	sc.delta = c.delta
	return nil
}

// appendOpKey appends a (relation, tuple) map key: the relation name, a
// NUL separator (relation names are identifiers), and the tuple key.
func appendOpKey(dst []byte, rel string, t tuple.Tuple) []byte {
	dst = append(dst, rel...)
	dst = append(dst, 0)
	return t.AppendKeyTo(dst)
}

// collectRels gathers the relations of the first-order skeleton of f —
// atoms not nested under a temporal operator, whose membership the
// formula's truth reads directly. Temporal subformulas are cut off:
// their state dependencies surface through node dirtiness instead.
func collectRels(f mtl.Formula, out map[string]bool) {
	switch n := f.(type) {
	case *mtl.Atom:
		out[n.Rel] = true
	case *mtl.Not:
		collectRels(n.F, out)
	case *mtl.And:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *mtl.Or:
		collectRels(n.L, out)
		collectRels(n.R, out)
	case *mtl.Exists:
		collectRels(n.F, out)
	case *mtl.Forall:
		collectRels(n.F, out)
	}
}

// skeletonRels returns collectRels as a sorted slice.
func skeletonRels(fs ...mtl.Formula) []string {
	set := map[string]bool{}
	for _, f := range fs {
		collectRels(f, set)
	}
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// domainDependent reports whether f's first-order skeleton can change
// truth when the active domain changes — universal quantification ranges
// over the active domain, so a commit touching *any* relation may flip
// it. Such formulas are never skipped or refreshed on unrelated commits.
func domainDependent(f mtl.Formula) bool {
	switch n := f.(type) {
	case *mtl.Forall:
		return true
	case *mtl.Not:
		return domainDependent(n.F)
	case *mtl.And:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Or:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Exists:
		return domainDependent(n.F)
	case *mtl.Implies:
		return domainDependent(n.L) || domainDependent(n.R)
	case *mtl.Iff:
		return domainDependent(n.L) || domainDependent(n.R)
	default:
		return false
	}
}

// directNodes resolves the outermost temporal subformulas of f to their
// auxiliary nodes (children of those nodes cascade through node
// dirtiness and need not be listed).
func (c *Checker) directNodes(fs ...mtl.Formula) []auxNode {
	var forms []mtl.Formula
	for _, f := range fs {
		directTemporal(f, &forms)
	}
	var out []auxNode
	seen := map[auxNode]bool{}
	for _, f := range forms {
		if n, ok := c.byNode[f]; ok && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}
