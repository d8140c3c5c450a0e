// Package core implements the paper's contribution: incremental checking
// of real-time (metric past-temporal) integrity constraints using
// bounded history encoding.
//
// The checker never stores the history. Instead, for every temporal
// subformula of every installed constraint it maintains a small
// auxiliary relation (see aux.go) that is updated once per committed
// transaction; the constraint's denial is then evaluated against the
// current state with temporal subformulas answered from the auxiliary
// relations. Space is bounded by the constraints' metric windows and the
// data that flowed through the database — independent of history length
// — and so is per-transaction checking time.
//
// A commit runs as an explicit four-phase pipeline:
//
//	apply   — validate and apply the transaction to the current state
//	update  — phase A of every auxiliary node, by dependency level
//	check   — evaluate every constraint's denial in the new state
//	carry   — phase B: compute then commit next-state carry-over
//
// Every phase runs on the goroutine that calls Step: the update phase
// walks the dependency levels (see schedule.go) in order, the check
// phase the constraints in installation order. A commit's work units
// cost a few microseconds each, less than handing them to another
// goroutine would.
package core

import (
	"fmt"
	"time"

	"rtic/internal/check"
	"rtic/internal/engine"
	"rtic/internal/fol"
	"rtic/internal/mtl"
	"rtic/internal/obs"
	"rtic/internal/plan"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
)

// Checker is the incremental bounded-history checker.
type Checker struct {
	schema      *schema.Schema
	cur         *storage.State
	constraints []*check.Constraint
	conNames    map[string]struct{}

	nodes []auxNode // registration order (children before parents)
	// carry lists the nodes with phase-B work (prev nodes), in
	// registration order; the carry phase runs over these only.
	carry  []auxNode
	byNode map[mtl.Formula]auxNode
	// byShape dedups structurally identical temporal subformulas across
	// constraints: one auxiliary node serves every occurrence with the
	// same canonical form (the form includes variable names and
	// intervals, so equal shape means equal semantics).
	byShape map[string]auxNode

	// The leveled update schedule: levels[0] holds nodes with no nested
	// temporal subformulas, levels[k] nodes whose deepest child sits at
	// k-1. Built incrementally by register/schedule.
	levels  [][]auxNode
	levelOf map[auxNode]int

	// mode selects the check-phase evaluation strategy: EvalPlanned (the
	// default) executes compiled query plans delta-driven, EvalTreeWalk
	// re-evaluates every denial with the tree-walking evaluator — the
	// reference path kept for differential testing.
	mode EvalMode
	// conStates holds the per-constraint planning state, parallel to
	// constraints; delta holds the reusable per-relation net-delta slots;
	// lastSkips records what the last planned commit did per constraint.
	conStates []*conState
	delta     map[string]*relDelta
	lastSkips []SkipInfo

	index   int
	now     uint64
	started bool

	pruningDisabled bool
	// fullScan disables the delta-proportional paths — targeted retests
	// of denial answers, ψ kept by delta in since/once nodes — so tests
	// can hold them against the full-scan fallbacks they replace.
	fullScan bool

	obs *obs.Observer
	// conMetrics caches the per-constraint metric handles (violation
	// counter, check-latency histogram), parallel to constraints, so the
	// commit path never does a labelled lookup.
	conMetrics []conMetrics
	// phaseHist caches the per-phase commit histograms
	// (rtic_step_phase_seconds), so phase accounting never does a
	// labelled lookup either. All nil when no metrics are attached.
	phaseHist [numPhases]*obs.Histogram
}

// Pipeline phase indices and their metric label values.
const (
	phaseApply = iota
	phaseUpdate
	phaseCheck
	phaseCarry
	numPhases
)

var phaseNames = [numPhases]string{"apply", "update", "check", "carry"}

type conMetrics struct {
	violations *obs.Counter
	seconds    *obs.Histogram
}

// Option configures a Checker at construction time.
type Option func(*Checker)

// EvalMode selects the check-phase evaluation strategy.
type EvalMode int

const (
	// EvalPlanned compiles denials to query plans at AddConstraint time
	// and evaluates them delta-driven: constraints whose read set a
	// commit did not touch reuse their previous answer, seedable plans
	// re-derive only the answers reachable from the commit's net delta,
	// and the rest execute their full plan. The default.
	EvalPlanned EvalMode = iota
	// EvalTreeWalk re-evaluates every denial and auxiliary update
	// formula with the tree-walking evaluator on every commit — the
	// original full-evaluation path, kept selectable for differential
	// testing against the planned path.
	EvalTreeWalk
)

// WithEvaluation selects the check-phase evaluation strategy.
func WithEvaluation(m EvalMode) Option {
	return func(c *Checker) { c.mode = m }
}

// conState is the per-constraint planning state: the compiled denial
// plan with its seedable sources (plan nil when the denial's shape is
// unsupported and the tree-walking evaluator takes over), the read-set
// index the skip decision consults, and the previous commit's denial
// answer for reuse and retesting.
type conState struct {
	seededPlan
	planErr string // why plan compilation fell back, for SkipInfo
	// readRels are the relations of the denial's first-order skeleton;
	// nodes the auxiliary nodes of its outermost temporal subformulas;
	// together they form the constraint's read set.
	readRels []string
	nodes    []auxNode
	// domDep marks denials with universal quantification, whose truth
	// can change with the active domain: never skipped.
	domDep bool
	// lastB is the denial's answer at the previous commit (planned mode
	// only); nil until the first check. keyBuf is scratch for probing it.
	lastB  *fol.Bindings
	keyBuf []byte
}

// New returns an empty checker over s. Install constraints with
// AddConstraint before the first Step.
func New(s *schema.Schema, opts ...Option) *Checker {
	c := &Checker{
		schema:   s,
		cur:      storage.NewState(s),
		conNames: make(map[string]struct{}),
		byNode:   make(map[mtl.Formula]auxNode),
		byShape:  make(map[string]auxNode),
		levelOf:  make(map[auxNode]int),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// DisablePruning turns off the window-pruning rules — the ablation knob
// of the space experiments. Answers are unaffected (stale timestamps
// simply never satisfy the window test) but auxiliary storage grows
// with history length instead of staying bounded. Must be called before
// constraints are added.
func (c *Checker) DisablePruning() error {
	if len(c.nodes) > 0 || c.started {
		return fmt.Errorf("core: DisablePruning must be called before constraints are added")
	}
	c.pruningDisabled = true
	return nil
}

// AddConstraint installs a compiled constraint and builds auxiliary
// nodes for its temporal subformulas. Constraints must be installed
// before the first transaction: the encoding summarizes the history from
// its beginning.
func (c *Checker) AddConstraint(con *check.Constraint) error {
	if c.started {
		return fmt.Errorf("core: constraint %q added after the history started; the auxiliary encoding would miss past states", con.Name)
	}
	if _, dup := c.conNames[con.Name]; dup {
		return fmt.Errorf("core: duplicate constraint %q", con.Name)
	}
	if err := c.compile(con.Denial); err != nil {
		return err
	}
	c.constraints = append(c.constraints, con)
	c.conNames[con.Name] = struct{}{}
	c.conStates = append(c.conStates, c.planConstraint(con))
	c.syncConMetrics()
	return nil
}

// planConstraint compiles the denial to a query plan and derives the
// constraint's read-set index. Plan compilation failures are recorded,
// not raised: the tree-walking evaluator handles every kernel shape.
func (c *Checker) planConstraint(con *check.Constraint) *conState {
	cs := &conState{
		readRels: skeletonRels(con.Denial),
		nodes:    c.directNodes(con.Denial),
		domDep:   domainDependent(con.Denial),
	}
	p, err := plan.Compile(con.Denial, c.cur, nil)
	if err != nil {
		cs.planErr = err.Error()
		return cs
	}
	cs.seededPlan = c.seedPlan(p)
	return cs
}

// SetObserver attaches (or detaches, with nil) the instrumentation
// sinks. Safe to call at any time between commits; pre-registers the
// per-constraint series so a scrape shows every constraint at zero.
func (c *Checker) SetObserver(o *obs.Observer) {
	c.obs = o
	c.conMetrics = nil
	c.syncConMetrics()
	c.phaseHist = [numPhases]*obs.Histogram{}
	if m, _ := o.Parts(); m != nil {
		for i, name := range phaseNames {
			c.phaseHist[i] = m.StepPhaseSeconds.With(name)
		}
	}
}

// syncConMetrics extends the cached per-constraint handles to cover
// every installed constraint.
func (c *Checker) syncConMetrics() {
	m, _ := c.obs.Parts()
	if m == nil {
		return
	}
	for i := len(c.conMetrics); i < len(c.constraints); i++ {
		name := c.constraints[i].Name
		c.conMetrics = append(c.conMetrics, conMetrics{
			violations: m.Violations.With(name),
			seconds:    m.ConstraintSeconds.With(name),
		})
	}
}

// compile walks the denial bottom-up and allocates one auxiliary node
// per temporal subformula occurrence.
func (c *Checker) compile(f mtl.Formula) error {
	switch n := f.(type) {
	case mtl.Truth, *mtl.Cmp:
		return nil
	case *mtl.Atom:
		return nil
	case *mtl.Not:
		return c.compile(n.F)
	case *mtl.And:
		if err := c.compile(n.L); err != nil {
			return err
		}
		return c.compile(n.R)
	case *mtl.Or:
		if err := c.compile(n.L); err != nil {
			return err
		}
		return c.compile(n.R)
	case *mtl.Exists:
		return c.compile(n.F)
	case *mtl.Prev:
		if err := c.compile(n.F); err != nil {
			return err
		}
		c.register(n, newPrevNode(n))
		return nil
	case *mtl.Once:
		if err := c.compile(n.F); err != nil {
			return err
		}
		node, err := newOnceNode(n, c.pruningDisabled)
		if err != nil {
			return err
		}
		c.register(n, node)
		return nil
	case *mtl.Since:
		if err := c.compile(n.L); err != nil {
			return err
		}
		if err := c.compile(n.R); err != nil {
			return err
		}
		node, err := newSinceNode(n, c.pruningDisabled)
		if err != nil {
			return err
		}
		c.register(n, node)
		return nil
	default:
		return fmt.Errorf("core: compile: non-kernel node %T (%q)", f, f.String())
	}
}

func (c *Checker) register(f mtl.Formula, node auxNode) {
	if _, ok := c.byNode[f]; ok {
		return
	}
	shape := f.String()
	if existing, ok := c.byShape[shape]; ok {
		// Alias this occurrence to the shared node; it is updated once
		// per transaction and answers for every occurrence.
		c.byNode[f] = existing
		return
	}
	c.byShape[shape] = node
	c.byNode[f] = node
	c.nodes = append(c.nodes, node)
	if _, ok := node.(*prevNode); ok {
		c.carry = append(c.carry, node)
	}
	c.schedule(f, node)
	c.bindNode(node)
}

// bindNode derives a freshly registered node's read set and compiles
// its update formula to a query plan. Children are registered before
// parents, so directNodes resolves every child.
func (c *Checker) bindNode(node auxNode) {
	switch n := node.(type) {
	case *prevNode:
		n.deps = c.depsOf(n.n.F)
		n.fPlan, _ = plan.Compile(n.n.F, c.cur, nil)
	case *sinceNode:
		n.lDeps = c.depsOf(n.left)
		n.rDeps = c.depsOf(n.right)
		p, _ := plan.Compile(n.right, c.cur, nil)
		n.psi = c.seedPlan(p)
	}
}

// depsOf derives the read set of a node formula.
func (c *Checker) depsOf(f mtl.Formula) nodeDeps {
	return nodeDeps{
		srcRels:  skeletonRels(f),
		children: c.directNodes(f),
		domDep:   domainDependent(f),
	}
}

// stepInstr carries one commit's instrumentation through the pipeline
// phases: the metric and trace sinks plus the commit span under
// construction. A nil *stepInstr is the fully disabled path.
type stepInstr struct {
	c    *Checker
	m    *obs.Metrics
	tr   obs.Tracer
	span *obs.Span // commit span; phases append children. May be nil.
}

func (si *stepInstr) tracer() obs.Tracer {
	if si == nil {
		return nil
	}
	return si.tr
}

// phaseScope times one pipeline phase: a histogram observation plus a
// child span. The zero scope (from a nil or metric-less stepInstr) is
// a no-op.
type phaseScope struct {
	si    *stepInstr
	idx   int
	span  *obs.Span
	start time.Time
}

// phase opens a scope for the given pipeline phase.
func (si *stepInstr) phase(idx int, name string) phaseScope {
	if si == nil || (si.c.phaseHist[idx] == nil && si.span == nil) {
		return phaseScope{}
	}
	ps := phaseScope{si: si, idx: idx, start: time.Now()}
	if si.span != nil {
		ps.span = si.span.Child(name, "")
	}
	return ps
}

// done closes the scope, attributing the elapsed time to the phase.
func (ps phaseScope) done(ops int, err error) {
	if ps.si == nil {
		return
	}
	d := time.Since(ps.start)
	if h := ps.si.c.phaseHist[ps.idx]; h != nil {
		h.Observe(d.Seconds())
	}
	if ps.span != nil {
		ps.span.Dur = d
		ps.span.Ops = ops
		ps.span.Err = err
	}
}

// Step commits a transaction at time t, updates every auxiliary node,
// and checks every constraint in the resulting state. With an observer
// attached it also records commit/phase/constraint timing, violation
// counts and auxiliary-storage gauges, emits step/node-update trace
// events, and hands a completed commit span tree to the span sink;
// without one the instrumentation path is a few nil checks.
func (c *Checker) Step(t uint64, tx *storage.Transaction) ([]check.Violation, error) {
	m, tr := c.obs.Parts()
	sink := c.obs.SpanSink()
	if m == nil && tr == nil && sink == nil {
		return c.step(t, tx, nil)
	}
	return c.observedStep(t, tx, m, tr, sink, true)
}

// observedStep is one instrumented commit: counters, latency histogram,
// the step trace event and the commit span, plus — when refresh is set;
// batch commits amortize it — the auxiliary-storage gauge refresh. The
// commit span closes after the refresh, so the gauge walk is
// attributed to the commit rather than left between spans.
func (c *Checker) observedStep(t uint64, tx *storage.Transaction, m *obs.Metrics, tr obs.Tracer, sink obs.SpanSink, refresh bool) ([]check.Violation, error) {
	si := &stepInstr{c: c, m: m, tr: tr}
	if sink != nil {
		si.span = &obs.Span{Name: obs.SpanCommit, Time: t, Start: time.Now(), Ops: tx.Len()}
	}
	start := time.Now()
	vs, err := c.step(t, tx, si)
	d := time.Since(start)
	if m != nil {
		if err != nil {
			m.CommitErrors.Inc()
		} else {
			m.Commits.Inc()
			m.CommitSeconds.Observe(d.Seconds())
			if refresh {
				c.refreshAuxGauges(m)
			}
		}
	}
	if tr != nil {
		tr.Trace(obs.TraceEvent{Op: obs.OpStep, Time: t, Duration: d, Err: err})
	}
	if sink != nil {
		si.span.Dur = time.Since(start)
		si.span.Err = err
		sink.ObserveSpan(si.span)
	}
	return vs, err
}

// refreshAuxGauges walks the auxiliary nodes and republishes the
// storage gauges — the one O(aux) piece of instrumentation, kept out of
// the per-step path of batch commits. In the daemon it runs under the
// commit lock, hence the allocation-free totals-only walk.
func (c *Checker) refreshAuxGauges(m *obs.Metrics) {
	st := c.Totals()
	m.AuxNodes.Set(int64(st.Nodes))
	m.AuxEntries.Set(int64(st.Entries))
	m.AuxTimestamps.Set(int64(st.Timestamps))
	m.AuxBytes.Set(int64(st.Bytes))
}

// StepBatch commits a sequence of transactions in order, refreshing the
// auxiliary-storage gauges once at the end instead of after every step
// (per-step counters, latencies and trace events are still recorded).
// On error the committed prefix stays committed and its violations are
// returned alongside the error.
func (c *Checker) StepBatch(steps []engine.Step) ([][]check.Violation, error) {
	m, tr := c.obs.Parts()
	sink := c.obs.SpanSink()
	if m != nil {
		defer c.refreshAuxGauges(m)
	}
	out := make([][]check.Violation, 0, len(steps))
	for i, s := range steps {
		var vs []check.Violation
		var err error
		if m == nil && tr == nil && sink == nil {
			vs, err = c.step(s.Time, s.Tx, nil)
		} else {
			vs, err = c.observedStep(s.Time, s.Tx, m, tr, sink, false)
		}
		if err != nil {
			return out, fmt.Errorf("core: batch step %d (t=%d): %w", i, s.Time, err)
		}
		out = append(out, vs)
	}
	return out, nil
}

// eval returns this commit's evaluator, built on first use and reused
// by every node update and constraint check of the commit, so the
// active domain is computed at most once per commit.
func (sc *stepCtx) eval() *fol.Evaluator {
	if sc.ev == nil {
		sc.ev = fol.NewEvaluator(sc.c.cur, sc.orc)
	}
	return sc.ev
}

// step runs the four-phase commit pipeline for one transaction,
// attributing each phase's time through si (nil = uninstrumented).
func (c *Checker) step(t uint64, tx *storage.Transaction, si *stepInstr) ([]check.Violation, error) {
	if c.started && t <= c.now {
		return nil, fmt.Errorf("core: non-increasing timestamp %d after %d", t, c.now)
	}
	sc := &stepCtx{
		c: c, t: t, planned: c.mode == EvalPlanned,
		orc: &oracle{c: c, now: t},
	}
	ps := si.phase(phaseApply, obs.SpanApply)
	err := c.applyPhase(sc, tx)
	ps.done(tx.Len(), err)
	if err != nil {
		return nil, err
	}

	ps = si.phase(phaseUpdate, obs.SpanUpdate)
	err = c.updatePhase(sc, t, si)
	ps.done(len(c.nodes), err)
	if err != nil {
		return nil, err
	}
	ps = si.phase(phaseCheck, obs.SpanCheck)
	out, err := c.checkPhase(sc, t, si)
	ps.done(len(c.constraints), err)
	if err != nil {
		return nil, err
	}
	ps = si.phase(phaseCarry, obs.SpanCarry)
	err = c.carryPhase(sc, t, si)
	ps.done(len(c.carry), err)
	if err != nil {
		return nil, err
	}

	c.index++
	c.now = t
	c.started = true
	return out, nil
}

// applyPhase validates the transaction, computes its net delta against
// the pre-state (planned mode), and applies it to the current state.
func (c *Checker) applyPhase(sc *stepCtx, tx *storage.Transaction) error {
	if err := tx.Validate(c.schema); err != nil {
		return err
	}
	if sc.planned {
		if err := c.computeDelta(sc, tx); err != nil {
			return err
		}
	}
	return c.cur.Apply(tx)
}

// updatePhase brings every auxiliary node's answer up to the new state,
// level by level (children before parents).
func (c *Checker) updatePhase(sc *stepCtx, t uint64, si *stepInstr) error {
	for _, level := range c.levels {
		if err := c.runNodePhase(sc, level, t, si, true, func(n auxNode, ev *fol.Evaluator) error {
			return n.phaseA(sc, ev, t)
		}); err != nil {
			return err
		}
	}
	return nil
}

// carryPhase computes the carry-over state for the next transition
// (all computations first, so nodes keep answering for this state),
// then commits it. Only prev nodes carry anything, so the phase runs
// over c.carry alone.
func (c *Checker) carryPhase(sc *stepCtx, t uint64, si *stepInstr) error {
	if len(c.carry) == 0 {
		return nil
	}
	if err := c.runNodePhase(sc, c.carry, t, si, false, func(n auxNode, ev *fol.Evaluator) error {
		return n.phaseBCompute(sc, ev, t)
	}); err != nil {
		return err
	}
	for _, node := range c.carry {
		node.phaseBCommit(t)
	}
	return nil
}

// runNodePhase drives one node phase over nodes in schedule order,
// stopping at the first error. Per-node trace events fire only when
// traceNodes is set AND the tracer wants OpNodeUpdate — the Enabled gate
// keeps formula rendering off the hot path when the sink would discard
// DEBUG events anyway.
func (c *Checker) runNodePhase(sc *stepCtx, nodes []auxNode, t uint64, si *stepInstr, traceNodes bool, f func(auxNode, *fol.Evaluator) error) error {
	if len(nodes) == 0 {
		return nil
	}
	tr := si.tracer()
	if !traceNodes || !obs.TraceEnabled(tr, obs.OpNodeUpdate) {
		tr = nil
	}
	ev := sc.eval()
	for _, node := range nodes {
		if tr == nil {
			if err := f(node, ev); err != nil {
				return err
			}
			continue
		}
		n0 := time.Now()
		err := f(node, ev)
		tr.Trace(obs.TraceEvent{
			Op: obs.OpNodeUpdate, Detail: node.formula().String(),
			Time: t, Duration: time.Since(n0), Err: err,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// checkPhase evaluates every constraint's denial against the new state
// in installation order, then emits the violations of all answers into
// one presized slice in that same order. Per-check trace events are
// gated on the tracer wanting OpConstraintCheck (the DEBUG-frequency
// op); metrics are recorded regardless.
func (c *Checker) checkPhase(sc *stepCtx, t uint64, si *stepInstr) ([]check.Violation, error) {
	n := len(c.constraints)
	if n == 0 {
		return nil, nil
	}
	if sc.planned && len(c.lastSkips) != n {
		c.lastSkips = make([]SkipInfo, n)
	}
	answers := make([]*fol.Bindings, n)
	var m *obs.Metrics
	if si != nil {
		m = si.m
	}
	tr := si.tracer()
	if !obs.TraceEnabled(tr, obs.OpConstraintCheck) {
		tr = nil
	}
	instrumented := m != nil || tr != nil
	ev := sc.eval()
	for i := range c.constraints {
		var c0 time.Time
		if instrumented {
			c0 = time.Now()
		}
		var err error
		answers[i], err = c.checkCon(ev, sc, i)
		if instrumented {
			d := time.Since(c0)
			if m != nil && i < len(c.conMetrics) {
				c.conMetrics[i].seconds.Observe(d.Seconds())
				if err == nil {
					c.conMetrics[i].violations.Add(uint64(answers[i].Len()))
				}
			}
			if tr != nil {
				tr.Trace(obs.TraceEvent{
					Op: obs.OpConstraintCheck, Detail: c.constraints[i].Name,
					Time: t, Duration: d, Err: err,
				})
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return c.emit(t, answers)
}

// emit turns the check phase's answers (parallel to constraints) into
// violation reports: one report slice and one binding-value array for
// the whole commit, sized from the answers, copied out so the caller
// owns every report.
func (c *Checker) emit(t uint64, answers []*fol.Bindings) ([]check.Violation, error) {
	total, width := 0, 0
	for i, b := range answers {
		total += b.Len()
		width += b.Len() * len(c.constraints[i].Vars)
	}
	if total == 0 {
		return nil, nil
	}
	out := make([]check.Violation, 0, total)
	vals := make(tuple.Tuple, 0, width)
	for i, b := range answers {
		var err error
		out, vals, err = check.AppendViolations(out, vals, c.constraints[i], c.index, t, b)
		if err != nil {
			return nil, fmt.Errorf("core: constraint %s at state %d: %w", c.constraints[i].Name, c.index, err)
		}
	}
	return out, nil
}

// checkCon evaluates constraint i's denial in the new state and
// returns its answer, which the caller may read until the commit ends.
// Planned mode takes the cheapest sound strategy: reuse the previous
// answer when the commit touched nothing the denial reads, re-derive
// semi-naively from the delta when every changed source has exact
// row-level changes, otherwise run the compiled plan in full — or the
// tree-walking evaluator when the denial's shape defeated plan
// compilation. Any error drops the previous answer, so the next commit
// runs the full plan.
func (c *Checker) checkCon(ev *fol.Evaluator, sc *stepCtx, i int) (*fol.Bindings, error) {
	con := c.constraints[i]
	var b *fol.Bindings
	var err error
	if sc.planned {
		cs := c.conStates[i]
		if err = c.checkPlanned(ev, sc, i, cs); err != nil {
			cs.lastB = nil
		}
		b = cs.lastB
	} else {
		b, err = ev.Eval(con.Denial)
	}
	if err != nil {
		return nil, fmt.Errorf("core: constraint %s at state %d: %w", con.Name, c.index, err)
	}
	return b, nil
}

// checkPlanned is checkCon's planned-mode body: it leaves cs.lastB
// holding the denial's answer in the new state.
func (c *Checker) checkPlanned(ev *fol.Evaluator, sc *stepCtx, i int, cs *conState) error {
	name := c.constraints[i].Name
	clean := !cs.domDep && !sc.relsChanged(cs.readRels) && !anyDirty(cs.nodes)
	var exact, pinned bool
	if !clean && cs.canSeed && cs.lastB != nil {
		exact, pinned = cs.load(sc)
	}
	switch {
	case clean && cs.lastB != nil:
		c.lastSkips[i] = SkipInfo{Constraint: name, Action: ActionSkipped, Reason: "read set untouched"}
	case exact:
		if err := c.seminaive(sc, cs, pinned); err != nil {
			return err
		}
		reason := "re-derived from delta"
		if !pinned {
			reason = "re-derived from delta, every row retested"
		}
		c.lastSkips[i] = SkipInfo{Constraint: name, Action: ActionSeeded, Reason: reason}
	case cs.plan != nil:
		b, err := cs.plan.Eval(c.cur, sc.orc, nil)
		if err != nil {
			return err
		}
		c.lastSkips[i] = SkipInfo{Constraint: name, Action: ActionPlanned, Reason: fullEvalReason(clean, cs)}
		cs.lastB = b
	default:
		b, err := ev.Eval(c.constraints[i].Denial)
		if err != nil {
			return err
		}
		cs.lastB = b
		c.lastSkips[i] = SkipInfo{Constraint: name, Action: ActionTreeWalk, Reason: cs.planErr}
	}
	return nil
}

// fullEvalReason explains why a planned constraint ran in full.
func fullEvalReason(clean bool, cs *conState) string {
	switch {
	case cs.lastB == nil:
		return "no previous answer"
	case clean:
		return "read set untouched but unseedable" // unreachable with lastB set
	case cs.domDep:
		return "domain-dependent denial"
	case !cs.canSeed:
		return "plan not seedable"
	default:
		return "inexact source delta"
	}
}

// seminaive brings the previous denial answer up to the new state in
// place (see seededPlan), after cs.load: cached rows a kill can falsify
// are retested and dropped when they fail — only the rows the kills pin
// when the changed sources pin them, every row otherwise — then the
// seeds derive the new rows into the same set. Sound only because
// cs.lastB is the checker's own set (a plan.Eval or seminaive output):
// the tree-walk path, whose answer may be a node's maintained set, never
// seeds.
func (c *Checker) seminaive(sc *stepCtx, cs *conState, pinned bool) (err error) {
	b := cs.lastB
	var rerr error
	if pinned {
		err = cs.eachTouched(func(row tuple.Tuple) bool {
			cs.keyBuf = row.AppendKeyTo(cs.keyBuf[:0])
			if !b.ContainsKeyBytes(cs.keyBuf) {
				return true
			}
			ok, err := cs.plan.RetestRow(c.cur, sc.orc, row)
			if err != nil {
				rerr = err
				return false
			}
			if !ok {
				b.RemoveKeyBytes(cs.keyBuf)
			}
			return true
		})
	} else {
		b.EachRowKey(func(key string, row tuple.Tuple) bool {
			ok, err := cs.plan.RetestRow(c.cur, sc.orc, row)
			if err != nil {
				rerr = err
				return false
			}
			if !ok {
				b.RemoveKey(key)
			}
			return true
		})
	}
	if err == nil {
		err = rerr
	}
	if err != nil {
		return err
	}
	err = cs.eachSeeded(sc, func(row tuple.Tuple) bool {
		rerr = b.AddRow(row)
		return rerr == nil
	})
	if err == nil {
		err = rerr
	}
	return err
}

// State returns the current database state; callers must not mutate it.
func (c *Checker) State() *storage.State { return c.cur }

// Len reports the number of committed states.
func (c *Checker) Len() int { return c.index }

// ConstraintNames returns the installed constraint names in order.
func (c *Checker) ConstraintNames() []string {
	out := make([]string, len(c.constraints))
	for i, con := range c.constraints {
		out[i] = con.Name
	}
	return out
}

// Now returns the timestamp of the latest state.
func (c *Checker) Now() uint64 { return c.now }

// Stats summarizes the auxiliary storage — the space side of the
// paper's claim (compare with the naive checker's HistoryBytes).
type Stats struct {
	Nodes      int
	Entries    int
	Timestamps int
	Bytes      int
	PerNode    []NodeStats
}

// Stats reports the current auxiliary storage of the checker, totals
// and one row per auxiliary node.
func (c *Checker) Stats() Stats {
	s := Stats{Nodes: len(c.nodes)}
	for _, n := range c.nodes {
		ns := n.usage()
		s.add(ns)
		ns.Formula = n.formula().String()
		s.PerNode = append(s.PerNode, ns)
	}
	return s
}

// Totals reports the Stats totals without the per-node rows: the same
// walk, building no slice and no formula strings. The auxiliary-storage
// gauges are refreshed from it after every observed commit.
//
//rtic:noalloc
func (c *Checker) Totals() Stats {
	s := Stats{Nodes: len(c.nodes)}
	for _, n := range c.nodes {
		s.add(n.usage())
	}
	return s
}

func (s *Stats) add(ns NodeStats) {
	s.Entries += ns.Entries
	s.Timestamps += ns.Timestamps
	s.Bytes += ns.Bytes
}

// CheckInvariants verifies the internal invariants of every auxiliary
// node (sorted, in-window, deduplicated timestamp sets, answer flags and
// running storage totals) and, in planned mode, that every primed
// seedable since/once node's cached ⟦ψ⟧ flags and every planned
// constraint's maintained denial answer equal a full execution of the
// plan on the current state; used by tests.
func (c *Checker) CheckInvariants() error {
	if !c.started {
		return nil
	}
	for _, n := range c.nodes {
		switch n := n.(type) {
		case *sinceNode:
			if err := n.invariants(c.now); err != nil {
				return err
			}
		case *prevNode:
			if n.has && n.storedBytes != n.stored.Size() {
				return fmt.Errorf("core: %q: cached size %d, stored answer has %d bytes", n.n.String(), n.storedBytes, n.stored.Size())
			}
		}
	}
	if c.mode != EvalPlanned {
		return nil
	}
	orc := servedOracle{&oracle{c: c, now: c.now}}
	for _, n := range c.nodes {
		s, ok := n.(*sinceNode)
		if !ok || !s.primed || !s.psi.canSeed {
			continue
		}
		want, err := s.psi.plan.Eval(c.cur, orc, nil)
		if err != nil {
			return fmt.Errorf("core: %q: re-evaluating ψ: %w", s.node.String(), err)
		}
		got := fol.NewBindings(s.vars)
		for _, e := range s.entries {
			if e.inRB {
				if err := got.AddRow(e.row); err != nil {
					return err
				}
			}
		}
		if !want.Equal(got) {
			return fmt.Errorf("core: %q: cached ψ rows %s, full plan evaluation %s", s.node.String(), got, want)
		}
	}
	for i, cs := range c.conStates {
		if cs.plan == nil || cs.lastB == nil {
			continue
		}
		want, err := cs.plan.Eval(c.cur, orc, nil)
		if err != nil {
			return fmt.Errorf("core: constraint %s: re-evaluating the plan: %w", c.constraints[i].Name, err)
		}
		if !want.Equal(cs.lastB) {
			return fmt.Errorf("core: constraint %s: maintained answer %s, full plan evaluation %s",
				c.constraints[i].Name, cs.lastB, want)
		}
	}
	return nil
}

// servedOracle answers temporal subformulas as the latest commit's
// check phase saw them. Since and once nodes still answer for that
// state, but prev nodes have already advanced to the next one in phase
// B, so they answer from the set they served.
type servedOracle struct{ o *oracle }

func (s servedOracle) answer(f mtl.Formula) (*fol.Bindings, error) {
	node, err := s.o.lookup(f)
	if err != nil {
		return nil, err
	}
	if p, ok := node.(*prevNode); ok {
		if p.lastServed == nil {
			return fol.NewBindings(p.fvars), nil
		}
		return p.lastServed, nil
	}
	return node.enumerate(s.o.now)
}

func (s servedOracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) { return s.answer(f) }

func (s servedOracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	b, err := s.answer(f)
	if err != nil {
		return false, err
	}
	return b.Contains(env)
}

// oracle resolves temporal nodes from the auxiliary state at the
// current evaluation time. Its lookups are read-only over maps frozen
// at AddConstraint time.
type oracle struct {
	c   *Checker
	now uint64
}

func (o *oracle) lookup(f mtl.Formula) (auxNode, error) {
	node, ok := o.c.byNode[f]
	if !ok {
		return nil, fmt.Errorf("core: no auxiliary state for temporal node %q; was the constraint compiled?", f.String())
	}
	return node, nil
}

func (o *oracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) {
	node, err := o.lookup(f)
	if err != nil {
		return nil, err
	}
	return node.enumerate(o.now)
}

func (o *oracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	node, err := o.lookup(f)
	if err != nil {
		return false, err
	}
	return node.test(env, o.now)
}

// TestKey probes a temporal node's answer by encoded row key without
// materializing an Env — the plan executor's fast path (plan.KeyTester).
func (o *oracle) TestKey(f mtl.Formula, key []byte) (bool, error) {
	node, err := o.lookup(f)
	if err != nil {
		return false, err
	}
	return node.testKey(key, o.now)
}
