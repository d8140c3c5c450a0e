package plan

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rtic/internal/check"
	"rtic/internal/fol"
	"rtic/internal/formgen"
	"rtic/internal/mtl"
	"rtic/internal/schema"
	"rtic/internal/storage"
	"rtic/internal/tuple"
	"rtic/internal/value"
)

// fakeOracle serves deterministic pseudo-random answer sets for temporal
// subformulas, keyed by shape, so planned and tree-walk evaluation can
// be compared on formulas with temporal literals.
type fakeOracle struct {
	seed    int64
	domain  []value.Value
	answers map[string]*fol.Bindings
}

func newFakeOracle(seed int64, domain []value.Value) *fakeOracle {
	return &fakeOracle{seed: seed, domain: domain, answers: map[string]*fol.Bindings{}}
}

func (o *fakeOracle) answerFor(f mtl.Formula) *fol.Bindings {
	shape := f.String()
	if b, ok := o.answers[shape]; ok {
		return b
	}
	fv := mtl.FreeVars(f)
	b := fol.NewBindings(fv)
	h := int64(0)
	for _, c := range shape {
		h = h*31 + int64(c)
	}
	r := rand.New(rand.NewSource(o.seed ^ h))
	n := r.Intn(8)
	for i := 0; i < n; i++ {
		row := make(tuple.Tuple, len(fv))
		for j := range row {
			row[j] = o.domain[r.Intn(len(o.domain))]
		}
		if err := b.AddRow(row); err != nil {
			panic(err)
		}
	}
	o.answers[shape] = b
	return b
}

func (o *fakeOracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return o.answerFor(f), nil
	}
	return nil, fmt.Errorf("fakeOracle: non-temporal %q", f.String())
}

func (o *fakeOracle) Test(f mtl.Formula, env fol.Env) (bool, error) {
	switch f.(type) {
	case *mtl.Prev, *mtl.Once, *mtl.Since:
		return o.answerFor(f).Contains(env)
	}
	return false, fmt.Errorf("fakeOracle: non-temporal %q", f.String())
}

func testSchema(t *testing.T) *schema.Schema {
	t.Helper()
	return schema.NewBuilder().
		Relation("p", 1).
		Relation("q", 1).
		Relation("r", 2).
		Relation("s", 3).
		MustBuild()
}

func fill(t *testing.T, st *storage.State, rel string, rows ...[]int64) {
	t.Helper()
	r, err := st.Relation(rel)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		vs := make(tuple.Tuple, len(row))
		for i, n := range row {
			vs[i] = value.Int(n)
		}
		r.MustInsert(vs)
	}
}

// canon renders a binding set for comparison.
func canon(b *fol.Bindings) string {
	var rows []string
	for _, t := range b.Rows() {
		rows = append(rows, t.Key())
	}
	sort.Strings(rows)
	return strings.Join(rows, ";")
}

// assertAgree compiles f, runs it both ways, and compares answer sets.
func assertAgree(t *testing.T, st *storage.State, oracle fol.Oracle, f mtl.Formula) *Plan {
	t.Helper()
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatalf("Compile(%q): %v", f.String(), err)
	}
	got, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatalf("plan eval %q: %v", f.String(), err)
	}
	want, err := fol.NewEvaluator(st, oracle).Eval(f)
	if err != nil {
		t.Fatalf("tree-walk eval %q: %v", f.String(), err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("plan and tree-walk disagree on %q:\n plan: %s\n tree: %s", f.String(), got, want)
	}
	return p
}

func TestPlanMatchesTreeWalk(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "q", []int64{2}, []int64{4})
	fill(t, st, "r", []int64{1, 2}, []int64{2, 3}, []int64{3, 3}, []int64{2, 7})
	fill(t, st, "s", []int64{1, 2, 3}, []int64{2, 2, 2})
	oracle := newFakeOracle(7, []value.Value{value.Int(1), value.Int(2), value.Int(3), value.Int(7)})

	for _, src := range []string{
		"p(x)",
		"p(x) and q(x)",
		"p(x) and not q(x)",
		"p(x) and r(x, y)",
		"p(x) and r(x, y) and q(y)",
		"r(x, y) and r(y, z) and not r(x, z)",
		"r(x, x)",
		"p(x) and x = 2",
		"p(x) and y = x and r(x, y)",
		"r(x, y) and x < y",
		"p(x) or q(x)",
		"p(x) and not once q(x)",
		"p(x) and once[0,5] r(x, y)",
		"r(x, y) and not prev r(x, y)",
		"s(x, y, z) and r(x, y)",
		"p(x) and r(x, 2)",
	} {
		f := mtl.MustParse(src)
		assertAgree(t, st, oracle, f)
	}
}

func TestPlanClosedFormula(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{5})
	oracle := newFakeOracle(1, []value.Value{value.Int(5)})
	p := assertAgree(t, st, oracle, mtl.MustParse("p(5)"))
	b, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("closed true formula: want unit answer, got %s", b)
	}
	assertAgree(t, st, oracle, mtl.MustParse("p(6)"))
}

func TestPlanInputs(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "r", []int64{1, 2}, []int64{1, 3}, []int64{2, 9})
	f := mtl.MustParse("r(x, y)")
	p, err := Compile(f, st, []string{"x"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Eval(st, nil, fol.Env{"x": value.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("want 2 rows for x=1, got %s", b)
	}
	b.EachRow(func(row tuple.Tuple) bool {
		if !row[0].Equal(value.Int(1)) {
			t.Fatalf("input x not respected: %s", row)
		}
		return true
	})
	if _, err := p.Eval(st, nil, nil); err == nil {
		t.Fatal("missing input must error")
	}
}

func TestPlanNegatedExists(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "r", []int64{1, 5})
	f := mtl.Normalize(mtl.MustParse("p(x) and not (exists y: r(x, y))"))
	p := assertAgree(t, st, newFakeOracle(3, []value.Value{value.Int(1)}), f)
	if p.Seedable() {
		t.Fatal("plans with sub-probes must not report Seedable")
	}
}

func TestPlanInlinedExists(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "r", []int64{1, 5}, []int64{1, 6})
	f := mtl.Normalize(mtl.MustParse("p(x) and (exists y: r(x, y))"))
	p := assertAgree(t, st, newFakeOracle(3, []value.Value{value.Int(1)}), f)
	if p.Seedable() {
		t.Fatal("plans with inlined existentials must not report Seedable")
	}
}

func TestPlanUnsupportedShapesFallBack(t *testing.T) {
	st := storage.NewState(testSchema(t))
	// Nested disjunction inside a conjunction is out of plan shape.
	f := mtl.MustParse("p(x) and (q(x) or r(x, x))")
	if _, err := Compile(f, st, nil); err == nil {
		t.Fatal("nested disjunction must fail compilation")
	}
}

func TestPlanUsesIndex(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1})
	fill(t, st, "r", []int64{1, 2})
	f := mtl.MustParse("p(x) and r(x, y)")
	if _, err := Compile(f, st, nil); err != nil {
		t.Fatal(err)
	}
	r, err := st.Relation("r")
	if err != nil {
		t.Fatal(err)
	}
	if r.FindIndex([]int{0}) == nil {
		t.Fatal("compiling p(x) ∧ r(x,y) must register an index on r's first column")
	}
	c, err2 := Compile(f, st, nil)
	if err2 != nil {
		t.Fatal(err2)
	}
	cost := c.Cost()
	if !strings.Contains(cost.Shape, "idx(r)") {
		t.Fatalf("cost shape must show the indexed join, got %q", cost.Shape)
	}
	full, err := Compile(mtl.MustParse("p(x) and r(y, z)"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Cost().Weight <= cost.Weight {
		t.Fatalf("cross product (%d) must be priced above indexed join (%d)", full.Cost().Weight, cost.Weight)
	}
}

func TestPlanRetestRow(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2})
	fill(t, st, "q", []int64{2})
	f := mtl.MustParse("p(x) and not q(x)")
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Seedable() {
		t.Fatal("flat literal plan must be seedable")
	}
	for _, tc := range []struct {
		x    int64
		want bool
	}{{1, true}, {2, false}, {9, false}} {
		got, err := p.RetestRow(st, nil, tuple.Of(value.Int(tc.x)))
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Fatalf("RetestRow(x=%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestPlanExecuteSeeded(t *testing.T) {
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "q", []int64{2})
	f := mtl.MustParse("p(x) and not q(x)")
	p, err := Compile(f, st, nil)
	if err != nil {
		t.Fatal(err)
	}
	srcs := p.Sources()
	if len(srcs) != 2 {
		t.Fatalf("want 2 sources, got %v", srcs)
	}
	var pSrc, qSrc Source
	for _, s := range srcs {
		if s.IsRel && s.Rel == "p" && s.Positive {
			pSrc = s
		}
		if s.IsRel && s.Rel == "q" && !s.Positive {
			qSrc = s
		}
	}
	collect := func(src Source, rows ...tuple.Tuple) []string {
		var got []string
		if err := p.ExecuteSeeded(st, nil, src, rows, func(row tuple.Tuple) bool {
			got = append(got, row.Key())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return got
	}
	// A newly inserted p(3) derives the answer x=3 (q misses 3).
	if got := collect(pSrc, tuple.Of(value.Int(3))); len(got) != 1 {
		t.Fatalf("seed p(3): want 1 answer, got %v", got)
	}
	// A newly inserted p(2) derives nothing: q(2) holds.
	if got := collect(pSrc, tuple.Of(value.Int(2))); len(got) != 0 {
		t.Fatalf("seed p(2): want 0 answers, got %v", got)
	}
	// A deleted q(1) derives x=1 through the negated literal.
	if got := collect(qSrc, tuple.Of(value.Int(1))); len(got) != 1 {
		t.Fatalf("seed ¬q(1): want 1 answer, got %v", got)
	}
}

// TestPlanTouchedRows pins the answer rows a changed source row names:
// constants filter, repeated variables must agree, every occurrence of
// the source (across literals and disjuncts) pins its own row, and a
// source that leaves an output variable unbound does not pin at all.
func TestPlanTouchedRows(t *testing.T) {
	st := storage.NewState(testSchema(t))
	src := func(p *Plan, rel string, pos bool) Source {
		t.Helper()
		for _, s := range p.Sources() {
			if s.IsRel && s.Rel == rel && s.Positive == pos {
				return s
			}
		}
		t.Fatalf("%s: no source %s (positive=%v) in %v", p.Formula(), rel, pos, p.Sources())
		return Source{}
	}
	touched := func(p *Plan, s Source, row tuple.Tuple) string {
		t.Helper()
		var got []string
		if err := p.TouchedRows(s, row, func(r tuple.Tuple) bool {
			got = append(got, r.String())
			return true
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(got)
		return strings.Join(got, " ")
	}
	for _, tc := range []struct {
		formula, rel string
		positive     bool
		row          tuple.Tuple
		want         string
	}{
		{"r(x, 3) and not q(x)", "r", true, tuple.Ints(1, 3), "(1)"},
		{"r(x, 3) and not q(x)", "r", true, tuple.Ints(1, 4), ""},
		{"r(x, 3) and not q(x)", "q", false, tuple.Ints(5), "(5)"},
		{"r(x, x) and p(x)", "r", true, tuple.Ints(2, 2), "(2)"},
		{"r(x, x) and p(x)", "r", true, tuple.Ints(2, 1), ""},
		{"r(x, y) and r(y, x)", "r", true, tuple.Ints(1, 2), "(1, 2) (2, 1)"},
		{"p(x) and not q(x) or r(x, 1) and q(x)", "q", false, tuple.Ints(4), "(4)"},
		{"p(x) and not q(x) or r(x, 1) and q(x)", "q", true, tuple.Ints(4), "(4)"},
	} {
		p, err := Compile(mtl.MustParse(tc.formula), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := src(p, tc.rel, tc.positive)
		if !p.Pins(s) {
			t.Fatalf("%s: %v does not pin", tc.formula, s)
		}
		if got := touched(p, s, tc.row); got != tc.want {
			t.Errorf("%s: TouchedRows(%v, %v) = %q, want %q", tc.formula, s, tc.row, got, tc.want)
		}
	}
	p, err := Compile(mtl.MustParse("r(x, y) and p(x)"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Pins(src(p, "r", true)) || p.Pins(src(p, "p", true)) {
		t.Fatalf("r(x, y) must pin (x, y), p(x) must not")
	}
	if err := p.TouchedRows(src(p, "p", true), tuple.Ints(1), func(tuple.Tuple) bool { return true }); err == nil {
		t.Fatal("TouchedRows through a non-pinning source must fail")
	}
}

func TestPlanSeededMatchesDelta(t *testing.T) {
	// Randomized: apply a delta, check that full evaluation after equals
	// (surviving retested old answers) ∪ (seeded answers from the delta).
	r := rand.New(rand.NewSource(11))
	sch := testSchema(t)
	for trial := 0; trial < 200; trial++ {
		st := storage.NewState(sch)
		dom := int64(4)
		for _, rel := range []string{"p", "q"} {
			for v := int64(0); v < dom; v++ {
				if r.Intn(2) == 0 {
					fill(t, st, rel, []int64{v})
				}
			}
		}
		f := mtl.MustParse("p(x) and not q(x)")
		p, err := Compile(f, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		before, err := p.Eval(st, nil, nil)
		if err != nil {
			t.Fatal(err)
		}

		// Random net delta on p and q.
		type change struct {
			rel    string
			val    int64
			insert bool
		}
		var delta []change
		for _, rel := range []string{"p", "q"} {
			rr, _ := st.Relation(rel)
			for v := int64(0); v < dom; v++ {
				if r.Intn(3) != 0 {
					continue
				}
				has := rr.Contains(tuple.Of(value.Int(v)))
				if has {
					rr.Delete(tuple.Of(value.Int(v)))
					delta = append(delta, change{rel, v, false})
				} else {
					rr.MustInsert(tuple.Of(value.Int(v)))
					delta = append(delta, change{rel, v, true})
				}
			}
		}

		// Delta-driven: retest surviving old answers, seed from changes.
		got := fol.NewBindings(p.Vars())
		var iterErr error
		before.EachRow(func(row tuple.Tuple) bool {
			ok, err := p.RetestRow(st, nil, row)
			if err != nil {
				iterErr = err
				return false
			}
			if ok {
				if err := got.AddRow(row); err != nil {
					iterErr = err
					return false
				}
			}
			return true
		})
		if iterErr != nil {
			t.Fatal(iterErr)
		}
		for _, ch := range delta {
			src := Source{IsRel: true, Rel: ch.rel, Positive: ch.insert}
			if err := p.ExecuteSeeded(st, nil, src, []tuple.Tuple{tuple.Of(value.Int(ch.val))}, func(row tuple.Tuple) bool {
				if err := got.AddRow(row); err != nil {
					iterErr = err
					return false
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
		if iterErr != nil {
			t.Fatal(iterErr)
		}
		want, err := p.Eval(st, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if canon(got) != canon(want) {
			t.Fatalf("trial %d: delta-driven %s != full %s", trial, got, want)
		}
	}
}

// keyOracle serves fixed temporal answers by formula identity and
// probes them by encoded key, allocating nothing per call — the shape
// of the checker's own oracle.
type keyOracle map[mtl.Formula]*fol.Bindings

func (o keyOracle) Enumerate(f mtl.Formula) (*fol.Bindings, error) { return o[f], nil }

func (o keyOracle) Test(f mtl.Formula, env fol.Env) (bool, error) { return o[f].Contains(env) }

func (o keyOracle) TestKey(f mtl.Formula, key []byte) (bool, error) {
	return o[f].ContainsKeyBytes(key), nil
}

// TestPlanAllocationFree pins zero steady-state allocations on every
// entry point the checker runs per commit: full execution, and the
// delta-driven RetestRow, ExecuteSeeded and TouchedRows, through a
// relation source and through a temporal source.
func TestPlanAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	st := storage.NewState(testSchema(t))
	fill(t, st, "p", []int64{1}, []int64{2}, []int64{3})
	fill(t, st, "r", []int64{1, 2}, []int64{3, 4})
	fill(t, st, "q", []int64{2})
	p, err := Compile(mtl.MustParse("p(x) and r(x, y) and not q(y) and not once[0,5] q(x)"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	var relSrc, tempSrc Source
	orc := keyOracle{}
	for _, src := range p.Sources() {
		switch {
		case src.IsRel && src.Rel == "p":
			relSrc = src
		case !src.IsRel:
			tempSrc = src
			ans := fol.NewBindings([]string{"x"})
			if err := ans.AddRow(tuple.Ints(2)); err != nil {
				t.Fatal(err)
			}
			orc[src.Temp] = ans
		}
	}
	if relSrc.Rel == "" || tempSrc.Temp == nil {
		t.Fatalf("sources %v lack p or the once literal", p.Sources())
	}
	// A second plan whose temporal literal pins every output variable,
	// for TouchedRows through a temporal source.
	pinned, err := Compile(mtl.MustParse("p(x) and not once[0,5] q(x)"), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	var rSrc, pinnedTemp Source
	for _, src := range p.Sources() {
		if src.IsRel && src.Rel == "r" {
			rSrc = src
		}
	}
	for _, src := range pinned.Sources() {
		if !src.IsRel {
			pinnedTemp = src
			orc[src.Temp] = orc[tempSrc.Temp]
		}
	}
	if !p.Pins(rSrc) || pinnedTemp.Temp == nil || !pinned.Pins(pinnedTemp) {
		t.Fatalf("want pinning sources r(x, y) and once[0,5] q(x); got %v and %v", p.Sources(), pinned.Sources())
	}
	row, relSeeds, tempSeeds := tuple.Ints(1, 2), []tuple.Tuple{tuple.Ints(3)}, []tuple.Tuple{tuple.Ints(1)}
	hits := 0
	emit := func(tuple.Tuple) bool { hits++; return true }
	for name, run := range map[string]func() error{
		"Execute": func() error { return p.Execute(st, orc, nil, emit) },
		"RetestRow": func() error {
			_, err := p.RetestRow(st, orc, row)
			return err
		},
		"ExecuteSeeded/relation": func() error { return p.ExecuteSeeded(st, orc, relSrc, relSeeds, emit) },
		"ExecuteSeeded/temporal": func() error { return p.ExecuteSeeded(st, orc, tempSrc, tempSeeds, emit) },
		"TouchedRows/relation":   func() error { return p.TouchedRows(rSrc, row, emit) },
		"TouchedRows/temporal":   func() error { return pinned.TouchedRows(pinnedTemp, tempSeeds[0], emit) },
	} {
		if err := run(); err != nil { // warm the pool
			t.Fatalf("%s: %v", name, err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := run(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		})
		if allocs > 0 {
			t.Errorf("steady-state %s allocates %.1f objects/run, want 0", name, allocs)
		}
	}
	if hits == 0 {
		t.Fatal("no run derived a row; the gate would not cover the emit path")
	}
}

// formulaAgreesWithTreeWalk is the shared body of the fuzz target and
// its seed-corpus regression test.
func formulaAgreesWithTreeWalk(t *testing.T, formulaSeed, dataSeed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(formulaSeed))
	src := formgen.Constraint(r)
	f, err := mtl.Parse(src)
	if err != nil {
		t.Fatalf("formgen produced unparsable %q: %v", src, err)
	}
	con, err := check.Compile("fuzz", f, formgen.Schema())
	if err != nil {
		return // not safe; nothing to plan
	}
	st := storage.NewState(formgen.Schema())
	dr := rand.New(rand.NewSource(dataSeed))
	domain := make([]value.Value, 5)
	for i := range domain {
		domain[i] = value.Int(int64(i))
	}
	for _, name := range formgen.Schema().Names() {
		rel, err := st.Relation(name)
		if err != nil {
			t.Fatal(err)
		}
		n := dr.Intn(10)
		for i := 0; i < n; i++ {
			row := make(tuple.Tuple, rel.Arity())
			for j := range row {
				row[j] = domain[dr.Intn(len(domain))]
			}
			rel.MustInsert(row)
		}
	}
	oracle := newFakeOracle(dataSeed, domain)
	p, err := Compile(con.Denial, st, nil)
	if err != nil {
		return // unsupported shape: tree-walk fallback covers it
	}
	got, err := p.Eval(st, oracle, nil)
	if err != nil {
		t.Fatalf("plan eval of %q: %v", con.Denial.String(), err)
	}
	want, err := fol.NewEvaluator(st, oracle).Eval(con.Denial)
	if err != nil {
		t.Fatalf("tree-walk eval of %q: %v", con.Denial.String(), err)
	}
	if canon(got) != canon(want) {
		t.Fatalf("plan and tree-walk disagree on %q (seed %d/%d):\n plan: %s\n tree: %s",
			con.Denial.String(), formulaSeed, dataSeed, got, want)
	}
}

func TestPlanFuzzSeeds(t *testing.T) {
	for fs := int64(0); fs < 60; fs++ {
		for ds := int64(0); ds < 3; ds++ {
			formulaAgreesWithTreeWalk(t, fs, ds)
		}
	}
}

// FuzzPlanExec drives compiled-plan execution against the tree-walking
// evaluator on random formgen constraints over random states.
func FuzzPlanExec(f *testing.F) {
	f.Add(int64(1), int64(1))
	f.Add(int64(42), int64(7))
	f.Add(int64(1234), int64(99))
	f.Fuzz(func(t *testing.T, formulaSeed, dataSeed int64) {
		formulaAgreesWithTreeWalk(t, formulaSeed, dataSeed)
	})
}
