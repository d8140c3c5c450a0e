package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// rticdPath is the daemon binary TestMain builds for the whole package.
var rticdPath string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "e2ebench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rticdPath = filepath.Join(dir, "rticd")
	if out, err := exec.Command("go", "build", "-o", rticdPath, "rtic/cmd/rticd").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build rticd: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared is the metric catalogue of ../BENCHMARK.json.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTinyRunsPrintEveryMetric runs every workload briefly, in both
// modes, and requires exactly the declared metrics, each with its
// declared unit, and a clean output check.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range d.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for trace, want := range map[int][]struct{ Name, Unit string }{0: d.EndToEnd, 1: d.PerLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.name, trace), func(t *testing.T) {
				res, err := run(options{workload: w.name, seed: 1, trace: trace,
					rticd: rticdPath, workdir: t.TempDir(), commits: 200})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s has unit %q, want %q", m.Name, got.Unit, m.Unit)
					case trace == 0 && got.Value <= 0:
						t.Errorf("metric %s = %v, want a positive value", m.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestTamperedReferenceTripsOutputCheck corrupts the expected output of
// one measured commit and of the post-recovery commit: each must count
// as one failed operation.
func TestTamperedReferenceTripsOutputCheck(t *testing.T) {
	w, err := lookupWorkload("dense_violations")
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	f, err := newFeed(w, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if f.want[50].n == 0 {
		t.Fatal("commit 50 has no violations to tamper with")
	}
	f.want[50].sum++
	f.want[n].n++
	dir := t.TempDir()
	b := &bench{w: w, rticd: rticdPath, dir: dir, specPath: filepath.Join(dir, "spec.rtic"), f: f, n: n}
	if err := os.WriteFile(b.specPath, []byte(f.spec), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := b.round(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.prod.failed != 1 || !strings.HasPrefix(r.prod.firstFail, "commit 50 ") {
		t.Errorf("tampered commit: %d failures, first %q", r.prod.failed, r.prod.firstFail)
	}
	if r.probe.failed != 1 {
		t.Errorf("tampered post-recovery commit: %d failures", r.probe.failed)
	}
	if r.lost != "" {
		t.Errorf("recovery: %s", r.lost)
	}
}

// TestDigestIgnoresOrder pins the output check's canonical comparison:
// the same lines in another order agree, a changed line does not.
func TestDigestIgnoresOrder(t *testing.T) {
	lines := []string{"violation w001 violated at state 3 (time 9) by x=1", "violation w002 violated at state 3 (time 9) by x=2"}
	var a, b, c digest
	for i := range lines {
		a.add([]byte(lines[i]))
		b.add([]byte(lines[len(lines)-1-i]))
	}
	c.add([]byte(lines[0]))
	c.add([]byte(strings.Replace(lines[1], "x=2", "x=3", 1)))
	if a != b {
		t.Error("reordered lines digest differently")
	}
	if a == c {
		t.Error("changed line digests the same")
	}
}
