package check

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"rtic/internal/tuple"
	"rtic/internal/value"
)

// fmtViolation is the fmt-based rendering Violation.String produced
// before the append encoder replaced it; the golden reference below.
func fmtViolation(v Violation) string {
	if len(v.Vars) == 0 {
		return fmt.Sprintf("%s violated at state %d (time %d)", v.Constraint, v.Index, v.Time)
	}
	s := fmt.Sprintf("%s violated at state %d (time %d) by ", v.Constraint, v.Index, v.Time)
	for i, name := range v.Vars {
		if i > 0 {
			s += ", "
		}
		s += name + "=" + fmtValue(v.Binding[i])
	}
	return s
}

func fmtValue(v value.Value) string {
	if v.Kind() == value.KindInt {
		return strconv.FormatInt(v.AsInt(), 10)
	}
	return "'" + strings.ReplaceAll(v.AsString(), "'", "''") + "'"
}

func encodeCases() []Violation {
	return []Violation{
		{Constraint: "closed", Index: 0, Time: 0},
		{Constraint: "closed_big", Index: math.MaxInt, Time: math.MaxUint64},
		{Constraint: "neg", Index: 3, Time: 77, Vars: []string{"e"}, Binding: tuple.Tuple{value.Int(-42)}},
		{Constraint: "zero", Index: 1, Time: 2, Vars: []string{"e"}, Binding: tuple.Tuple{value.Int(0)}},
		{Constraint: "min", Index: 5, Time: 9, Vars: []string{"e"}, Binding: tuple.Tuple{value.Int(math.MinInt64)}},
		{Constraint: "max", Index: 5, Time: 9, Vars: []string{"e"}, Binding: tuple.Tuple{value.Int(math.MaxInt64)}},
		{Constraint: "empty", Index: 2, Time: 4, Vars: []string{"s"}, Binding: tuple.Tuple{value.Str("")}},
		{Constraint: "quote", Index: 2, Time: 4, Vars: []string{"s"}, Binding: tuple.Tuple{value.Str("it's")}},
		{Constraint: "quotes", Index: 2, Time: 4, Vars: []string{"s"}, Binding: tuple.Tuple{value.Str("''x'")}},
		{Constraint: "multi", Index: 314, Time: 1 << 40,
			Vars:    []string{"a", "b", "c", "d"},
			Binding: tuple.Tuple{value.Int(7), value.Str("o'neil"), value.Int(-1), value.Str("plain text")}},
	}
}

func TestViolationEncodingGolden(t *testing.T) {
	for _, v := range encodeCases() {
		want := fmtViolation(v)
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
		prefix := []byte("violation ")
		if got := string(v.AppendText(prefix)); got != "violation "+want {
			t.Errorf("AppendText = %q, want %q", got, "violation "+want)
		}
		for _, b := range v.Binding {
			if got, want := b.String(), fmtValue(b); got != want {
				t.Errorf("Value.String() = %q, want %q", got, want)
			}
		}
	}
}

func TestViolationAppendTextAllocationFree(t *testing.T) {
	cases := encodeCases()
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(100, func() {
		buf = buf[:0]
		for _, v := range cases {
			buf = v.AppendText(buf)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendText into a warm buffer: %v allocs/run, want 0", allocs)
	}
}
