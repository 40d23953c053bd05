package experiments

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"testing"

	"leakbound/internal/leakage"
	"leakbound/internal/power"
)

// TestGoldenResultsUnchanged is the registry's regression anchor: with every
// policy now built through the registered factories, the scale-1 suite must
// render Figure 8 (both cache sides) and Table 2 byte-identically to the
// committed RESULTS.txt. It also evaluates every registered scheme at its
// defaults on the same suite first, so a registration whose factory perturbs
// shared state would be caught here rather than in a report diff.
func TestGoldenResultsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-1 golden check skipped in -short")
	}
	golden, err := os.ReadFile("../../RESULTS.txt")
	if err != nil {
		t.Fatalf("read RESULTS.txt: %v", err)
	}
	tech, err := power.TechnologyByName("70nm")
	if err != nil {
		t.Fatalf("70nm: %v", err)
	}
	s := MustNew(WithScale(1))

	// Every registered scheme builds and evaluates at defaults.
	for _, name := range PolicyNames() {
		pol, err := ParsePolicy(name, tech)
		if err != nil {
			t.Fatalf("ParsePolicy(%q): %v", name, err)
		}
		ev, err := s.EvaluateCellContext(context.Background(), "gzip", true, tech, pol)
		if err != nil {
			t.Fatalf("evaluate %q: %v", name, err)
		}
		if ev.Baseline <= 0 {
			t.Fatalf("%q: non-positive baseline %g", name, ev.Baseline)
		}
	}

	// The legacy theta spelling still builds the exact legacy policy value.
	pol, err := ParsePolicy("opt-sleep@8192", tech)
	if err != nil {
		t.Fatalf(`ParsePolicy("opt-sleep@8192"): %v`, err)
	}
	if !reflect.DeepEqual(pol, leakage.OPTSleep{Theta: 8192}) {
		t.Fatalf(`ParsePolicy("opt-sleep@8192") = %#v, want leakage.OPTSleep{Theta: 8192}`, pol)
	}

	check := func(section string, buf []byte) {
		t.Helper()
		if !bytes.Contains(golden, buf) {
			t.Errorf("%s output no longer matches RESULTS.txt; got:\n%s", section, buf)
		}
	}
	for _, iCache := range []bool{true, false} {
		tbl, err := Figure8TableContext(context.Background(), s, iCache)
		if err != nil {
			t.Fatalf("Figure8TableContext(context.Background(), iCache=%v): %v", iCache, err)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Fatalf("render figure 8: %v", err)
		}
		check("Figure 8", buf.Bytes())
	}
	tbl, err := Table2Context(context.Background(), s)
	if err != nil {
		t.Fatalf("Table2: %v", err)
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatalf("render table 2: %v", err)
	}
	check("Table 2", buf.Bytes())
}
