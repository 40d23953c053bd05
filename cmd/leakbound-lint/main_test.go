package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestListPrintsEveryAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"ctxflow", "detflow", "errwrap", "hotalloc", "locks", "telemetryscope"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-only", "nosuch"}, &out, &errb); code != 2 {
		t.Fatalf("run(-only nosuch) = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr %q does not name the unknown analyzer", errb.String())
	}
}

func TestSelectAnalyzers(t *testing.T) {
	sel, err := selectAnalyzers("errwrap,locks")
	if err != nil || len(sel) != 2 || sel[0].Name != "errwrap" || sel[1].Name != "locks" {
		t.Errorf("selectAnalyzers(errwrap,locks) = %v, %v", sel, err)
	}
	if sel, err := selectAnalyzers(""); err != nil || len(sel) != len(analyzers) {
		t.Errorf("selectAnalyzers(\"\") = %d analyzers, %v; want the full suite", len(sel), err)
	}
}

// TestRepoIsClean dogfoods the whole suite over the module: the repo must
// stay lint-clean, the same gate `make lint` and CI apply.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-module lint in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root := filepath.Dir(filepath.Dir(wd)) // cmd/leakbound-lint -> module root
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	var out, errb strings.Builder
	if code := run([]string{"./..."}, &out, &errb); code != 0 {
		t.Errorf("leakbound-lint ./... = %d\n%s%s", code, out.String(), errb.String())
	}
}
