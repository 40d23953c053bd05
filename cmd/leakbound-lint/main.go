// Command leakbound-lint is the repo's multichecker: it runs the six
// leakbound analyzers over the requested packages and exits nonzero if
// any diagnostic survives directive filtering. `make lint` runs it as
// `go run ./cmd/leakbound-lint ./...` alongside go vet (which owns lock
// copies), gofmt, and staticcheck, so the determinism/context/telemetry
// invariants the paper's oracle argument rests on are machine-checked on
// every push.
//
// Four analyzers work a package at a time (ctxflow, errwrap, locks,
// telemetryscope); two are interprocedural and see the whole load at once
// (detflow, hotalloc), chasing facts through the call graph bottom-up.
//
// A diagnostic is suppressed by a directive comment on the same line or
// the line above:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// The reason is mandatory; "all" matches every analyzer. Interprocedural
// findings carry the call chain, and a directive on any call site along
// the chain suppresses the finding too. A full run (no -only) also
// reports every directive name that suppressed nothing.
//
// -sarif writes the findings as a SARIF 2.1.0 log (for GitHub code
// scanning upload); -timing prints per-analyzer wall time to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/ctxflow"
	"leakbound/internal/analysis/detflow"
	"leakbound/internal/analysis/errwrap"
	"leakbound/internal/analysis/hotalloc"
	"leakbound/internal/analysis/locks"
	"leakbound/internal/analysis/telemetryscope"
)

// analyzers is the full suite in presentation order.
var analyzers = []*analysis.Analyzer{
	ctxflow.Analyzer,
	detflow.Analyzer,
	errwrap.Analyzer,
	hotalloc.Analyzer,
	locks.Analyzer,
	telemetryscope.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the multichecker: 0 clean, 1 findings, 2 usage or load
// failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("leakbound-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	sarif := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	timing := fs.Bool("timing", false, "print per-analyzer wall time to stderr")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: leakbound-lint [flags] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the leakbound analyzer suite (defaults to ./...):\n\n")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-15s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	selected, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	findings, timings, err := analysis.RunTimed(pkgs, selected, *only == "")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *timing {
		for _, tm := range timings {
			fmt.Fprintf(stderr, "leakbound-lint: %-15s %v\n", tm.Name, tm.Duration.Round(timingResolution))
		}
	}
	if *sarif != "" {
		if err := writeSARIFFile(*sarif, selected, findings); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "leakbound-lint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// timingResolution keeps -timing output readable without burying the
// signal in nanoseconds.
const timingResolution = 100 * time.Microsecond

// writeSARIFFile writes the findings as a SARIF log rooted at the
// current directory (so artifact URIs are repo-relative).
func writeSARIFFile(path string, selected []*analysis.Analyzer, findings []analysis.Finding) error {
	root, err := os.Getwd()
	if err != nil {
		return fmt.Errorf("leakbound-lint: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("leakbound-lint: %w", err)
	}
	if err := analysis.WriteSARIF(f, root, selected, findings); err != nil {
		f.Close()
		return fmt.Errorf("leakbound-lint: %w", err)
	}
	return f.Close()
}

// selectAnalyzers resolves the -only flag against the suite; unknown
// names are a usage error listing the registry, mirroring the
// ErrUnknownScheme style in internal/leakage.
func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	known := make([]string, 0, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
		known = append(known, a.Name)
	}
	var selected []*analysis.Analyzer
	for _, name := range splitComma(only) {
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("leakbound-lint: unknown analyzer %q (known: %s)", name, strings.Join(known, ", "))
		}
		selected = append(selected, a)
	}
	return selected, nil
}

// splitComma splits on commas, dropping empty elements.
func splitComma(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
