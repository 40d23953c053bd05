package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// loadSource type-checks one import-free source string into a Package.
func loadSource(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := NewTypesInfo()
	conf := types.Config{}
	pkg, err := conf.Check("fixture", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return &Package{PkgPath: "fixture", Name: f.Name.Name, Fset: fset, Syntax: []*ast.File{f}, Types: pkg, TypesInfo: info}
}

// funcFlagger reports one diagnostic per function declaration.
var funcFlagger = &Analyzer{
	Name: "flagfuncs",
	Doc:  "test analyzer: flags every function declaration",
	Run: func(pass *Pass) (interface{}, error) {
		for _, f := range pass.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "function %s", fd.Name.Name)
				}
			}
		}
		return nil, nil
	},
}

func TestRunDirectiveSuppression(t *testing.T) {
	pkg := loadSource(t, `package fixture

func Flagged() {}

//lint:ignore flagfuncs justified in the test
func Suppressed() {}

//lint:ignore othercheck wrong analyzer name does not suppress
func WrongName() {}

//lint:ignore all wildcard suppresses every analyzer
func Wildcard() {}
`)
	findings, err := Run([]*Package{pkg}, []*Analyzer{funcFlagger})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Message)
	}
	want := []string{"function Flagged", "function WrongName"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("findings = %v, want %v", got, want)
	}
}

func TestRunMalformedDirective(t *testing.T) {
	pkg := loadSource(t, `package fixture

//lint:ignore flagfuncs
func MissingReason() {}
`)
	findings, err := Run([]*Package{pkg}, []*Analyzer{funcFlagger})
	if err != nil {
		t.Fatal(err)
	}
	// The malformed directive is itself a finding, and — lacking a reason —
	// it does not suppress the function diagnostic.
	if len(findings) != 2 {
		t.Fatalf("findings = %v, want malformed-directive + function", findings)
	}
	if findings[0].Analyzer != "directives" || !strings.Contains(findings[0].Message, "malformed") {
		t.Errorf("first finding = %+v, want malformed directive", findings[0])
	}
	if findings[1].Message != "function MissingReason" {
		t.Errorf("second finding = %+v, want the unsuppressed function", findings[1])
	}
}

// TestRunUnusedDirectives: a full run reports each directive name that
// suppressed nothing — a wrong or deleted analyzer name, or a directive
// over code that no longer trips the check — and a partial run does not.
// A directive a program analyzer consults as a reviewed site (detflow's
// sanctioned sources) counts as used.
func TestRunUnusedDirectives(t *testing.T) {
	pkg := loadSource(t, `package fixture

//lint:ignore flagfuncs,gone the second name suppresses nothing
func Suppressed() {}

//lint:ignore flagfuncs nothing to suppress on a variable
var x = 1

//lint:ignore reviewer consulted by the analyzer
var y = 2
`)
	reviewer := &Analyzer{
		Name: "reviewer",
		Doc:  "consults the directive above the last declaration",
		RunProgram: func(pass *ProgramPass) error {
			decls := pass.Packages[0].Syntax[0].Decls
			pass.Directives.Covers("reviewer", pass.Fset.Position(decls[len(decls)-1].Pos()))
			return nil
		},
	}
	findings, _, err := RunTimed([]*Package{pkg}, []*Analyzer{funcFlagger, reviewer}, true)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, fmt.Sprintf("%d %s %s", f.Pos.Line, f.Analyzer, f.Message))
	}
	want := []string{
		"3 directives //lint:ignore gone suppresses nothing: delete it",
		"6 directives //lint:ignore flagfuncs suppresses nothing: delete it",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("findings = %q, want %q", got, want)
	}
	if findings, err := Run([]*Package{pkg}, []*Analyzer{funcFlagger}); err != nil || len(findings) != 0 {
		t.Errorf("partial run = %v, %v; want no findings", findings, err)
	}
}

func TestRunFindingsSorted(t *testing.T) {
	pkg := loadSource(t, `package fixture

func B() {}

func A() {}
`)
	reverse := &Analyzer{
		Name: "reverse",
		Doc:  "reports in reverse declaration order to exercise sorting",
		Run: func(pass *Pass) (interface{}, error) {
			decls := pass.Files[0].Decls
			for i := len(decls) - 1; i >= 0; i-- {
				if fd, ok := decls[i].(*ast.FuncDecl); ok {
					pass.Reportf(fd.Pos(), "decl %s", fd.Name.Name)
				}
			}
			return nil, nil
		},
	}
	findings, err := Run([]*Package{pkg}, []*Analyzer{reverse})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 2 || findings[0].Message != "decl B" || findings[1].Message != "decl A" {
		t.Errorf("findings not in position order: %v", findings)
	}
}

func TestLoadTypeChecksModulePackages(t *testing.T) {
	pkgs, err := Load(".", "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 6 {
		t.Fatalf("Load(./...) from internal/analysis = %d packages, want the framework plus five analyzers", len(pkgs))
	}
	for _, p := range pkgs {
		if p.Types == nil || p.TypesInfo == nil || len(p.Syntax) == 0 {
			t.Errorf("package %s loaded without types or syntax", p.PkgPath)
		}
		if !strings.HasPrefix(p.PkgPath, "leakbound/internal/analysis") {
			t.Errorf("unexpected package %s from ./... in internal/analysis", p.PkgPath)
		}
	}
}
