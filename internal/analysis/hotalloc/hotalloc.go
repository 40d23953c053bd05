// Package hotalloc enforces the //lint:hotpath contract: a marked
// function — and everything statically reachable from it — must stay
// allocation-free and devirtualized in steady state. It is the static
// counterpart of the repo's zero-alloc benchmark gates (the streaming
// suite pass, BenchmarkReplayPass): the benchmark proves one workload's
// execution allocated nothing, the analyzer proves no code path can.
//
// Markers come in two tiers:
//
//	//lint:hotpath        — the whole body is steady-state ("full"): every
//	                        potential allocation and every dynamic call is
//	                        a finding. For leaf kernels (u64map.Pages.Lookup,
//	                        prefetch.ClassifyObserve).
//	//lint:hotpath entry  — the function is a hot loop's entry point: loop
//	                        bodies are steady-state, straight-line setup is
//	                        not. Static calls made inside loops push their
//	                        callees to full; calls from setup propagate
//	                        entry-ness; function literals and method values
//	                        referenced anywhere become full (callbacks
//	                        registered during setup run hot).
//
// Error exits are exempt in both tiers — returns built from
// fmt.Errorf/errors.New/errors.Join, nil-guard bodies that exit with an
// error, and panics are once-per-failure, not steady-state. Anything the
// exemption does not cover needs an explicit //lint:ignore with the
// amortization argument; the runner honors the directive on any call site
// of the reported chain, so one annotated edge sanctions everything
// reached through it.
//
// A fixed roster of functions (the hot paths the committed benchmarks
// measure) is required to carry a marker: deleting the marker is itself a
// finding, so the contract cannot silently lapse.
//
// Soundness caveats: static calls into packages outside the program
// (stdlib) are assumed allocation-free at the callee level — argument
// boxing at such calls is still caught; dynamic calls are flagged rather
// than traversed, which is exactly the devirtualization contract.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name:       "hotalloc",
	Doc:        "enforce //lint:hotpath contracts: marked functions stay transitively allocation-free and devirtualized",
	RunProgram: run,
}

// tier is a function's hotness level; propagation only ever increases it.
type tier int

const (
	cool tier = iota
	entryTier
	fullTier
)

func (t tier) String() string {
	if t == entryTier {
		return "//lint:hotpath entry"
	}
	return "//lint:hotpath"
}

const markerPrefix = "//lint:hotpath"

// rosterEntry names a function that must carry a marker. Packages are
// matched by import-path suffix so analysistest fixtures exercise the
// check.
type rosterEntry struct {
	pkg  string // import path suffix
	recv string // receiver type name, "" for package functions
	name string
	tier tier
}

// roster is the set of hot paths backed by committed benchmark gates:
// the streaming simulator pass (BENCH r2), the aggregate evaluation
// kernels (BENCH r3), and the zero-alloc replay pass (BENCH r4).
var roster = []rosterEntry{
	{pkg: "internal/sim/cpu", name: "RunStreamContext", tier: entryTier},
	{pkg: "internal/sim/cpu", name: "RunManyContext", tier: entryTier},
	{pkg: "internal/interval", recv: "Collector", name: "AddCols", tier: entryTier},
	{pkg: "internal/prefetch", recv: "Classifier", name: "ClassifyObserve", tier: fullTier},
	{pkg: "internal/leakage", name: "EvaluateAggregate", tier: entryTier},
	{pkg: "internal/leakage", name: "EvaluateMany", tier: entryTier},
	{pkg: "internal/u64map", recv: "Pages", name: "Lookup", tier: fullTier},
	{pkg: "internal/u64map", recv: "Pages", name: "Get", tier: fullTier},
	{pkg: "internal/workload/spec", recv: "Replay", name: "Emit", tier: fullTier},
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Build(pass.Packages)

	// Collect markers (reporting malformed ones) and check the roster.
	marked := make(map[*callgraph.Node]tier)
	for _, n := range g.Nodes {
		if n.Decl == nil {
			continue
		}
		t, bad := parseMarker(n.Decl.Doc)
		if bad != token.NoPos {
			pass.Reportf(bad, nil, "malformed %s directive: want %q or %q", markerPrefix, "//lint:hotpath", "//lint:hotpath entry")
		}
		if t != cool {
			marked[n] = t
		}
	}
	for _, e := range roster {
		for _, n := range g.Nodes {
			if !e.matches(n) {
				continue
			}
			if marked[n] != e.tier {
				pass.Reportf(n.Decl.Pos(), nil,
					"%s is on the hot-path roster (benchmark-gated) and must carry %s", n, e.tier)
				marked[n] = e.tier // analyze it as if marked: the contract still holds
			}
		}
	}

	// Propagate hotness through static calls and function references.
	level := make(map[*callgraph.Node]tier)
	provs := make(map[*callgraph.Node]provenance)
	colds := make(map[*callgraph.Node]spanSet)
	coldOf := func(n *callgraph.Node) spanSet {
		s, ok := colds[n]
		if !ok {
			s = coldSpans(n)
			colds[n] = s
		}
		return s
	}
	var work []*callgraph.Node
	raise := func(n *callgraph.Node, t tier, from *callgraph.Node, site token.Pos) {
		if t <= level[n] {
			return
		}
		level[n] = t
		if from != nil {
			provs[n] = provenance{parent: from, site: site}
		}
		work = append(work, n)
	}
	// Seed in graph order, not map order: the first raise to a node's final
	// tier fixes its reported chain, and so which call-site directive that
	// chain meets.
	for _, n := range g.Nodes {
		if t := marked[n]; t != cool {
			raise(n, t, nil, token.NoPos)
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		l := level[n]
		cold := coldOf(n)
		for _, c := range n.Calls {
			if c.Kind != callgraph.Static || c.Callee == nil || cold.contains(c.Site) {
				continue
			}
			t := fullTier
			if l == entryTier && !c.InLoop {
				t = entryTier
			}
			raise(c.Callee, t, n, c.Site)
		}
		// A referenced function value may be invoked from the hot loop no
		// matter where the reference sits — callbacks wired during setup
		// (flush closures, emit methods) run per batch.
		for _, r := range n.Refs {
			if r.Target == nil || cold.contains(r.Pos) {
				continue
			}
			raise(r.Target, fullTier, n, r.Pos)
		}
	}

	// Flag allocations and dynamic calls in hot regions.
	for _, n := range g.Nodes {
		l := level[n]
		if l == cool {
			continue
		}
		cold := coldOf(n)
		loops := nodeLoops(n)
		hot := func(p token.Pos) bool {
			if cold.contains(p) {
				return false
			}
			return l == fullTier || loops.contains(p)
		}
		chain, via := trail(provs, n)
		for _, a := range analysis.Allocations(n.Pkg.TypesInfo, n.Body(), n.Sig()) {
			if hot(a.Pos) {
				pass.Reportf(a.Pos, chain, "%s on hot path %s", a.What, via)
			}
		}
		for _, c := range n.Calls {
			if c.Kind == callgraph.Static || !hot(c.Site) {
				continue
			}
			what := "dynamic function-value call"
			if c.Kind == callgraph.Interface {
				what = "dynamic interface call " + c.Fn.Name()
			}
			pass.Reportf(c.Site, chain, "%s on hot path %s (devirtualize or justify with //lint:ignore)", what, via)
		}
	}
	return nil
}

func (e rosterEntry) matches(n *callgraph.Node) bool {
	fn := n.Fn
	if fn == nil || fn.Name() != e.name || fn.Pkg() == nil || !analysis.PathHasSuffix(fn.Pkg().Path(), e.pkg) {
		return false
	}
	return recvName(n) == e.recv
}

// recvName returns the receiver's type name with pointerness erased, ""
// for package functions.
func recvName(n *callgraph.Node) string {
	sig, _ := n.Fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// parseMarker scans a declaration's doc comment for a hotpath marker; a
// non-zero bad position reports a directive that parsed as neither tier.
func parseMarker(doc *ast.CommentGroup) (tier, token.Pos) {
	if doc == nil {
		return cool, token.NoPos
	}
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, markerPrefix) {
			continue
		}
		switch strings.TrimSpace(strings.TrimPrefix(c.Text, markerPrefix)) {
		case "":
			return fullTier, token.NoPos
		case "entry":
			return entryTier, token.NoPos
		default:
			return cool, c.Pos()
		}
	}
	return cool, token.NoPos
}

// provenance records which caller first made a node hot, and through
// which call site — enough to rebuild one marked-root→finding chain.
type provenance struct {
	parent *callgraph.Node
	site   token.Pos
}

// trail reconstructs the propagation path from the marked root down to n:
// the chain positions (for directive filtering on any edge) and the
// human-readable route for the message.
func trail(provs map[*callgraph.Node]provenance, n *callgraph.Node) ([]token.Pos, string) {
	var nodes []*callgraph.Node
	var chain []token.Pos
	for cur := n; ; {
		nodes = append(nodes, cur)
		p, ok := provs[cur]
		if !ok {
			break
		}
		chain = append(chain, p.site)
		cur = p.parent
	}
	// nodes and chain are innermost-first; present them root-first.
	var names []string
	for i := len(nodes) - 1; i >= 0; i-- {
		names = append(names, nodes[i].String())
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, strings.Join(names, " → ")
}
