package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// SARIF output: the minimal subset of the Static Analysis Results
// Interchange Format 2.1.0 that GitHub code scanning consumes — one run,
// one tool driver with a rule per analyzer, and one result per finding
// with a physical location. URIs are emitted relative to root so the
// upload annotates PR diffs regardless of the runner's checkout path.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF encodes findings as a SARIF 2.1.0 log. analyzers supplies
// the rule table (every registered analyzer appears as a rule even with
// zero findings, plus the implicit "directives" rule for malformed and
// unused suppressions); root, when non-empty, is stripped from filenames so the
// log carries repo-relative URIs.
func WriteSARIF(w io.Writer, root string, analyzers []*Analyzer, findings []Finding) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: doc}})
	}
	rules = append(rules, sarifRule{
		ID:               "directives",
		ShortDescription: sarifMessage{Text: "report malformed or unused //lint:ignore suppression directives"},
	})
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: sarifURI(root, f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "leakbound-lint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifURI rewrites an absolute filename to a forward-slash path relative
// to root; filenames outside root (or with no root given) pass through
// slash-normalized.
func sarifURI(root, filename string) string {
	if root != "" {
		if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
			return filepath.ToSlash(rel)
		}
	}
	return filepath.ToSlash(filename)
}
