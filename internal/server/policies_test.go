package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// post sends a JSON body and returns status, headers, and body.
func post(t *testing.T, client *http.Client, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, out
}

// TestPoliciesEndpoint is the acceptance check: /api/v1/policies lists at
// least 8 schemes, each with a name, doc, and parameter schemas.
func TestPoliciesEndpoint(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := get(t, ts.Client(), ts.URL+"/api/v1/policies", nil)
	if status != http.StatusOK {
		t.Fatalf("policies: %d %s", status, body)
	}
	var out struct {
		Schemes []struct {
			Name       string `json:"name"`
			Doc        string `json:"doc"`
			Positional string `json:"positional"`
			Params     []struct {
				Name    string `json:"name"`
				Kind    string `json:"kind"`
				Doc     string `json:"doc"`
				Default string `json:"default"`
			} `json:"params"`
		} `json:"schemes"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Schemes) < 8 {
		t.Fatalf("policies lists %d schemes, want >= 8", len(out.Schemes))
	}
	byName := map[string]bool{}
	for _, sc := range out.Schemes {
		byName[sc.Name] = true
		if sc.Doc == "" {
			t.Errorf("scheme %q has no doc", sc.Name)
		}
	}
	for _, want := range []string{"opt-hybrid", "opt-sleep", "coloring", "waymemo"} {
		if !byName[want] {
			t.Errorf("policies missing scheme %q", want)
		}
	}
	for _, sc := range out.Schemes {
		if sc.Name != "opt-sleep" {
			continue
		}
		if sc.Positional != "theta" || len(sc.Params) != 1 || sc.Params[0].Kind != "uint" {
			t.Errorf("opt-sleep schema wrong: %+v", sc)
		}
	}
}

// TestEvalPost checks that the structured POST body evaluates identically
// to the equivalent GET spelling, and that different bodies do not share
// a cache entry.
func TestEvalPost(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, getBody := get(t, ts.Client(),
		ts.URL+"/api/v1/eval?benchmark=gzip&cache=i&policy=opt-sleep@5000", nil)
	status, _, postBody := post(t, ts.Client(), ts.URL+"/api/v1/eval",
		`{"benchmark":"gzip","cache":"i","policy":{"scheme":"opt-sleep","params":{"theta":5000}}}`)
	if status != http.StatusOK {
		t.Fatalf("POST eval: %d %s", status, postBody)
	}
	if string(postBody) != string(getBody) {
		t.Errorf("structured POST diverges from GET spelling:\n%s\nvs\n%s", postBody, getBody)
	}
	// Spec-string policy in the body works too.
	status, _, strBody := post(t, ts.Client(), ts.URL+"/api/v1/eval",
		`{"benchmark":"gzip","cache":"i","policy":"opt-sleep@5000"}`)
	if status != http.StatusOK || string(strBody) != string(getBody) {
		t.Errorf("string-policy POST: %d, equal=%v", status, string(strBody) == string(getBody))
	}
	// A different body must not hit the first body's cache entry.
	status, hdr, otherBody := post(t, ts.Client(), ts.URL+"/api/v1/eval",
		`{"benchmark":"gzip","cache":"i","policy":"opt-sleep@9000"}`)
	if status != http.StatusOK {
		t.Fatalf("POST eval (other): %d %s", status, otherBody)
	}
	if hdr.Get("X-Cache") == "hit" {
		t.Error("different POST body served from cache")
	}
	if string(otherBody) == string(getBody) {
		t.Error("different theta returned identical evaluation")
	}
	// Identical repeat POST is a cache hit.
	_, hdr2, _ := post(t, ts.Client(), ts.URL+"/api/v1/eval",
		`{"benchmark":"gzip","cache":"i","policy":"opt-sleep@9000"}`)
	if hdr2.Get("X-Cache") != "hit" {
		t.Errorf("repeat POST X-Cache = %q, want hit", hdr2.Get("X-Cache"))
	}
}

// TestSweepPostGeneralized sweeps a non-theta parameter (waymemo accuracy)
// through the structured body.
func TestSweepPostGeneralized(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := post(t, ts.Client(), ts.URL+"/api/v1/sweep",
		`{"policy":"waymemo","param":"accuracy","cache":"i","values":[0.5,0.9,1.0]}`)
	if status != http.StatusOK {
		t.Fatalf("POST sweep: %d %s", status, body)
	}
	var out struct {
		Policy string `json:"policy"`
		Param  string `json:"param"`
		Points []struct {
			Value   float64 `json:"value"`
			Savings float64 `json:"savings"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Policy != "waymemo" || out.Param != "accuracy" || len(out.Points) != 3 {
		t.Fatalf("sweep shape wrong: %+v", out)
	}
	// Higher accuracy never loses savings (fewer mispredict charges).
	if out.Points[0].Savings > out.Points[2].Savings {
		t.Errorf("savings not monotone in accuracy: %+v", out.Points)
	}
	// Positional default: omitting param sweeps the scheme's positional.
	status, _, body = post(t, ts.Client(), ts.URL+"/api/v1/sweep",
		`{"policy":"coloring","cache":"i","values":[4,64,1024]}`)
	if status != http.StatusOK {
		t.Fatalf("POST sweep coloring: %d %s", status, body)
	}
}

// TestParetoEndpoint is the acceptance check: the frontier is non-empty,
// contains the OPT-Hybrid point, and every frontier point is genuinely
// non-dominated within the response.
func TestParetoEndpoint(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, _, body := get(t, ts.Client(), ts.URL+"/api/v1/pareto?cache=i", nil)
	if status != http.StatusOK {
		t.Fatalf("pareto: %d %s", status, body)
	}
	var out struct {
		Cache  string `json:"cache"`
		Points []struct {
			Spec              string  `json:"spec"`
			Policy            string  `json:"policy"`
			NormalizedLeakage float64 `json:"normalized_leakage"`
			InducedMissRate   float64 `json:"induced_miss_rate"`
			Frontier          bool    `json:"frontier"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Points) < 8 {
		t.Fatalf("pareto evaluated %d points, want >= 8", len(out.Points))
	}
	foundHybrid := false
	for _, p := range out.Points {
		if p.Spec == "opt-hybrid" {
			foundHybrid = true
			if !p.Frontier {
				t.Error("opt-hybrid not on the frontier")
			}
		}
		if p.Spec == "active" && p.Frontier {
			t.Error("always-active on the frontier despite opt-drowsy dominating it")
		}
	}
	if !foundHybrid {
		t.Error("opt-hybrid point missing from the default pareto population")
	}
	// Cross-check the frontier marks against the dominance definition.
	for i, p := range out.Points {
		dominated := false
		for j, q := range out.Points {
			if i == j {
				continue
			}
			if q.NormalizedLeakage <= p.NormalizedLeakage && q.InducedMissRate <= p.InducedMissRate &&
				(q.NormalizedLeakage < p.NormalizedLeakage || q.InducedMissRate < p.InducedMissRate) {
				dominated = true
				break
			}
		}
		if p.Frontier == dominated {
			t.Errorf("%s: frontier=%v but dominated=%v", p.Spec, p.Frontier, dominated)
		}
	}
	// Explicit population through the POST body.
	status, _, body = post(t, ts.Client(), ts.URL+"/api/v1/pareto",
		`{"cache":"i","policies":["opt-hybrid","opt-drowsy",{"scheme":"coloring","params":{"colors":8}}]}`)
	if status != http.StatusOK {
		t.Fatalf("POST pareto: %d %s", status, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode POST pareto: %v", err)
	}
	if len(out.Points) != 3 {
		t.Errorf("POST pareto returned %d points, want 3", len(out.Points))
	}
}

// TestNewEndpointBadRequests pins the 400 surface of the new API.
func TestNewEndpointBadRequests(t *testing.T) {
	s, _ := newTestServer(t, 0.02, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, c := range []struct{ path, body string }{
		{"/api/v1/eval", `{"benchmark":"gzip","policy":"nope"}`},
		{"/api/v1/eval", `{"benchmark":"gzip","policy":{"scheme":""}}`},
		{"/api/v1/eval", `{"benchmark":"gzip","policy":{"scheme":"opt-sleep","params":{"bogus":1}}}`},
		{"/api/v1/eval", `{"benchmark":"gzip","policy":{"scheme":"opt-sleep","params":{"theta":5000,"Theta":7000}}}`},
		{"/api/v1/eval", `{"unknown_field":1}`},
		{"/api/v1/eval", `not json`},
		{"/api/v1/sweep", `{"policy":"nope","values":[1]}`},
		{"/api/v1/sweep", `{"policy":"opt-sleep","param":"bogus","values":[1]}`},
		{"/api/v1/sweep", `{"policy":"waymemo","values":[]}`}, // waymemo positional is a float, not a theta ladder
		{"/api/v1/pareto", `{"policies":["nope"]}`},
	} {
		status, _, body := post(t, ts.Client(), ts.URL+c.path, c.body)
		if status != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400 (body %s)", c.path, c.body, status, body)
		}
	}
	if status, _, body := get(t, ts.Client(), ts.URL+"/api/v1/pareto?policy=nope", nil); status != http.StatusBadRequest {
		t.Errorf("GET pareto?policy=nope: %d, want 400 (%s)", status, body)
	}
}
