package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzPostBodies POSTs fuzzed bodies to the three endpoints that decode
// one — eval, sweep and pareto — on a tiny-scale server. Bad input must
// come back as a 4xx, never as a panic or an internal error (both
// counters stay 0), and every 200 body must be valid JSON. A spec that
// simulates for too long ends in a 504, which the request timeout bounds.
// Wired into `make fuzz-regress`, so the committed corpus replays in CI.
func FuzzPostBodies(f *testing.F) {
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, `{"benchmark":"gzip","cache":"d","tech":"100nm","policy":"opt-sleep@5088"}`},
		{0, `{"benchmark":"gzip","policy":{"scheme":"waymemo","params":{"accuracy":0.5}}}`},
		{0, `{"spec":` + testSpecJSON + `,"cache":"i","policy":"opt-hybrid"}`},
		{0, `{"benchmark":"gzip","spec":null,"policy":"sleep-decay@0"}`},
		{0, `{"benchmark":"nope"}`},
		{0, `{"benchmark":"gzip","policy":{"scheme":""}}`},
		{0, `{"benchmark":"gzip","extra":1}`},
		{0, `{"spec":{"version":1},"cache":"i"}`},
		{0, `[`},
		{0, ``},
		{1, `{"policy":"opt-sleep","values":[1057,4000,10000]}`},
		{1, `{"policy":"coloring","param":"colors","values":[1,8,1024]}`},
		{1, `{"policy":"waymemo","param":"accuracy","values":[0,0.5,1]}`},
		{1, `{"policy":"opt-sleep","values":[true,-1,1e300]}`},
		{1, `{"policy":"opt-drowsy","values":[1]}`},
		{1, `{"policy":"opt-hybrid","param":"nope","values":[1]}`},
		{1, `{"spec":` + testSpecJSON + `,"policy":"opt-hybrid","values":[2000]}`},
		{1, `{"policy":"opt-hybrid","cache":"x"}`},
		{1, `{"tech":"1nm"}`},
		{2, `{"cache":"d","policies":["opt-hybrid","opt-drowsy",{"scheme":"coloring","params":{"colors":8}}]}`},
		{2, `{"policies":["opt-sleep@0","periodic-drowsy@0","amc@0"]}`},
		{2, `{"policies":[null,"bogus"]}`},
		{2, `{"policies":[{"scheme":"waymemo","params":{"accuracy":2}}]}`},
		{2, `{}`},
	} {
		f.Add(seed.route, seed.body)
	}
	s, reg := newTestServer(f, 0.01, func(c *Config) { c.RequestTimeout = 5 * time.Second })
	h := s.Handler()
	sc := reg.Scope("server")
	routes := []string{"/api/v1/eval", "/api/v1/sweep", "/api/v1/pareto"}
	f.Fuzz(func(t *testing.T, route uint8, body string) {
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if n := sc.Counter("panics").Value(); n != 0 {
			t.Fatalf("POST %s %q: %d panics (status %d: %s)", path, body, n, rec.Code, rec.Body)
		}
		if n := sc.Counter("internal_errors").Value(); n != 0 {
			t.Fatalf("POST %s %q: %d internal errors (status %d: %s)", path, body, n, rec.Code, rec.Body)
		}
		switch {
		case rec.Code == http.StatusOK:
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("POST %s %q: 200 with invalid JSON: %s", path, body, rec.Body)
			}
		case rec.Code >= 400 && rec.Code < 500, rec.Code == http.StatusGatewayTimeout:
		default:
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
