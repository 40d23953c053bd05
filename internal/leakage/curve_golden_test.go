package leakage

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"leakbound/internal/interval"
	"leakbound/internal/power"
)

// curveGoldenPath holds every builtin curve's pieces as float64 bits,
// dumpCurves' lines gzipped (about 1 MB of hex otherwise). It was written
// once from the by-value combinators the in-place builders replaced; no
// flag regenerates it.
const curveGoldenPath = "testdata/curves.golden.gz"

// goldenThetas is the threshold ladder the sweep schemes are pinned on:
// every neighbourhood of the transition overheads (drowsy 6, wake 7, s1 30,
// sleep 37 cycles at the paper's durations) where a cut lands on, just
// below or just above an inner piece end, then a geometric ladder over the
// builtin nodes' inflection points, and cuts no interval length reaches.
func goldenThetas() []uint64 {
	thetas := []uint64{0, 1, 5, 6, 7, 8, 29, 30, 31, 36, 37, 38, 44, 45, 67, 68}
	const from, to, points = 1057, 103084, 16
	ratio := math.Pow(float64(to)/float64(from), 1/float64(points-1))
	for i := 0; i < points; i++ {
		thetas = append(thetas, uint64(math.Round(float64(from)*math.Pow(ratio, float64(i)))))
	}
	return append(thetas, 1<<32, math.MaxUint64)
}

// goldenPolicies is testPolicies plus the theta ladder of the three sweep
// schemes.
func goldenPolicies(tech power.Technology) []Policy {
	pols := testPolicies(tech)
	for _, theta := range goldenThetas() {
		pols = append(pols, OPTSleep{Theta: theta}, OPTHybrid{SleepTheta: theta}, SleepDecay{Theta: theta})
	}
	return pols
}

// dumpCurves renders one line per (technology, policy, distinct curve),
// fields separated by "|": the technology's index in
// closedFormTechnologies, the policy's Go value, a mask of the flags values
// sharing the curve, and each piece's end, constant, slope and misses as
// float64 bits. An invalid curve reads "invalid".
func dumpCurves() []string {
	var lines []string
	for ti, tech := range closedFormTechnologies() {
		for _, pol := range goldenPolicies(tech) {
			cf := pol.(ClosedForm)
			var order []string
			masks := map[string]uint64{}
			for f := 0; f < interval.NumFlags; f++ {
				c, ok := cf.EnergyCurve(tech, interval.Flags(f))
				key := "invalid"
				if ok && c.valid() {
					var sb strings.Builder
					for _, pc := range c.p[:c.n] {
						fmt.Fprintf(&sb, " %016x:%016x:%016x:%016x",
							math.Float64bits(pc.end), math.Float64bits(pc.cnst),
							math.Float64bits(pc.slope), math.Float64bits(pc.misses))
					}
					key = strings.TrimSpace(sb.String())
				}
				if _, seen := masks[key]; !seen {
					order = append(order, key)
				}
				masks[key] |= 1 << f
			}
			for _, key := range order {
				lines = append(lines, fmt.Sprintf("%d|%T%+v|%016x|%s", ti, pol, pol, masks[key], key))
			}
		}
	}
	return lines
}

// TestCurvesMatchGolden pins every builtin curve bit for bit: the pieces
// of each policy in goldenPolicies at every closedFormTechnologies node and
// every flags value must equal the committed golden exactly.
// TestClosedFormsMatchReference allows ulp-scale drift against the
// reference walk, and the kernels compare against each other through the
// same builders, so only this test sees a builder change a single bit.
func TestCurvesMatchGolden(t *testing.T) {
	f, err := os.Open(curveGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	sc := bufio.NewScanner(zr)
	sc.Buffer(nil, 1<<16)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := dumpCurves()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s\n got pieces %s\nwant pieces %s",
				curveGoldenPath, i+1, got[i], want[i], decodePieces(got[i]), decodePieces(want[i]))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d curve lines, golden has %d", len(got), len(want))
	}
}

// decodePieces renders a golden line's piece bits as floats.
func decodePieces(line string) string {
	fields := strings.Split(line, "|")
	var sb strings.Builder
	for _, fld := range strings.Fields(fields[len(fields)-1]) {
		for _, h := range strings.Split(fld, ":") {
			u, err := strconv.ParseUint(h, 16, 64)
			if err != nil {
				return line
			}
			fmt.Fprintf(&sb, "%g ", math.Float64frombits(u))
		}
		sb.WriteString("| ")
	}
	return sb.String()
}
