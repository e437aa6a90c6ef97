package main

import (
	"strconv"
	"strings"
	"testing"
)

// doc builds a bench JSON document with the E2 pair at the given ns/op
// repetitions (best-of-count is the gate's reading, so each side gets a
// slice).
func doc(gg, pcc []float64) string {
	var b strings.Builder
	b.WriteString(`{"results":[`)
	first := true
	add := func(name string, vals []float64) {
		for _, v := range vals {
			if !first {
				b.WriteString(",")
			}
			first = false
			b.WriteString(`{"name":"` + name + `","metrics":{"ns/op":` +
				strconv.FormatFloat(v, 'g', -1, 64) + `}}`)
		}
	}
	add("BenchmarkE2_GG", gg)
	add("BenchmarkE2_PCC", pcc)
	b.WriteString(`]}`)
	return b.String()
}

func gate(t *testing.T, input string, max float64) (string, error) {
	t.Helper()
	m, err := parseMeasurements("BENCH_gate.json", []byte(input))
	if err != nil {
		return "", err
	}
	var out strings.Builder
	err = ratioGate{"BenchmarkE2_GG", "BenchmarkE2_PCC", max}.check(m, &out)
	return out.String(), err
}

func TestRatioUnderCeiling(t *testing.T) {
	// best GG = 200, best PCC = 100 → ratio 2.0, ceiling 2.65: pass.
	out, err := gate(t, doc([]float64{220, 200, 210}, []float64{100, 105}), 2.65)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out, "= 2.000 (ceiling 2.650)") {
		t.Errorf("verdict line wrong: %q", out)
	}
}

func TestRatioOverCeilingFails(t *testing.T) {
	out, err := gate(t, doc([]float64{300}, []float64{100}), 2.65)
	if err == nil {
		t.Fatalf("ratio 3.0 against ceiling 2.65 passed:\n%s", out)
	}
	if !strings.Contains(err.Error(), "exceeds ceiling") {
		t.Errorf("error = %v, want ceiling violation", err)
	}
	// The verdict line still prints before the failure, so CI logs show
	// the measured ratio alongside the red exit.
	if !strings.Contains(out, "= 3.000") {
		t.Errorf("verdict line missing from output: %q", out)
	}
}

func TestRatioAtCeilingPasses(t *testing.T) {
	if _, err := gate(t, doc([]float64{265}, []float64{100}), 2.65); err != nil {
		t.Errorf("ratio exactly at the ceiling must pass: %v", err)
	}
}

func TestBestOfCount(t *testing.T) {
	// A single fast GG repetition must be the one that counts: min 100 /
	// min 100 = 1.0, even though the means would exceed the ceiling.
	out, err := gate(t, doc([]float64{500, 100, 480}, []float64{100, 490}), 1.5)
	if err != nil {
		t.Fatalf("best-of-count not honored: %v\n%s", err, out)
	}
	if !strings.Contains(out, "BenchmarkE2_GG 100 ns/op / BenchmarkE2_PCC 100 ns/op") {
		t.Errorf("verdict line does not show the minima: %q", out)
	}
}

func TestMalformedJSON(t *testing.T) {
	for _, input := range []string{"", "not json", `{"results":`, "BenchmarkE2_GG 10 5 ns/op extra\n"} {
		if _, err := gate(t, input, 2.65); err == nil || !strings.Contains(err.Error(), "BENCH_gate.json") {
			t.Errorf("input %q: err = %v, want a parse error naming the file", input, err)
		}
	}
}

func TestMissingBenchmark(t *testing.T) {
	// Denominator absent entirely.
	_, err := gate(t, doc([]float64{200}, nil), 2.65)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkE2_PCC") {
		t.Errorf("err = %v, want missing-denominator error", err)
	}
	// Numerator absent.
	_, err = gate(t, doc(nil, []float64{100}), 2.65)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkE2_GG") {
		t.Errorf("err = %v, want missing-numerator error", err)
	}
}

func TestMissingNsOpMetric(t *testing.T) {
	// The benchmark name is present but carries only another metric —
	// the gate must treat it as missing, not divide by garbage.
	input := `{"results":[
		{"name":"BenchmarkE2_GG","metrics":{"allocs/op":12}},
		{"name":"BenchmarkE2_PCC","metrics":{"ns/op":100}}]}`
	_, err := gate(t, input, 2.65)
	if err == nil || !strings.Contains(err.Error(), "no ns/op result named BenchmarkE2_GG in BENCH_gate.json") {
		t.Errorf("err = %v, want missing ns/op error", err)
	}
}

// The gate reads raw `go test -bench` text as readily as bench JSON.
func TestRatioOnBenchText(t *testing.T) {
	text := `goos: linux
BenchmarkE2_GG-2    	     600	   2000000 ns/op
BenchmarkE2_GG-2    	     600	   1900000 ns/op
BenchmarkE2_PCC-2   	    1000	   1000000 ns/op
PASS
`
	out, err := gate(t, text, 2.65)
	if err != nil || !strings.Contains(out, "= 1.900 (ceiling 2.650)") {
		t.Errorf("gate on bench text: %q, %v", out, err)
	}
}

func TestParseRatioGate(t *testing.T) {
	g, err := parseRatioGate("BenchmarkE2_GG/BenchmarkE2_PCC<=2.65")
	if err != nil || g != (ratioGate{"BenchmarkE2_GG", "BenchmarkE2_PCC", 2.65}) {
		t.Errorf("parse = %+v, %v", g, err)
	}
	for _, bad := range []string{"", "A/B", "A<=2", "/B<=2", "A/<=2", "A/B<=x"} {
		if _, err := parseRatioGate(bad); err == nil {
			t.Errorf("parseRatioGate(%q) accepted", bad)
		}
	}
}
