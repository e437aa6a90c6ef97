package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ratioGate is a ceiling on the ratio of two benchmarks' best ns/op,
// written NUM/DEN<=MAX. CI holds the table-driven generator's E2 gap to
// the hand-written baseline with it (BenchmarkE2_GG/BenchmarkE2_PCC<=2.65,
// the pre-comb-vector ratio recorded in EXPERIMENTS.md).
type ratioGate struct {
	num, den string
	max      float64
}

func parseRatioGate(s string) (ratioGate, error) {
	names, max, ok := strings.Cut(s, "<=")
	num, den, ok2 := strings.Cut(names, "/")
	v, err := strconv.ParseFloat(max, 64)
	if !ok || !ok2 || num == "" || den == "" || err != nil {
		return ratioGate{}, fmt.Errorf("bad -ratio %q, want NUM/DEN<=MAX", s)
	}
	return ratioGate{num, den, v}, nil
}

// check prints the verdict line for a benchmark file and errors when the
// ratio of the best (minimum) ns/op across -count repetitions exceeds the
// ceiling, or a side is missing.
func (g ratioGate) check(m *measurements, w io.Writer) error {
	a, ok := m.values[g.num]
	if !ok {
		return fmt.Errorf("no ns/op result named %s in %s", g.num, m.path)
	}
	b, ok := m.values[g.den]
	if !ok {
		return fmt.Errorf("no ns/op result named %s in %s", g.den, m.path)
	}
	ratio := a / b
	fmt.Fprintf(w, "ggstat: %s %.0f ns/op / %s %.0f ns/op = %.3f (ceiling %.3f)\n",
		g.num, a, g.den, b, ratio, g.max)
	if ratio > g.max {
		return fmt.Errorf("ratio %.3f exceeds ceiling %.3f", ratio, g.max)
	}
	return nil
}
