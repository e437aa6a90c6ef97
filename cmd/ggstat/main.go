// Ggstat is the one benchmark/telemetry tool: it archives `go test
// -bench` runs as JSON, holds a ratio of two benchmarks under a ceiling,
// and diffs two (or a series of) measurement files, computing per-metric
// deltas with a noise threshold and exiting non-zero when anything
// regressed.
//
// Three file formats are understood, auto-detected per file:
//
//   - `go test -bench` text, raw (unrecognized lines are skipped).
//   - bench JSON: the document ggstat writes from such text
//     (BENCH_*.json). The metrics of either bench format are ns/op per
//     benchmark plus, for -benchmem runs, "Name [allocs/op]" and "Name
//     [B/op]" — each best (minimum) across -count repetitions and gated
//     with a noise floor suited to its unit.
//   - obs event JSONL: the -events stream ggcc and ggcd write. The
//     metrics are total nanoseconds per phase path, aggregated over
//     every span event ("compile/codegen", "compile/codegen/select", ...).
//
// With one file and no -ratio, ggstat writes the file's benchmark run to
// stdout as bench JSON, the archival form. With two files the first is
// the baseline and the second the candidate. With more, the files are a
// time series (say, the BENCH_* trajectory across commits): every value is
// printed per file and the gate compares the last file against the
// first.
//
// Usage:
//
//	ggstat bench.txt > BENCH.json
//	ggstat -ratio 'BenchmarkE2_GG/BenchmarkE2_PCC<=2.65' bench.txt
//	ggstat [-threshold 0.20] [-min-ns 50000] old.json new.json [more.json ...]
//
//	-ratio NUM/DEN<=MAX  fail when the best ns/op of benchmark NUM over
//	               that of DEN in the last file exceeds MAX
//	-threshold F   relative slowdown that counts as a regression
//	               (0.20 = +20%); improvements never fail the gate
//	-min-ns N      ignore metrics whose baseline is under N ns — tiny
//	               phases are pure scheduling noise
//	-all           print every metric, not only regressions and the
//	               ten largest movers
//
// Exit status: 0 when no metric regressed past the threshold and the
// ratio holds, 1 on regression or a ratio over its ceiling, 2 on usage or
// parse errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		ratio     = flag.String("ratio", "", "fail when the best ns/op ratio NUM/DEN of the last file exceeds MAX (NUM/DEN<=MAX)")
		threshold = flag.Float64("threshold", 0.20, "relative slowdown that fails the gate (0.20 = +20%)")
		minNs     = flag.Float64("min-ns", 50000, "ignore metrics whose baseline value is below this many ns")
		all       = flag.Bool("all", false, "print every metric, not just regressions and big movers")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: ggstat [flags] old.json new.json [more.json ...]")
		flag.Usage()
		os.Exit(2)
	}

	sets := make([]*measurements, flag.NArg())
	for i, path := range flag.Args() {
		m, err := loadFile(path)
		if err != nil {
			fatal(err)
		}
		sets[i] = m
	}
	for _, m := range sets[1:] {
		if m.kind != sets[0].kind {
			fatal(fmt.Errorf("mixed file formats: %s is %s, %s is %s",
				flag.Arg(0), sets[0].kind, m.path, m.kind))
		}
	}

	failed := false
	if len(sets) > 1 {
		rep := analyze(sets, *threshold, *minNs)
		rep.write(os.Stdout, *all)
		failed = len(rep.regressions()) > 0
	}
	switch {
	case *ratio != "":
		g, err := parseRatioGate(*ratio)
		if err != nil {
			fatal(err)
		}
		if err := g.check(sets[len(sets)-1], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "ggstat:", err)
			failed = true
		}
	case len(sets) == 1:
		if sets[0].set == nil {
			fatal(fmt.Errorf("%s holds no benchmark run to write as JSON", sets[0].path))
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sets[0].set); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ggstat:", err)
	os.Exit(2)
}
