package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"ggcg/internal/benchfmt"
	"ggcg/internal/obs"
)

// measurements is one file reduced to metric name -> nanoseconds.
type measurements struct {
	path   string
	kind   string        // "bench" or "events"
	set    *benchfmt.Set // the parsed benchmark run, for bench files
	values map[string]float64
}

// loadFile reads one measurement file, auto-detecting its format.
func loadFile(path string) (*measurements, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseMeasurements(path, data)
}

// parseMeasurements detects the format: a bench JSON document is one
// JSON object with a results array (a whole-file Unmarshal succeeds);
// `go test -bench` text has at least one benchmark result line; anything
// else must parse as an obs event JSONL stream with at least one span
// event.
func parseMeasurements(path string, data []byte) (*measurements, error) {
	set := new(benchfmt.Set)
	if json.Unmarshal(data, set) != nil || len(set.Results) == 0 {
		// Not bench JSON; a file that is not bench text either is tried
		// as an event stream below, which reports the error.
		set, _ = benchfmt.Parse(bytes.NewReader(data))
	}
	if set != nil && len(set.Results) > 0 {
		return &measurements{path: path, kind: "bench", set: set, values: benchValues(set)}, nil
	}
	values, spans, err := eventValues(data)
	if err != nil {
		return nil, fmt.Errorf("%s: not a benchmark run and not an event stream: %w", path, err)
	}
	if spans == 0 {
		return nil, fmt.Errorf("%s: no benchmark results and no span events", path)
	}
	return &measurements{path: path, kind: "events", values: values}, nil
}

// benchValues reduces a bench set to name -> best (minimum) value per
// tracked metric, the conventional best-of-count reading least sensitive
// to scheduler noise. ns/op keeps the bare benchmark name; the -benchmem
// allocation metrics get a bracketed suffix ("Foo [allocs/op]") so one
// artifact tracks the timing and allocation trajectories side by side.
// Sub-benchmarks keep their full name.
func benchValues(set *benchfmt.Set) map[string]float64 {
	out := make(map[string]float64)
	best := func(name string, v float64) {
		if b, seen := out[name]; !seen || v < b {
			out[name] = v
		}
	}
	for _, r := range set.Results {
		if v, ok := r.NsPerOp(); ok {
			best(r.Name, v)
		}
		if v, ok := r.AllocsPerOp(); ok {
			best(r.Name+" [allocs/op]", v)
		}
		if v, ok := r.BytesPerOp(); ok {
			best(r.Name+" [B/op]", v)
		}
	}
	return out
}

// metricUnit classifies a metric name by its bracketed suffix; bare names
// are nanosecond durations (bench ns/op and event span totals).
func metricUnit(name string) string {
	switch {
	case strings.HasSuffix(name, " [allocs/op]"):
		return "allocs"
	case strings.HasSuffix(name, " [B/op]"):
		return "bytes"
	default:
		return "ns"
	}
}

// gateFloor is the baseline magnitude below which a metric is considered
// noise and never gated. Durations use the -min-ns flag; the allocation
// metrics are deterministic enough that small fixed floors suffice.
func gateFloor(name string, minNs float64) float64 {
	switch metricUnit(name) {
	case "allocs":
		return 100
	case "bytes":
		return 16 * 1024
	default:
		return minNs
	}
}

// eventValues aggregates an obs JSONL stream: total wall nanoseconds per
// span path.
func eventValues(data []byte) (map[string]float64, int, error) {
	out := make(map[string]float64)
	spans := 0
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			if err == io.EOF {
				return out, spans, nil
			}
			return nil, 0, err
		}
		if e.Kind == "span" {
			spans++
			out[e.Path] += float64(e.Ns)
		}
	}
}

// delta is one metric's trajectory across the series.
type delta struct {
	Name   string
	Values []float64 // by file; NaN where the metric is absent
	Old    float64   // first file
	New    float64   // last file
	Rel    float64   // (New-Old)/Old
	Gated  bool      // regression past the threshold and noise floor
}

type report struct {
	paths  []string
	kind   string
	deltas []delta
	onlyIn map[string][]string // file -> metrics present only there
}

// analyze diffs the first file of the series against the last, carrying
// the middle values for trend display. A metric regresses when it grew
// by more than threshold relative and its baseline is at least minNs.
func analyze(sets []*measurements, threshold, minNs float64) *report {
	rep := &report{kind: sets[0].kind, onlyIn: make(map[string][]string)}
	for _, m := range sets {
		rep.paths = append(rep.paths, m.path)
	}

	names := make(map[string]bool)
	for _, m := range sets {
		for name := range m.values {
			names[name] = true
		}
	}
	first, last := sets[0], sets[len(sets)-1]
	for name := range names {
		vo, inFirst := first.values[name]
		vn, inLast := last.values[name]
		switch {
		case inFirst && inLast:
			d := delta{Name: name, Old: vo, New: vn}
			for _, m := range sets {
				v, ok := m.values[name]
				if !ok {
					v = math.NaN()
				}
				d.Values = append(d.Values, v)
			}
			if vo > 0 {
				d.Rel = (vn - vo) / vo
			}
			d.Gated = vo >= gateFloor(name, minNs) && d.Rel > threshold
			rep.deltas = append(rep.deltas, d)
		case inFirst:
			rep.onlyIn[first.path] = append(rep.onlyIn[first.path], name)
		default:
			rep.onlyIn[last.path] = append(rep.onlyIn[last.path], name)
		}
	}
	sort.Slice(rep.deltas, func(i, j int) bool {
		if rep.deltas[i].Rel != rep.deltas[j].Rel {
			return rep.deltas[i].Rel > rep.deltas[j].Rel
		}
		return rep.deltas[i].Name < rep.deltas[j].Name
	})
	for f := range rep.onlyIn {
		sort.Strings(rep.onlyIn[f])
	}
	return rep
}

func (r *report) regressions() []delta {
	var out []delta
	for _, d := range r.deltas {
		if d.Gated {
			out = append(out, d)
		}
	}
	return out
}

func fmtNs(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return time.Duration(v).Round(time.Microsecond).String()
}

// fmtValue renders a metric value in its own unit: durations for ns
// metrics, counts for allocs/op, KiB/MiB for B/op.
func fmtValue(name string, v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	switch metricUnit(name) {
	case "allocs":
		return fmt.Sprintf("%.0f", v)
	case "bytes":
		switch {
		case v >= 1<<20:
			return fmt.Sprintf("%.1fMiB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.1fKiB", v/(1<<10))
		default:
			return fmt.Sprintf("%.0fB", v)
		}
	default:
		return fmtNs(v)
	}
}

// write renders the comparison. Without -all it prints the regressions
// plus the ten largest movers either way, which is what a human scanning
// CI output wants; -all dumps the full table.
func (r *report) write(w io.Writer, all bool) {
	label := map[string]string{"bench": "benchmark ns/op (best of counts)", "events": "per-phase total ns"}[r.kind]
	if len(r.paths) == 2 {
		fmt.Fprintf(w, "ggstat: %s: %s -> %s\n", label, r.paths[0], r.paths[1])
	} else {
		fmt.Fprintf(w, "ggstat: %s: series of %d files, gating %s -> %s\n",
			label, len(r.paths), r.paths[0], r.paths[len(r.paths)-1])
	}

	shown := r.deltas
	if !all && len(shown) > 10 {
		// Regressions always show; then the biggest absolute movers.
		byMagnitude := append([]delta(nil), r.deltas...)
		sort.Slice(byMagnitude, func(i, j int) bool {
			return math.Abs(byMagnitude[i].Rel) > math.Abs(byMagnitude[j].Rel)
		})
		keep := make(map[string]bool)
		for _, d := range r.regressions() {
			keep[d.Name] = true
		}
		for _, d := range byMagnitude {
			if len(keep) >= 10 && !keep[d.Name] {
				continue
			}
			keep[d.Name] = true
		}
		shown = shown[:0:0]
		for _, d := range r.deltas {
			if keep[d.Name] {
				shown = append(shown, d)
			}
		}
		fmt.Fprintf(w, "(showing %d of %d metrics; -all for the full table)\n", len(shown), len(r.deltas))
	}

	nameW := len("metric")
	for _, d := range shown {
		if len(d.Name) > nameW {
			nameW = len(d.Name)
		}
	}
	fmt.Fprintf(w, "%-*s  %12s  %12s  %8s\n", nameW, "metric", "old", "new", "delta")
	for _, d := range shown {
		mark := ""
		if d.Gated {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(w, "%-*s  %12s  %12s  %+7.1f%%%s\n", nameW, d.Name, fmtValue(d.Name, d.Old), fmtValue(d.Name, d.New), 100*d.Rel, mark)
		if len(r.paths) > 2 {
			vals := make([]string, len(d.Values))
			for i, v := range d.Values {
				vals[i] = fmtValue(d.Name, v)
			}
			fmt.Fprintf(w, "%-*s  series: %s\n", nameW, "", strings.Join(vals, " -> "))
		}
	}
	for _, path := range r.paths {
		if only := r.onlyIn[path]; len(only) > 0 {
			fmt.Fprintf(w, "only in %s: %s\n", path, strings.Join(only, ", "))
		}
	}
	if reg := r.regressions(); len(reg) > 0 {
		fmt.Fprintf(w, "FAIL: %d metric(s) regressed\n", len(reg))
	} else {
		fmt.Fprintf(w, "ok: no regressions past threshold\n")
	}
}
