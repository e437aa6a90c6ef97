// Ggbench is the ggcg benchmark. It runs one named workload against the
// real program — the built ggcc and ggcd binaries and the exported layer
// packages — checks every output, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 they are
// the per-layer ledger. Lines before it are a human-readable report. See
// README.md for the workloads, the metric → layer → workload map and the
// recorded baseline.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash ggbench/run.sh --workload compile-mix --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets the system up from scratch to
// report the median set-up time.
const setupRepeats = 7

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"cli-oneshot": runCLI,
	"compile-mix": runCompileMix,
	"daemon-mix":  runDaemon,
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the machine-readable last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one run.
type bench struct {
	root, bin, work string
	workload        string
	seed            int64
	seconds         time.Duration
	trace           bool

	e2e    map[string]metric // end-to-end metrics (-trace 0)
	layers map[string]metric // per-layer metrics (-trace 1)
	notes  []string          // report lines that are not JSON metrics

	attempted int
	failed    int
	failures  []string

	chk         *checker
	ledgerJobMs float64 // the ledger's layer sum per job, once traced

	procs []*exec.Cmd // child processes still to be stopped
}

func main() {
	var (
		root     = flag.String("root", ".", "repository root")
		bin      = flag.String("bin", "", "directory holding the built ggcc and ggcd")
		work     = flag.String("work", "", "scratch directory for inputs and span files (default <root>/.bench_build/work)")
		workload = flag.String("workload", "", "workload: cli-oneshot, compile-mix or daemon-mix")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 30, "measurement time per run, seconds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
		probe    = flag.Bool("probe", false, "internal: build both targets' tables in a fresh process and report timings")
		determ   = flag.Bool("determinism", false, "run every workload twice on -seed and once on a held-out seed and compare count metrics")
	)
	flag.Parse()
	if *probe {
		runProbe()
		return
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "work")
	}
	if *bin == "" {
		*bin = filepath.Join(*root, ".bench_build", "bin")
	}
	if *determ {
		if err := runDeterminism(*root, *bin, *work, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "ggbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "ggbench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{
		root: *root, bin: *bin, work: *work, workload: *workload, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		e2e: map[string]metric{}, layers: map[string]metric{},
	}
	b.chk = newChecker(b)
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(b, err)
	}
	for _, tool := range []string{"ggcc", "ggcd"} {
		if _, err := os.Stat(filepath.Join(b.bin, tool)); err != nil {
			fatal(b, fmt.Errorf("%s not built: %v", tool, err))
		}
	}
	err := run(b)
	b.stopAll()
	if err != nil {
		fatal(b, err)
	}
	b.finish()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// fatal reports an error that prevents a result and exits without one.
func fatal(b *bench, err error) {
	if b != nil {
		b.stopAll()
	}
	fmt.Fprintln(os.Stderr, "ggbench:", err)
	os.Exit(1)
}

// fail records one wrong or failed output.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func (b *bench) setE2E(name string, v float64, unit string) { b.e2e[name] = metric{v, unit} }

func (b *bench) setLayer(name string, v float64, unit string) { b.layers[name] = metric{v, unit} }

// note adds a line to the human-readable report.
func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// finish prints the report and the result line, and exits non-zero when
// any output was wrong.
func (b *bench) finish() {
	ms := b.e2e
	kind := "end-to-end"
	if b.trace {
		ms, kind = b.layers, "per-layer"
	}
	fmt.Printf("ggbench %s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.seconds.Seconds(), b.trace)
	for _, n := range b.notes {
		fmt.Println("  " + n)
	}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("  error_rate %g (%d failed of %d attempted)\n", errRate, b.failed, b.attempted)
	fmt.Printf("  %s metrics:\n", kind)
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("    %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "ggbench: wrong output:", f)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(nil, err)
	}
	fmt.Println(string(line))
	if b.failed > 0 || b.attempted == 0 {
		os.Exit(1)
	}
}

// start launches a child process that runs until stopped; stopAll ends it.
// Children also get SIGKILL if the benchmark itself dies.
func (b *bench) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return err
	}
	b.procs = append(b.procs, cmd)
	return nil
}

// stop ends one child started with start and waits for it.
func (b *bench) stop(cmd *exec.Cmd) {
	b.forget(cmd)
	stopProc(cmd)
}

// wait waits for a child started with start to exit by itself.
func (b *bench) wait(cmd *exec.Cmd) error {
	b.forget(cmd)
	return cmd.Wait()
}

func (b *bench) forget(cmd *exec.Cmd) {
	for i, c := range b.procs {
		if c == cmd {
			b.procs = append(b.procs[:i], b.procs[i+1:]...)
			return
		}
	}
}

func (b *bench) stopAll() {
	for _, c := range b.procs {
		stopProc(c)
	}
	b.procs = nil
}

// stopProc sends SIGTERM, escalates to SIGKILL after two seconds, and
// waits for the process to exit.
func stopProc(cmd *exec.Cmd) {
	if cmd.Process == nil {
		return
	}
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		cmd.Process.Kill()
		<-done
	}
}
