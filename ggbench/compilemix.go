package main

import (
	"runtime"
	"time"

	"ggcg"
)

// compileMixLarge sizes the corpus.Large units of compile-mix, in
// functions (58 to 322 lines); the corpus programs have about four lines
// each and the progen programs about 75.
var compileMixLarge = []int{8, 16, 32, 48}

// compileMixProgen is how many seeded progen programs compile-mix adds.
const compileMixProgen = 60

// runCompileMix is the compile-mix workload: one goroutine, tables warm,
// ggcg.Compile with no peephole, observer or cache, for both targets over a
// mix of unit sizes.
func runCompileMix(b *bench) error {
	fixed := append(corpusUnits(), largeUnits(compileMixLarge...)...)
	units := append(append([]*unit{}, fixed...), progenUnits(b.seed, 1, compileMixProgen)...)
	jobs := jobsFor(units, false)

	setups, probes, err := b.probeTables()
	if err != nil {
		return err
	}
	b.setE2E("setup_s", median(setups), "s")

	refs := make([]*ref, len(jobs))
	for i, j := range jobs {
		refs[i] = b.chk.ref(j)
	}
	measure := b.seconds
	if b.trace {
		measure /= 2
	}
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	r := newRand(b.seed, 2)
	// Each job's times over the passes; its median is the unit's compile
	// time with the host's interference filtered out. Time slices lost to
	// other tenants lengthen some compiles and whole passes, which moves a
	// percentile over all compiles or a pass's throughput, but not a median
	// of about a hundred compiles of one unit.
	perJob := make([][]float64, len(jobs))
	var passRates []float64
	compiles := 0
	runtime.GC()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	deadline := time.Now().Add(measure)
	for len(passRates) == 0 || time.Now().Before(deadline) {
		r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lines := 0
		passStart := time.Now()
		for _, i := range order {
			j := jobs[i]
			start := time.Now()
			out, err := ggcg.Compile(j.u.src, j.config())
			d := time.Since(start)
			b.attempted++
			if err != nil || out.Asm != refs[i].asm {
				b.fail("%s: compile output differs from the reference (err %v)", j, err)
			}
			perJob[i] = append(perJob[i], ms(d))
			compiles++
			lines += j.u.lines
		}
		passRates = append(passRates, float64(lines)/time.Since(passStart).Seconds())
	}
	runtime.ReadMemStats(&mem1)
	rss, err := selfPeakRSS()
	if err != nil {
		return err
	}

	steps := b.chk.executeAll(jobs)
	asmLines, simSteps := b.chk.codeSize(jobsFor(fixed, false))
	unitMs := make([]float64, len(jobs))
	passLines, passMs := 0, 0.0
	for i, xs := range perJob {
		unitMs[i] = median(xs)
		passLines += jobs[i].u.lines
		passMs += unitMs[i]
	}
	p50, p99 := quantile(unitMs, 0.5), quantile(unitMs, 0.99)
	linesPerS := float64(passLines) / (passMs / 1e3)
	b.setE2E("latency_ms_p50", p50, "ms")
	b.setE2E("latency_ms_tail", p99, "ms")
	b.setE2E("lines_per_s", linesPerS, "lines/s")
	b.setE2E("peak_rss_mb", rss, "MB")
	b.setE2E("asm_lines_total", float64(asmLines), "lines")
	b.setE2E("sim_steps_total", float64(simSteps), "count")
	b.note("%d units (%d fixed, %d progen) × 2 targets, %d passes, %d compiles",
		len(units), len(fixed), compileMixProgen, len(passRates), compiles)
	b.note("compile_ms_p50 %.4f ms, compile_ms_p99 %.4f ms over the %d jobs' median compile times (%d compiles each)",
		p50, p99, len(jobs), len(passRates))
	b.note("compile_lines_per_s %.0f lines/s over the jobs' median compile times; %.0f lines/s as the median of %d passes' wall time",
		linesPerS, median(passRates), len(passRates))

	if !b.trace {
		return nil
	}
	b.reportRuntime(mem1.TotalAlloc-mem0.TotalAlloc, uint64(mem1.NumGC-mem0.NumGC), float64(compiles))
	return b.traceLayers(jobs, steps, probes, b.seconds/2)
}

// traceLayers sets the per-layer metrics every workload shares: the table
// probes, the ggcc launch floor, simulator steps, the program's own phase
// times and the ledger over the workload's jobs.
func (b *bench) traceLayers(jobs []job, steps [2]int64, probes []probeResult, d time.Duration) error {
	if probes == nil {
		var err error
		if _, probes, err = b.probeTables(); err != nil {
			return err
		}
	}
	b.reportTables(probes)
	floor, err := b.execFloor()
	if err != nil {
		return err
	}
	b.setLayer("cli.exec_ms", floor, "ms")
	b.setLayer("vaxsim.steps", float64(steps[0]), "count")
	b.setLayer("riscsim.steps", float64(steps[1]), "count")
	if _, ok := b.layers["obs.phase_ms.lex"]; !ok {
		b.observedPhases(jobs, 3)
	}
	l, err := newLedger(b, jobs)
	if err != nil {
		return err
	}
	if err := l.run(d); err != nil {
		return err
	}
	l.report()
	if _, ok := b.layers["alloc_kb_per_unit"]; !ok {
		b.reportRuntime(l.allocBytes, l.gcCycles, float64(l.passes*len(jobs)))
	}
	return nil
}
