package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// cliMinSamples is the fewest samples (files compiled for both targets) a
// cli-oneshot run takes, so that its p90 has at least ten beyond it.
const cliMinSamples = 100

// launch runs ggcc once with args and returns its standard output, wall
// time and peak RSS in MB.
func (b *bench) launch(args ...string) ([]byte, time.Duration, float64, error) {
	var out bytes.Buffer
	cmd := exec.Command(filepath.Join(b.bin, "ggcc"), args...)
	cmd.Stdout = &out
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	d := time.Since(start)
	return out.Bytes(), d, peakRSS(cmd.ProcessState), err
}

// execFloor is the median wall time of a ggcc launch that exits before
// building any tables (-h), in ms.
func (b *bench) execFloor() (float64, error) {
	var xs []float64
	for i := 0; i < 21; i++ {
		_, d, _, err := b.launch("-h")
		if err != nil {
			return 0, fmt.Errorf("ggcc -h: %v", err)
		}
		xs = append(xs, ms(d))
	}
	return median(xs), nil
}

// runCLI is the cli-oneshot workload: one fresh ggcc process per file and
// target, sequentially, over examples/c/*.c.
func runCLI(b *bench) error {
	units, paths, err := exampleUnits(b.root)
	if err != nil {
		return err
	}
	jobs := jobsFor(units, false)
	args := make([][]string, len(jobs))
	for i, j := range jobs {
		args[i] = []string{"-target", j.target, paths[i/len(targets)]}
	}

	// Set-up: what ggcc pays before it can take a unit, measured as a
	// launch on an empty file for each target.
	empty := filepath.Join(b.work, "empty.c")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		total := 0.0
		for _, t := range targets {
			_, d, _, err := b.launch("-target", t, empty)
			if err != nil {
				return fmt.Errorf("ggcc on an empty file: %v", err)
			}
			total += d.Seconds()
		}
		setups = append(setups, total)
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
	order := make([]int, len(units))
	for i := range order {
		order[i] = i
	}
	r := newRand(b.seed, 3)
	// A sample is one file compiled for both targets: two launches. Per
	// launch, the VAX and RISC walls form two clusters (their tables differ
	// in size about 4×) and a median would fall in the gap between them.
	// Each file's samples are also kept apart: the tail is taken over the
	// files' median walls, which time slices lost to other tenants move far
	// less than a percentile over all launches.
	var walls, passRates []float64
	perFile := make([][]float64, len(units))
	var wallByTarget [2]time.Duration
	launches := 0
	peak := 0.0
	deadline := time.Now().Add(measure)
	for len(walls) < cliMinSamples || time.Now().Before(deadline) {
		r.shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lines := 0
		var passWall time.Duration
		for _, u := range order {
			var pair time.Duration
			for t := range targets {
				i := u*len(targets) + t
				out, d, rss, err := b.launch(args[i]...)
				b.attempted++
				if err != nil || string(out) != refs[i].asm {
					b.fail("ggcc %v: output differs from the reference (err %v)", args[i], err)
				}
				pair += d
				wallByTarget[t] += d
				launches++
				if rss > peak {
					peak = rss
				}
			}
			walls = append(walls, ms(pair))
			perFile[u] = append(perFile[u], ms(pair))
			passWall += pair
			lines += units[u].lines
		}
		passRates = append(passRates, float64(lines)/passWall.Seconds())
	}

	steps := b.chk.executeAll(jobs)
	asmLines, simSteps := b.chk.codeSize(jobs)
	fileMs := make([]float64, len(units))
	for u, xs := range perFile {
		fileMs[u] = median(xs)
	}
	p50, p90, fileP90 := quantile(walls, 0.5), quantile(walls, 0.9), quantile(fileMs, 0.9)
	b.setE2E("latency_ms_p50", p50, "ms")
	b.setE2E("latency_ms_tail", fileP90, "ms")
	b.setE2E("lines_per_s", median(passRates), "lines/s")
	b.setE2E("peak_rss_mb", peak, "MB")
	b.setE2E("asm_lines_total", float64(asmLines), "lines")
	b.setE2E("sim_steps_total", float64(simSteps), "count")
	b.note("%d files × 2 targets, %d launches; a sample is one file's vax and risc launches", len(units), launches)
	b.note("cli_wall_ms_p50 %.3f ms, cli_wall_ms_p90 %.3f ms per file and both targets (%d samples, %d beyond p90)",
		p50, p90, len(walls), len(walls)/10)
	b.note("cli_file_ms_p90 %.3f ms over the %d files' median walls (%d samples each)",
		fileP90, len(units), len(walls)/len(units))
	for t, name := range targets {
		b.note("ggcc -target %s: mean wall %.3f ms per launch", name, ms(wallByTarget[t])/float64(launches/len(targets)))
	}
	b.note("cli_peak_rss_mb %.1f MB", peak)

	if !b.trace {
		return nil
	}
	if err := b.traceLayers(jobs, steps, nil, b.seconds/2); err != nil {
		return err
	}
	// Where a launch's wall time goes: the launch floor, the target's
	// grammar and table construction, and the compile itself.
	floor := b.layers["cli.exec_ms"].Value
	for t, name := range targets {
		wall := ms(wallByTarget[t]) / float64(launches/len(targets))
		static := b.layers[name+".grammar_ms"].Value + b.layers["tablegen.build_ms."+name].Value
		compile := b.layers["codegen.ms."+name].Value + b.layers["cfront.ms"].Value
		b.note("ggcc -target %s: mean wall %.2f ms = launch floor %.2f + grammar and tables %.2f + compile %.3f + unaccounted %.2f ms",
			name, wall, floor, static, compile, wall-floor-static-compile)
	}
	return nil
}
