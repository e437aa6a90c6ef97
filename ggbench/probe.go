package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"time"

	"ggcg/internal/target"
)

// probeResult is what one fresh probe process reports about the static
// half of the system: grammar expansion, table construction and the table
// content hash, per target (index 0 vax, 1 risc).
type probeResult struct {
	GrammarMs [2]float64 `json:"grammar_ms"`
	BuildMs   [2]float64 `json:"build_ms"`
	AllocMB   [2]float64 `json:"alloc_mb"`
	TableIDMs [2]float64 `json:"tableid_ms"`
}

// runProbe is the child side: build both targets' tables the way a fresh
// ggcc or ggcd does, print "ready" once they exist, then time the table
// content hashes and print the timings as JSON.
func runProbe() {
	var res probeResult
	var mem runtime.MemStats
	var machs [2]target.Machine
	check := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "probe:", err)
			os.Exit(1)
		}
	}
	for i, name := range targets {
		m, err := target.Lookup(name)
		check(err)
		machs[i] = m
		start := time.Now()
		_, err = m.Grammar()
		check(err)
		res.GrammarMs[i] = ms(time.Since(start))
		runtime.ReadMemStats(&mem)
		before := mem.TotalAlloc
		start = time.Now()
		_, err = m.Tables()
		check(err)
		res.BuildMs[i] = ms(time.Since(start))
		runtime.ReadMemStats(&mem)
		res.AllocMB[i] = float64(mem.TotalAlloc-before) / (1 << 20)
	}
	fmt.Println("ready")
	for i, m := range machs {
		start := time.Now()
		_, err := m.TableID()
		check(err)
		res.TableIDMs[i] = ms(time.Since(start))
	}
	check(json.NewEncoder(os.Stdout).Encode(&res))
}

// probeTables launches the probe process setupRepeats times. It returns the
// per-launch set-up times (launch until both targets' tables exist) and
// the per-launch probe reports.
func (b *bench) probeTables() ([]float64, []probeResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var setups []float64
	var results []probeResult
	for i := 0; i < setupRepeats; i++ {
		cmd := exec.Command(self, "-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, nil, err
		}
		start := time.Now()
		if err := b.start(cmd); err != nil {
			return nil, nil, err
		}
		sc := bufio.NewScanner(out)
		if !sc.Scan() || sc.Text() != "ready" {
			b.stop(cmd)
			return nil, nil, fmt.Errorf("table probe did not report ready")
		}
		setups = append(setups, time.Since(start).Seconds())
		var res probeResult
		if !sc.Scan() {
			b.stop(cmd)
			return nil, nil, fmt.Errorf("table probe printed no timings")
		}
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			b.stop(cmd)
			return nil, nil, err
		}
		if err := b.wait(cmd); err != nil {
			return nil, nil, fmt.Errorf("table probe: %v", err)
		}
		results = append(results, res)
	}
	return setups, results, nil
}

// reportTables sets the table-construction layer metrics from probe runs.
func (b *bench) reportTables(results []probeResult) {
	pick := func(f func(probeResult) float64) float64 {
		var xs []float64
		for _, r := range results {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	for i, t := range targets {
		i := i
		b.setLayer(t+".grammar_ms", pick(func(r probeResult) float64 { return r.GrammarMs[i] }), "ms")
		b.setLayer("tablegen.build_ms."+t, pick(func(r probeResult) float64 { return r.BuildMs[i] }), "ms")
		b.setLayer(t+".tableid_ms", pick(func(r probeResult) float64 { return r.TableIDMs[i] }), "ms")
	}
	b.setLayer("tablegen.alloc_mb.vax", pick(func(r probeResult) float64 { return r.AllocMB[0] }), "MB")
}
