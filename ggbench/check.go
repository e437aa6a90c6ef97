package main

import (
	"fmt"

	"ggcg"
	"ggcg/internal/cfront"
	"ggcg/internal/irinterp"
)

// ref is the reference output of one job: an in-process ggcg.Compile of
// the same source and configuration, and (once executed) its run on the
// target's simulator.
type ref struct {
	asm   string
	stats ggcg.Stats
	err   error // the compile, or the execution gate, failed

	ran   bool
	steps int64 // simulated instructions main executed
}

type refKey struct {
	u      *unit
	target string
	peep   bool
}

// checker holds the references every output is compared with. Every
// distinct compiled unit is executed once on its target's simulator and
// its main() result compared with irinterp on the cfront IR, and with Want
// where the corpus states one.
type checker struct {
	b      *bench
	refs   map[refKey]*ref
	interp map[*unit]*interpResult
}

type interpResult struct {
	v   int64
	err error
}

func newChecker(b *bench) *checker {
	return &checker{b: b, refs: map[refKey]*ref{}, interp: map[*unit]*interpResult{}}
}

// ref compiles the job's reference output (memoized).
func (c *checker) ref(j job) *ref {
	k := refKey{j.u, j.target, j.peep}
	if r, ok := c.refs[k]; ok {
		return r
	}
	r := &ref{}
	out, err := ggcg.Compile(j.u.src, j.config())
	if err != nil {
		r.err = fmt.Errorf("%s: reference compile: %v", j, err)
	} else {
		r.asm, r.stats = out.Asm, out.Stats
	}
	c.refs[k] = r
	return r
}

// execute runs the job's reference on its simulator and compares main()
// with the IR interpreter; it returns the simulated step count. A failure
// is recorded against the run and returned.
func (c *checker) execute(j job) (int64, error) {
	r := c.ref(j)
	if r.err != nil {
		return 0, r.err
	}
	if r.ran {
		return r.steps, nil
	}
	r.ran = true
	want := c.interpret(j.u)
	if want.err != nil {
		r.err = fmt.Errorf("%s: irinterp: %v", j, want.err)
		return 0, r.err
	}
	if j.u.hasWant && want.v != j.u.want {
		r.err = fmt.Errorf("%s: irinterp main() = %d, corpus wants %d", j, want.v, j.u.want)
		return 0, r.err
	}
	sim, err := ggcg.NewSim(j.target, r.asm)
	if err != nil {
		r.err = fmt.Errorf("%s: assembling: %v", j, err)
		return 0, r.err
	}
	got, err := sim.Call("_main", j.u.args...)
	if err != nil {
		r.err = fmt.Errorf("%s: executing: %v", j, err)
		return 0, r.err
	}
	if got != want.v {
		r.err = fmt.Errorf("%s: simulated main() = %d, irinterp says %d", j, got, want.v)
		return 0, r.err
	}
	r.steps = sim.Steps()
	return r.steps, nil
}

func (c *checker) interpret(u *unit) *interpResult {
	if res, ok := c.interp[u]; ok {
		return res
	}
	res := &interpResult{}
	iu, err := cfront.Compile(u.src)
	if err != nil {
		res.err = err
	} else {
		res.v, res.err = irinterp.New(iu).Call("main", u.args...)
	}
	c.interp[u] = res
	return res
}

// executeAll runs the execution gate over every distinct job, counting
// each as one attempted output, and returns the summed simulator steps per
// target.
func (c *checker) executeAll(js []job) (steps [2]int64) {
	for _, j := range js {
		c.b.attempted++
		n, err := c.execute(j)
		if err != nil {
			c.b.fail("%v", err)
			continue
		}
		steps[targetIndex(j.target)] += n
	}
	return steps
}

// codeSize sums the reference outputs' instruction counts and simulated
// steps over a fixed job set: the code-quality half of the end-to-end
// metrics, deterministic for a given compiler.
func (c *checker) codeSize(js []job) (asmLines, steps int64) {
	for _, j := range js {
		r := c.ref(j)
		if r.err != nil {
			continue
		}
		asmLines += int64(r.stats.AsmLines)
		steps += r.steps
	}
	return asmLines, steps
}
