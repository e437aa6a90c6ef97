package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ggcg"
	"ggcg/internal/corpus"
	"ggcg/internal/progen"
)

// unit is one source program the benchmark compiles.
type unit struct {
	name    string
	src     string
	lines   int // non-blank source lines
	args    []int64
	want    int64
	hasWant bool
	fixed   bool // independent of the seed
}

// job is a unit compiled under one configuration.
type job struct {
	u      *unit
	target string // "vax" or "risc"
	peep   bool
}

func (j job) config() ggcg.Config { return ggcg.Config{Target: j.target, Peephole: j.peep} }

func (j job) String() string {
	s := j.u.name + "@" + j.target
	if j.peep {
		s += "+peep"
	}
	return s
}

var targets = []string{"vax", "risc"}

func targetIndex(name string) int {
	if name == "risc" {
		return 1
	}
	return 0
}

func countLines(src string) int {
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

func newUnit(name, src string, fixed bool) *unit {
	return &unit{name: name, src: src, lines: countLines(src), fixed: fixed}
}

// corpusUnits is the self-checking validation corpus (main returns Want).
func corpusUnits() []*unit {
	var us []*unit
	for _, p := range corpus.Programs() {
		u := newUnit("corpus/"+p.Name, p.Src, true)
		u.args, u.want, u.hasWant = p.Args, p.Want, true
		us = append(us, u)
	}
	return us
}

// largeUnits are corpus.Large programs of n functions each.
func largeUnits(ns ...int) []*unit {
	var us []*unit
	for _, n := range ns {
		us = append(us, newUnit(fmt.Sprintf("large/%d", n), corpus.Large(n), true))
	}
	return us
}

// progenUnits are n random programs drawn from the seed.
func progenUnits(seed int64, stream uint64, n int) []*unit {
	r := newRand(seed, stream)
	us := make([]*unit, n)
	for i := range us {
		s := int64(r.next() >> 1)
		us[i] = newUnit(fmt.Sprintf("progen/%d", s), progen.Generate(s).Render(), false)
	}
	return us
}

// exampleUnits are the checked-in examples/c programs, by file name.
func exampleUnits(root string) ([]*unit, []string, error) {
	paths, err := filepath.Glob(filepath.Join(root, "examples", "c", "*.c"))
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no examples/c/*.c under %s", root)
	}
	sort.Strings(paths)
	var us []*unit
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		us = append(us, newUnit("examples/"+filepath.Base(p), string(data), true))
	}
	return us, paths, nil
}

// jobsFor crosses units with both targets under one peephole setting.
func jobsFor(us []*unit, peep bool) []job {
	var js []job
	for _, u := range us {
		for _, t := range targets {
			js = append(js, job{u: u, target: t, peep: peep})
		}
	}
	return js
}
