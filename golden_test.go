package ggcg

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ggcg/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current generator")

// TestGoldenCorpus pins the generated assembly of the whole validation
// corpus plus a large generated unit, per target and peephole setting,
// against checked-in files. Any change to tables, matcher, semantics or
// peephole that moves a single byte of output fails here; regenerate with
//
//	go test -run TestGoldenCorpus -update .
//
// only when the output is meant to change.
func TestGoldenCorpus(t *testing.T) {
	progs := corpus.Programs()
	progs = append(progs, corpus.Program{Name: "large12", Src: corpus.Large(12)})
	for _, tgt := range Targets() {
		for _, peep := range []bool{false, true} {
			name := tgt
			if peep {
				name += "-peep"
			}
			t.Run(name, func(t *testing.T) {
				var b strings.Builder
				for _, p := range progs {
					out, err := Compile(p.Src, Config{Target: tgt, Peephole: peep})
					if err != nil {
						t.Fatalf("%s: %v", p.Name, err)
					}
					fmt.Fprintf(&b, "# == %s ==\n%s", p.Name, out.Asm)
				}
				path := filepath.Join("testdata", "golden", name+".s")
				got := b.String()
				if *update {
					if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with -update)", err)
				}
				if got != string(want) {
					t.Errorf("%s differs from the golden output: %s", path, firstDiff(string(want), got))
				}
			})
		}
	}
}

// firstDiff names the first differing line of two listings.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, w, g)
		}
	}
	return "no line differs"
}
