// Ggtables runs the code generator generator: it type-replicates a machine
// description grammar, constructs the SLR(1)-style instruction-selection
// tables, and reports the statistics and diagnostics of §3.2 and §8 of the
// paper (grammar sizes, state counts, disambiguated conflicts, semantic
// blocks, and — with -blocks — a bounded search for syntactic blocks).
//
// Usage:
//
//	ggtables [flags] [description.g]
//
// With no file the built-in description of the -target machine (default
// vax) is used.
//
//	-target name  report on the named built-in machine description
//	-naive        use the naive first-cut construction algorithm (§7)
//	-conflicts    list every disambiguated conflict
//	-blocks n     search for syntactic blocks on inputs up to n terminals
//	-gen file     write the tables as Go source for the -target package
//
// The built-in targets ship their tables as generated source, made by
// `go generate ./internal/vax ./internal/risc`, which runs
// `ggtables -target <name> -gen tables_gen.go` in each package.
package main

import (
	"flag"
	"fmt"
	"os"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	"ggcg/internal/risc"
	"ggcg/internal/tablegen"
	"ggcg/internal/vax"
)

func main() {
	var (
		targetFlg = flag.String("target", "vax", "built-in machine description to report on")
		naive     = flag.Bool("naive", false, "use the naive construction algorithm")
		conflicts = flag.Bool("conflicts", false, "list disambiguated conflicts")
		blocks    = flag.Int("blocks", 0, "search for syntactic blocks up to n terminals")
		gen       = flag.String("gen", "", "write the tables as Go source for the -target package to `file`")
	)
	flag.Parse()

	var src, name string
	switch *targetFlg {
	case "vax":
		src, name = vax.GenericGrammar, "built-in VAX description"
	case "risc":
		src, name = risc.GenericGrammar, "built-in RISC description"
	default:
		fatal(fmt.Errorf("unknown -target %q (built-in descriptions: risc, vax)", *targetFlg))
	}
	if flag.NArg() == 1 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		src, name = string(data), flag.Arg(0)
	} else if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "usage: ggtables [flags] [description.g]")
		os.Exit(2)
	}

	generic, err := cgram.Parse(mdgen.Generic(src))
	if err != nil {
		fatal(err)
	}
	expanded, err := mdgen.Expand(src)
	if err != nil {
		fatal(err)
	}
	g, err := cgram.Parse(expanded)
	if err != nil {
		fatal(err)
	}
	if err := g.Validate(ir.TermArity); err != nil {
		fmt.Fprintln(os.Stderr, "warning:", err)
	}
	t, err := tablegen.Build(g, tablegen.Options{Naive: *naive})
	if err != nil {
		fatal(err)
	}

	gs, fs := generic.Stats(), g.Stats()
	fmt.Printf("%s\n", name)
	fmt.Printf("generic:    %4d productions  %4d terminals  %4d nonterminals\n",
		gs.Productions, gs.Terminals, gs.Nonterminals)
	fmt.Printf("replicated: %4d productions  %4d terminals  %4d nonterminals  %4d chain rules\n",
		fs.Productions, fs.Terminals, fs.Nonterminals, fs.ChainRules)
	sz := t.Size()
	fmt.Printf("tables:     %4d states  %5d action entries  %5d goto entries\n",
		t.Stats.States, sz.ActionEntries, sz.GotoEntries)
	fmt.Printf("encoding:   %7d bytes dense  %7d bytes packed  (%.1fx compression)\n",
		sz.Bytes, sz.PackedBytes, float64(sz.Bytes)/float64(sz.PackedBytes))
	fmt.Printf("conflicts:  %d disambiguated  (%d dynamic choices, %d semantic blocks)\n",
		len(t.Conflicts), len(t.Choices), len(t.SemBlocks))
	for _, sb := range t.SemBlocks {
		fmt.Printf("  semantic block: state %d on %s, productions %v\n", sb.State, sb.Term, sb.Prods)
	}
	if *conflicts {
		for _, c := range t.Conflicts {
			fmt.Println(" ", c)
		}
	}
	if *blocks > 0 {
		bs, complete := tablegen.CheckBlocks(t, ir.TermArity, *blocks, 500000)
		fmt.Printf("syntactic block search (inputs up to %d terminals, exhaustive=%v): %d potential blocks\n",
			*blocks, complete, len(bs))
		for i, blk := range bs {
			if i >= 20 {
				fmt.Printf("  ... and %d more\n", len(bs)-20)
				break
			}
			fmt.Println(" ", blk)
		}
	}
	if *gen != "" {
		src, err := t.GoSource(*targetFlg)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*gen, src, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("tables written to %s (%d bytes of Go source)\n", *gen, len(src))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ggtables:", err)
	os.Exit(1)
}
