package codegen

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
	_ "ggcg/internal/risc" // registers the second target
	"ggcg/internal/target"
)

// TestPackedEquivalence holds the packed comb-vector tables to exact
// lookup equivalence with the dense matrices over every (state, symbol)
// pair of every registered target's full description — the
// production-scale counterpart of tablegen's differential test on toy
// grammars. The matcher drives only the packed form, so this lookup
// equivalence is what ties its actions to the dense LR construction.
func TestPackedEquivalence(t *testing.T) {
	for _, name := range target.Names() {
		t.Run(name, func(t *testing.T) {
			mach, err := target.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			tb, err := mach.Tables()
			if err != nil {
				t.Fatal(err)
			}
			p := tb.Packed()
			if p == nil {
				t.Fatalf("%s tables have no packed form", name)
			}
			nTermsEnd := len(tb.Terms) + 1
			for s := 0; s < tb.Stats.States; s++ {
				for term := 0; term < nTermsEnd; term++ {
					if dense, packed := tb.Lookup(s, term), p.Lookup(s, term); dense != packed {
						t.Fatalf("action(%d,%d): dense %v/%d packed %v/%d",
							s, term, dense.Kind, dense.Arg, packed.Kind, packed.Arg)
					}
				}
				for nt := 0; nt < len(tb.Nonterms); nt++ {
					if dense, packed := tb.GotoState(s, nt), int(p.GotoState(int32(s), int32(nt))); dense != packed {
						t.Fatalf("goto(%d,%d): dense %d packed %d", s, nt, dense, packed)
					}
				}
			}
			sz := tb.Size()
			if sz.PackedBytes <= 0 || sz.Bytes <= 0 {
				t.Fatalf("table sizes not measured: %+v", sz)
			}
			if sz.PackedBytes >= sz.Bytes {
				t.Errorf("packed form (%d bytes) is no smaller than dense (%d bytes)", sz.PackedBytes, sz.Bytes)
			}
		})
	}
}

// TestMatcherMaxDepth checks that stack depth is accounted without an
// observer attached, and grows on the reduce path too (a right-deep tree
// keeps pushing goto states past the shift high-water mark).
func TestMatcherMaxDepth(t *testing.T) {
	u, err := cfront.Compile(corpus.Large(6))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Compile(u, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Matcher.MaxDepth < 3 {
		t.Errorf("MaxDepth = %d, implausibly shallow for the large unit", res.Stats.Matcher.MaxDepth)
	}
}
