package codegen

import (
	"testing"

	"ggcg/internal/cfront"
	"ggcg/internal/corpus"
)

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
