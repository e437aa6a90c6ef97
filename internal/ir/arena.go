package ir

import "sync"

// Arena is a slab allocator for expression-tree nodes and their child
// slices. The front half of the compiler — the cfront parser and the tree
// transformation phase — allocates every Node it builds from the
// compilation's arena, so building and rewriting a unit's trees costs a
// handful of slab allocations instead of one heap allocation per node
// (see DESIGN.md, "Memory ownership and arenas").
//
// An Arena is single-owner: it is not safe for concurrent use. Concurrent
// compilations each acquire their own (AcquireArena), and the parallel
// per-function path inside one compilation gives each worker its own.
// Reset recycles all slabs for reuse; Release returns the arena to a
// process-wide pool. After Reset or Release every node previously handed
// out is invalid — callers must guarantee nothing that outlives the
// compilation aliases arena memory. A nil *Arena is valid and falls back
// to ordinary heap allocation, node for node, so code threading an arena
// can be written once and exercised both ways.
type Arena struct {
	slabs   [][]Node  // node slabs, kept across Reset up to maxKeptSlabs
	kidSets [][]*Node // child-pointer slabs, kept the same way
	cur     int       // index of the active node slab
	kcur    int       // index of the active kid slab
	ni      int       // next free index in the active node slab
	ki      int       // next free index in the active kid slab

	// allocated counts nodes handed out since the last Reset, for tests
	// and introspection.
	allocated int
}

// Slab sizing: nodes are ~80 bytes, so 1024 of them is one ~80 KB slab —
// large enough that a typical function body costs zero slab growths in
// steady state, small enough that an idle pooled arena holds little.
const (
	nodeSlabLen = 1024
	kidSlabLen  = 2048
)

// maxKeptSlabs bounds the slabs of each kind an arena keeps across Reset
// (at most ~650 KB of nodes and 128 KB of child pointers). A pooled arena
// refills the same slabs compilation after compilation, so the front half
// of a typical unit makes no garbage for the collector; a unit larger
// than the cap still gets its extra slabs, and drops them at the next
// Reset, so one huge unit does not set a pooled arena's size for good.
const maxKeptSlabs = 8

// arenaPool recycles arenas (and with them their grown slabs) across
// compilations. Compile acquires one arena per unit; batch workers churn
// through the pool, so in steady state each worker keeps reusing the same
// warmed slabs.
var arenaPool = sync.Pool{New: func() any { return &Arena{} }}

// AcquireArena returns an empty arena from the process-wide pool.
func AcquireArena() *Arena {
	return arenaPool.Get().(*Arena)
}

// Release resets the arena and returns it to the pool. A nil receiver is
// a no-op, mirroring the nil-arena heap fallback of the allocators.
func (a *Arena) Release() {
	if a == nil {
		return
	}
	a.Reset()
	arenaPool.Put(a)
}

// Reset invalidates every node the arena has handed out and makes its
// slabs available for reuse, keeping at most maxKeptSlabs of each kind.
// Used slab prefixes are zeroed so stale child slices and symbol strings
// do not pin garbage across compilations; slabs past the active one were
// zeroed by an earlier Reset and never touched since.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	if len(a.slabs) > 0 {
		for _, s := range a.slabs[:a.cur] {
			clear(s)
		}
		clear(a.slabs[a.cur][:a.ni])
	}
	if len(a.kidSets) > 0 {
		for _, s := range a.kidSets[:a.kcur] {
			clear(s)
		}
		clear(a.kidSets[a.kcur][:a.ki])
	}
	a.slabs = keepSlabs(a.slabs)
	a.kidSets = keepSlabs(a.kidSets)
	a.cur, a.kcur, a.ni, a.ki = 0, 0, 0, 0
	a.allocated = 0
}

// keepSlabs drops the slabs past maxKeptSlabs, releasing them to the
// garbage collector.
func keepSlabs[T any](slabs [][]T) [][]T {
	if len(slabs) > maxKeptSlabs {
		clear(slabs[maxKeptSlabs:])
		slabs = slabs[:maxKeptSlabs]
	}
	return slabs
}

// Allocated returns the number of nodes handed out since the last Reset.
func (a *Arena) Allocated() int {
	if a == nil {
		return 0
	}
	return a.allocated
}

// Slabs returns the number of node slabs currently held.
func (a *Arena) Slabs() int {
	if a == nil {
		return 0
	}
	return len(a.slabs)
}

// New returns a zeroed node. With a nil receiver it heap-allocates, so
// arena-threaded code degrades gracefully when no arena is in play.
func (a *Arena) New() *Node {
	if a == nil {
		return &Node{}
	}
	if len(a.slabs) == 0 || a.ni == nodeSlabLen {
		a.slabs, a.cur = nextSlab(a.slabs, a.cur, nodeSlabLen)
		a.ni = 0
	}
	n := &a.slabs[a.cur][a.ni]
	a.ni++
	a.allocated++
	return n
}

// nextSlab advances the active slab index past cur, reusing a kept slab
// when there is one and appending a new one of length n otherwise. The
// first slab of an empty list is index 0.
func nextSlab[T any](slabs [][]T, cur, n int) ([][]T, int) {
	if len(slabs) > 0 {
		cur++
	}
	if cur == len(slabs) {
		slabs = append(slabs, make([]T, n))
	}
	return slabs, cur
}

// kids carves a child slice of length n with exact capacity, so appends
// beyond it cannot clobber a neighbor's children.
func (a *Arena) kids(n int) []*Node {
	if a == nil {
		return make([]*Node, n)
	}
	if n > kidSlabLen {
		return make([]*Node, n) // oversized: straight to the heap
	}
	if len(a.kidSets) == 0 || a.ki+n > kidSlabLen {
		a.kidSets, a.kcur = nextSlab(a.kidSets, a.kcur, kidSlabLen)
		a.ki = 0
	}
	s := a.kidSets[a.kcur][a.ki : a.ki+n : a.ki+n]
	a.ki += n
	return s
}

// Kids returns an arena-backed child slice holding the given children.
func (a *Arena) Kids(kids ...*Node) []*Node {
	s := a.kids(len(kids))
	copy(s, kids)
	return s
}

// MakeKids returns an arena-backed child slice of length n, for callers
// that fill the slots themselves.
func (a *Arena) MakeKids(n int) []*Node { return a.kids(n) }

// The constructors below mirror the package-level ones (NewConst, Bin,
// Un, ...) but draw from the arena; a nil arena makes them exactly
// equivalent to the free functions.

// NewConst returns an integer constant node.
func (a *Arena) NewConst(t Type, v int64) *Node {
	n := a.New()
	n.Op, n.Type, n.Val = Const, t, v
	return n
}

// NewFConst returns a floating constant node.
func (a *Arena) NewFConst(t Type, v float64) *Node {
	n := a.New()
	n.Op, n.Type, n.F = FConst, t, v
	return n
}

// NewName returns a global-name (address) leaf.
func (a *Arena) NewName(t Type, sym string) *Node {
	n := a.New()
	n.Op, n.Type, n.Sym = Name, t, sym
	return n
}

// NewDreg returns a dedicated-register leaf.
func (a *Arena) NewDreg(t Type, reg int) *Node {
	n := a.New()
	n.Op, n.Type, n.Val = Dreg, t, int64(reg)
	return n
}

// NewLab returns a label-reference leaf.
func (a *Arena) NewLab(id int) *Node {
	n := a.New()
	n.Op, n.Val = Lab, int64(id)
	return n
}

// Un returns a unary node.
func (a *Arena) Un(op Op, t Type, kid *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Kids = op, t, a.Kids(kid)
	return n
}

// Bin returns a binary node.
func (a *Arena) Bin(op Op, t Type, l, r *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Kids = op, t, a.Kids(l, r)
	return n
}

// NewCmp returns a compare node carrying a relation code.
func (a *Arena) NewCmp(t Type, rel Rel, l, r *Node) *Node {
	n := a.New()
	n.Op, n.Type, n.Val, n.Kids = Cmp, t, int64(rel), a.Kids(l, r)
	return n
}

// SmallConst returns a constant node of the smallest signed integer type
// that represents v (cf. the package-level SmallConst).
func (a *Arena) SmallConst(v int64) *Node {
	switch {
	case v >= -128 && v <= 127:
		return a.NewConst(Byte, v)
	case v >= -32768 && v <= 32767:
		return a.NewConst(Word, v)
	default:
		return a.NewConst(Long, v)
	}
}

// FrameAddr returns the address expression fp+off for a local or
// temporary.
func (a *Arena) FrameAddr(off int) *Node {
	return a.Bin(Plus, Long, a.SmallConst(int64(off)), a.NewDreg(Long, RegFP))
}

// FrameRef returns an Indir fetching the local or temporary of type t at
// fp offset off.
func (a *Arena) FrameRef(t Type, off int) *Node {
	return a.Un(Indir, t, a.FrameAddr(off))
}

// Clone returns a deep copy of the tree, allocated from the arena.
func (a *Arena) Clone(n *Node) *Node {
	if n == nil {
		return nil
	}
	m := a.New()
	*m = *n
	if n.Kids != nil {
		m.Kids = a.kids(len(n.Kids))
		for i, k := range n.Kids {
			m.Kids[i] = a.Clone(k)
		}
	}
	return m
}
