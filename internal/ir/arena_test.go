package ir

import (
	"sync"
	"testing"
)

func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	n := a.Bin(Plus, Long, a.SmallConst(3), a.NewDreg(Long, RegFP))
	if n.Op != Plus || n.Kids[0].Val != 3 || n.Kids[1].Op != Dreg {
		t.Fatalf("nil-arena tree wrong: %s", n)
	}
	if a.Allocated() != 0 || a.Slabs() != 0 {
		t.Fatalf("nil arena reports state: %d nodes, %d slabs", a.Allocated(), a.Slabs())
	}
	a.Reset()   // must not panic
	a.Release() // must not panic
}

func TestArenaMatchesHeapConstructors(t *testing.T) {
	a := NewTestArena()
	heap := Bin(Assign, Long, NewName(Long, "a"),
		Bin(Plus, Long, SmallConst(27), FrameRef(Byte, -4)))
	arena := a.Bin(Assign, Long, a.NewName(Long, "a"),
		a.Bin(Plus, Long, a.SmallConst(27), a.FrameRef(Byte, -4)))
	if !heap.Equal(arena) {
		t.Fatalf("arena tree differs:\nheap:  %s\narena: %s", heap, arena)
	}
	c := a.Clone(heap)
	if !c.Equal(heap) {
		t.Fatalf("arena clone differs: %s vs %s", c, heap)
	}
	c.Kids[0].Sym = "b"
	if heap.Kids[0].Sym != "a" {
		t.Fatal("arena clone aliases the original")
	}
}

// NewTestArena returns a fresh, unpooled arena for tests.
func NewTestArena() *Arena { return &Arena{} }

func TestArenaSlabGrowth(t *testing.T) {
	a := NewTestArena()
	var nodes []*Node
	const total = 3*nodeSlabLen + 17
	for i := 0; i < total; i++ {
		n := a.NewConst(Long, int64(i))
		nodes = append(nodes, n)
	}
	if got := a.Allocated(); got != total {
		t.Fatalf("Allocated = %d, want %d", got, total)
	}
	if got := a.Slabs(); got != 4 {
		t.Fatalf("Slabs = %d, want 4", got)
	}
	// Every handed-out node stays valid and distinct across growth.
	for i, n := range nodes {
		if n.Val != int64(i) {
			t.Fatalf("node %d corrupted: Val = %d", i, n.Val)
		}
	}
}

func TestArenaKidsCapacityIsExact(t *testing.T) {
	a := NewTestArena()
	l := a.Bin(Plus, Long, a.SmallConst(1), a.SmallConst(2))
	r := a.Bin(Plus, Long, a.SmallConst(3), a.SmallConst(4))
	if cap(l.Kids) != len(l.Kids) {
		t.Fatalf("kids cap %d != len %d", cap(l.Kids), len(l.Kids))
	}
	// Appending to one node's kids must reallocate, not clobber the
	// neighbor carved right after it from the same slab.
	l.Kids = append(l.Kids, a.SmallConst(99))
	if r.Kids[0].Val != 3 || r.Kids[1].Val != 4 {
		t.Fatalf("append clobbered neighbor kids: %s", r)
	}
}

func TestArenaOversizedKids(t *testing.T) {
	a := NewTestArena()
	big := a.MakeKids(kidSlabLen + 1)
	if len(big) != kidSlabLen+1 {
		t.Fatalf("oversized kids len = %d", len(big))
	}
}

// TestArenaResetReuse pins the retention policy: Reset keeps at most
// maxKeptSlabs slabs of each kind, however far a unit grew the arena, and
// a refill that fits in the kept slabs allocates nothing.
func TestArenaResetReuse(t *testing.T) {
	a := NewTestArena()
	// fill hands out n leaf/parent pairs, drawing on both slab kinds.
	fill := func(n int) {
		for i := 0; i < n; i++ {
			a.Un(Neg, Long, a.NewName(Long, "sym"))
		}
	}
	// Twice the kept kid slabs, eight times the kept node slabs.
	fill(2 * maxKeptSlabs * kidSlabLen)
	if a.Slabs() != 4*maxKeptSlabs*kidSlabLen/nodeSlabLen || len(a.kidSets) != 2*maxKeptSlabs {
		t.Fatalf("fill grew %d node and %d kid slabs, want %d and %d",
			a.Slabs(), len(a.kidSets), 4*maxKeptSlabs*kidSlabLen/nodeSlabLen, 2*maxKeptSlabs)
	}
	a.Reset()
	if a.Allocated() != 0 {
		t.Fatalf("Allocated after Reset = %d", a.Allocated())
	}
	if a.Slabs() != maxKeptSlabs || len(a.kidSets) != maxKeptSlabs {
		t.Fatalf("Reset kept %d node and %d kid slabs, want the cap %d of each",
			a.Slabs(), len(a.kidSets), maxKeptSlabs)
	}
	// Reused slots come back zeroed, in every kept slab: no stale Sym
	// strings or Kids.
	for i := 0; i < maxKeptSlabs*nodeSlabLen; i++ {
		if n := a.New(); n.Op != 0 || n.Sym != "" || n.Kids != nil || n.Val != 0 {
			t.Fatalf("reused node %d not zeroed: %+v", i, n)
		}
	}
	for i := 0; i < maxKeptSlabs*kidSlabLen; i++ {
		if k := a.MakeKids(1); k[0] != nil {
			t.Fatalf("reused kid slot %d not zeroed", i)
		}
	}
	if a.Slabs() != maxKeptSlabs || len(a.kidSets) != maxKeptSlabs {
		t.Fatalf("refilling the kept slabs grew them to %d node and %d kid slabs", a.Slabs(), len(a.kidSets))
	}

	// A second fill of the same size after Reset makes no new slab.
	a.Reset()
	fill(3 * nodeSlabLen / 2)
	slabs, kidSlabs := a.Slabs(), len(a.kidSets)
	allocs := testing.AllocsPerRun(10, func() {
		a.Reset()
		fill(3 * nodeSlabLen / 2)
	})
	if allocs != 0 || a.Slabs() != slabs || len(a.kidSets) != kidSlabs {
		t.Fatalf("refill after Reset: %.0f allocations, %d/%d slabs (was %d/%d); want 0 and unchanged",
			allocs, a.Slabs(), len(a.kidSets), slabs, kidSlabs)
	}

	// A fill after Reset must produce the same structure as the first
	// one did.
	a.Reset()
	tree := a.Bin(Plus, Long, a.SmallConst(1), a.SmallConst(2))
	want := Bin(Plus, Long, SmallConst(1), SmallConst(2))
	if !tree.Equal(want) {
		t.Fatalf("post-Reset tree differs: %s", tree)
	}
}

// TestArenaPoolRecycling churns arenas through the pool from concurrent
// goroutines; under -race this doubles as the cross-goroutine handoff
// check (sync.Pool publishes, each arena is single-owner in between).
func TestArenaPoolRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := AcquireArena()
				if a.Allocated() != 0 {
					t.Errorf("acquired dirty arena: %d nodes", a.Allocated())
					return
				}
				tree := a.Bin(Mul, Long, a.SmallConst(6), a.SmallConst(7))
				if tree.Kids[0].Val*tree.Kids[1].Val != 42 {
					t.Errorf("corrupted tree: %s", tree)
					return
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
}
