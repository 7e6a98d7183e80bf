package sqlparse

import (
	"fmt"
	"reflect"
	"testing"
)

// TestDetachedASTSurvivesPoolReuse is the safety property behind
// Parse: once detached, an AST must be immune to any amount of later
// parsing through the pool, failed parses included. A plan in sqleval's
// cache keeps the AST it was compiled from, so a recycled node would not
// just be corrupt — it would silently change the cached plan of every
// statement that shares it.
func TestDetachedASTSurvivesPoolReuse(t *testing.T) {
	const q = "SELECT t.name, count(*) AS n FROM people AS t WHERE t.age >= 21 AND t.city = 'Oslo' GROUP BY t.name HAVING count(*) > 2 ORDER BY n DESC LIMIT 5"
	stmt := MustParse(q)
	want := stmt.SQL()
	for i := 0; i < 200; i++ {
		MustParse(fmt.Sprintf("SELECT c%d FROM t%d WHERE x%d = %d", i, i, i, i))
		if _, err := Parse(fmt.Sprintf("SELECT c%d, count(*) FROM t%d WHERE x%d = %d GROUP BY", i, i, i, i)); err == nil {
			t.Fatal("a GROUP BY without keys must not parse")
		}
	}
	if got := stmt.SQL(); got != want {
		t.Fatalf("detached AST mutated by pool reuse:\n got %q\nwant %q", got, want)
	}
	if !reflect.DeepEqual(stmt, MustParse(q)) {
		t.Fatal("detached AST no longer deep-equal to a fresh parse")
	}
}

// TestSlabStablePointers allocates far more nodes than one chunk holds
// and verifies no address ever moves or is overwritten, across growth,
// detach and the allocations made after it.
func TestSlabStablePointers(t *testing.T) {
	var s slab[int]
	var ptrs []*int
	for round := 0; round < 3; round++ {
		for i := 0; i < 5*slabChunkElems; i++ {
			q := s.alloc()
			if *q != 0 {
				t.Fatalf("round %d: alloc %d not zeroed: %d", round, i, *q)
			}
			*q = len(ptrs)
			ptrs = append(ptrs, q)
		}
		s.detach()
	}
	for i, q := range ptrs {
		if *q != i {
			t.Fatalf("pointer %d moved or clobbered: got %d", i, *q)
		}
	}
}

// TestSlabAllocSliceCapacity checks the full-slice-expression contract:
// appending to an arena slice must reallocate rather than grow into a
// neighbor.
func TestSlabAllocSliceCapacity(t *testing.T) {
	var s slab[int]
	a := s.allocSlice([]int{1, 2})
	b := s.allocSlice([]int{3, 4})
	a = append(a, 99)
	if b[0] != 3 || b[1] != 4 {
		t.Fatalf("append into neighbor: b = %v", b)
	}
	if len(a) != 3 || a[2] != 99 {
		t.Fatalf("append lost: a = %v", a)
	}
	if s.allocSlice(nil) != nil {
		t.Fatal("empty allocSlice must return nil")
	}
}
