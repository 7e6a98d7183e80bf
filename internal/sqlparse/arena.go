package sqlparse

// slab is a chunked arena for AST nodes of one concrete type. Nodes are
// appended into fixed-capacity chunks, so element addresses are stable
// for the life of the chunk — handing out *T into a chunk is safe even
// as the slab grows. A full chunk is simply dropped: the nodes carved
// from it keep it alive. At the end of every parse the slab detaches
// the same way, so the nodes live as long as the statement does and the
// next parse starts on a fresh chunk.
//
// Compared to one heap allocation per node, a slab performs one
// allocation per chunk (up to slabChunkElems nodes), which is where the
// front end's allocation budget goes from O(nodes) to O(chunks).
type slab[T any] struct {
	chunk []T // the chunk being filled; earlier ones belong to their nodes
}

// slabChunkElems is the steady-state per-chunk element count. Large
// enough that a typical dev-set statement fits each node type in one
// chunk once the slab has warmed up.
const slabChunkElems = 32

// slabFirstChunkElems sizes a slab's very first chunk. Most node types
// appear a handful of times per statement (one SelectCore, a few joins),
// so a detached parse — which starts every slab from empty — would
// strand ~kilobytes per statement if first chunks were full-sized.
const slabFirstChunkElems = 4

// alloc returns a pointer to a zeroed T with a stable address.
func (s *slab[T]) alloc() *T {
	if len(s.chunk) == cap(s.chunk) {
		s.grow(1)
	}
	var zero T
	s.chunk = append(s.chunk, zero)
	return &s.chunk[len(s.chunk)-1]
}

// allocSlice copies src into the arena and returns the copy with exact
// length and capacity, so appending to the result can never clobber a
// neighboring allocation. Empty input returns nil — the AST convention
// (and reflect.DeepEqual) distinguish nil from empty slices.
func (s *slab[T]) allocSlice(src []T) []T {
	if len(src) == 0 {
		return nil
	}
	if cap(s.chunk)-len(s.chunk) < len(src) {
		s.grow(len(src))
	}
	start := len(s.chunk)
	s.chunk = append(s.chunk, src...)
	return s.chunk[start : start+len(src) : start+len(src)]
}

func (s *slab[T]) grow(minElems int) {
	size := slabChunkElems
	if s.chunk == nil {
		size = slabFirstChunkElems
	}
	if minElems > size {
		size = minElems
	}
	s.chunk = make([]T, 0, size)
}

// detach transfers ownership of the current chunk to the allocations
// made from it: the slab forgets it and the AST's own pointers keep it
// alive.
func (s *slab[T]) detach() {
	s.chunk = nil
}
