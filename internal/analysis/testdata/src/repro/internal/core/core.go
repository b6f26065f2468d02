// Package core is a hotpath fixture (and the stub engine package the
// layering fixtures import).
package core

// Sink gives the fixtures a process-owned buffer to reslice and gives
// the layering fixtures an exported symbol to touch.
type Sink struct {
	Buf []int
}

func box(v any) any { return v }

//kd:hotpath
func hotClosure() int {
	f := func() int { return 1 } // want `closure literal in hot path`
	return f()
}

//kd:hotpath
func hotDefer() {
	defer println("done") // want `defer in hot path`
}

//kd:hotpath
func hotGo() {
	go println("spawned") // want `goroutine launch in hot path`
}

//kd:hotpath
func hotMake(n int) []int {
	return make([]int, n) // want `make allocates in hot path`
}

//kd:hotpath
func hotLiteral() []int {
	return []int{1, 2} // want `slice literal allocates in hot path`
}

//kd:hotpath
func hotAppendFresh(s *Sink, v int) {
	var out []int
	out = append(out, v) // want `append into a non-preallocated slice`
	s.Buf = out
}

// hotAppendPresized reuses a process-owned buffer through the reslice
// idiom: recognized, no finding.
//
//kd:hotpath
func hotAppendPresized(s *Sink, v int) {
	out := s.Buf[:0]
	out = append(out, v)
	s.Buf = out
}

//kd:hotpath
func hotBox(v int) any {
	return box(v) // want `implicit conversion of int to interface`
}

// cellWord constrains by element types: its type set holds no interface,
// so a value of a type parameter it constrains is never an interface value.
type cellWord interface {
	~uint8 | ~uint16
}

// hotSetCell converts to such a type parameter: a plain integer
// conversion, no finding.
//
//kd:hotpath
func hotSetCell[E cellWord](c []E, i, v int) {
	c[i] = E(v)
}

//kd:hotpath
func hotBoxCell[E cellWord](c []E, i int) any {
	return box(c[i]) // want `implicit conversion of E to interface`
}

// hotAllowed shows a justified suppression: the finding is silenced.
//
//kd:hotpath
func hotAllowed() []int {
	//kdlint:allow hotpath setup-time helper, measured alloc-free in the round benchmarks
	return make([]int, 4)
}

// coldClosure is not annotated, so nothing here is checked.
func coldClosure() func() int {
	return func() int { return 2 }
}
