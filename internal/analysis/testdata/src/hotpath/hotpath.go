// Package hotpathfix exercises the hotpath-alloc rule: one specimen of
// every banned construct, plus the //chirp:allow suppressions the rule
// must honor.
package hotpathfix

import "fmt"

type sink interface{ put(x any) }

type table struct {
	buf []uint64
	s   sink
}

func done() {}

// grow trips every allocation check the rule implements.
//
//chirp:hotpath
func (t *table) grow(n int) string {
	t.buf = append(t.buf, uint64(n)) // want "append in hot-path function table.grow"
	b := make([]byte, n)             // want "make in hot-path function table.grow"
	p := new(int)                    // want "new in hot-path function table.grow"
	_ = p
	s := string(b)     // want "string/slice conversion in hot-path function table.grow"
	s = s + "x"        // want "string concatenation in hot-path function table.grow"
	m := map[int]int{} // want "map literal in hot-path function table.grow"
	_ = m
	sl := []int{1} // want "slice literal in hot-path function table.grow"
	_ = sl
	f := func() {} // want "closure creation in hot-path function table.grow"
	f()
	defer done()  // want "defer in hot-path function table.grow"
	go done()     // want "go statement in hot-path function table.grow"
	fmt.Println() // want "fmt.Println call in hot-path function table.grow"
	t.s.put(n)    // want "argument boxes concrete int into"
	return s
}

// fill is covered whole-function by the doc-comment allow: the scratch
// buffer is preallocated, so this append cannot grow.
//
//chirp:allow hotpath-alloc fixture: append into preallocated scratch cannot grow
//chirp:hotpath
func (t *table) fill(n int) {
	t.buf = append(t.buf, uint64(n))
}

// scratch demonstrates the line-scoped allow form.
//
//chirp:hotpath
func scratch(n int) []byte {
	//chirp:allow hotpath-alloc fixture: one-time setup outside the measured loop
	return make([]byte, n)
}

// cold is unannotated: the same constructs draw no diagnostics.
func cold(n int) []byte {
	defer done()
	return make([]byte, n)
}

type access struct{ vpn uint64 }

// keeper stands for a policy interface: the compiler cannot see
// whether keep retains its argument, so the pointer escapes.
type keeper interface{ keep(a *access) }

type probe struct {
	k keeper
	a access
}

// lookupLocal hands a local's address to a callee that may keep it:
// a moves to the heap on every call.
//
//chirp:hotpath
func (p *probe) lookupLocal(vpn uint64) {
	a := access{vpn: vpn}
	p.k.keep(&a) // want "&a passes a local's address in hot-path function probe.lookupLocal"
}

// lookupHoisted is the fix: the access lives in the long-lived
// receiver, so passing its address allocates nothing.
//
//chirp:hotpath
func (p *probe) lookupHoisted(vpn uint64) {
	p.a = access{vpn: vpn}
	p.k.keep(&p.a)
}
