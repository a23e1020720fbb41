// The replay-result memo: RunMulti serves a (stream, TLBOnlyConfig,
// policy) cell it has already walked from the stream instead of
// walking it again. A replay is a deterministic function of the
// stream, the configuration and the policy's freshly built state, so
// the memo key is exactly those three: the stream by who owns the memo
// (the one RunPasses job or RunMulti call that holds the stream), the
// configuration in full, and the policy as policyKey's canonical
// encoding of its type and state. The memo is in memory only: a stream
// key does not cover policy code, so a persisted result could outlive
// a policy bug fix.
package sim

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"reflect"
	"runtime"

	"github.com/chirplab/chirp/internal/l2stream"
	"github.com/chirplab/chirp/internal/obs"
	"github.com/chirplab/chirp/internal/tlb"
)

// Memo metrics, published once per RunMulti replay (never from the
// walker). A hit simulated nothing, so it publishes no TLB or policy
// counters either.
var (
	obsMemoHits = obs.Default.Counter("chirp_replay_memo_hits_total",
		"Replayed (workload, policy) cells served from the replay-result memo instead of walked.")
	obsMemoMisses = obs.Default.Counter("chirp_replay_memo_misses_total",
		"Replayed (workload, policy) cells walked, including policies the memo cannot key.")
)

// replayCells replays cells over memo, the results its owner has
// already walked from stream: every cell whose key — its configuration
// and policyKey — memo holds takes the memoized result, and the rest,
// the first cell of each new key plus every cell policyKey cannot key,
// walk together in one block pass (walkCells), whose keyed results
// then fill memo. Results are ordered like cells and equal each cell's
// ReplayMulti field for field. Like walkCells, it takes the cells'
// policies.
func replayCells(memo map[string]TLBOnlyResult, stream *l2stream.Stream, cells []cell) ([]TLBOnlyResult, error) {
	var (
		keys  = make([]string, len(cells)) // "" when the policy has no key
		walk  []cell
		pos   = make([]int, len(cells)) // index into walk of each cell's walker, -1 on a memo hit
		first = map[string]int{}        // key → index into walk of its walker
	)
	for i, c := range cells {
		if k, ok := policyKey(c.p); ok {
			keys[i] = fmt.Sprintf("%+v:", c.cfg) + k
			if _, hit := memo[keys[i]]; hit {
				pos[i] = -1
				continue
			}
			if w, seen := first[keys[i]]; seen {
				pos[i] = w
				continue
			}
			first[keys[i]] = len(walk)
		}
		pos[i] = len(walk)
		walk = append(walk, c)
	}
	for i := range cells {
		cells[i].p = nil // taken by walk, or never walked
	}
	var walked []TLBOnlyResult
	if len(walk) > 0 {
		var err error
		if walked, err = walkCells(stream, walk, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
	}
	out := make([]TLBOnlyResult, len(cells))
	for i := range cells {
		if pos[i] < 0 {
			out[i] = memo[keys[i]]
			continue
		}
		out[i] = walked[pos[i]]
		if keys[i] != "" {
			memo[keys[i]] = out[i]
		}
	}
	obsMemoMisses.Add(uint64(len(walk)))
	obsMemoHits.Add(uint64(len(cells) - len(walk)))
	return out, nil
}

// policyKey returns the memo identity of a freshly built policy, taken
// before tlb.New attaches it: a hash of its dynamic type and of a
// canonical encoding of every value reachable from it, through
// pointers, slices, arrays, structs and interfaces, unexported fields
// included. Two policies with equal keys therefore start in the same
// state and, walked over one stream under one configuration, produce
// the same result. ok is false when the state holds something the
// encoding cannot capture — a non-nil func, chan or unsafe pointer, or
// a non-empty map, whose iteration order is not canonical — and such a
// policy is always walked.
func policyKey(p tlb.Policy) (key string, ok bool) {
	e := stateEncoder{seen: map[stateRef]uint64{}}
	for i := range e.h {
		e.h[i].SetSeed(keySeeds[i])
	}
	if !e.encode(reflect.ValueOf(&p).Elem()) {
		return "", false
	}
	e.flush()
	var sum [16]byte
	binary.LittleEndian.PutUint64(sum[:8], e.h[0].Sum64())
	binary.LittleEndian.PutUint64(sum[8:], e.h[1].Sum64())
	return string(sum[:]), true
}

// keySeeds seed policyKey's two 64-bit hashes. Keys live only in this
// process's memory, so per-process seeds suffice, and 128 bits make a
// collision between the few dozen keys of one stream negligible.
var keySeeds = [2]maphash.Seed{maphash.MakeSeed(), maphash.MakeSeed()}

// stateRef identifies a reference target: pointers, slices and maps
// to one address and type encode their contents once, and every later
// reference encodes a back-reference, so both cycles and sharing are
// part of the encoding. Slices that overlap at different offsets of
// one backing array are encoded as independent.
type stateRef struct {
	addr uintptr
	typ  reflect.Type
}

// stateEncoder streams policyKey's canonical encoding into h. Each
// reference starts with a tag byte; integers take their type's width,
// and strings and slices are length-prefixed, so the encoding is
// prefix-free.
type stateEncoder struct {
	h    [2]maphash.Hash
	buf  []byte              // pending bytes, flushed into h in chunks
	seen map[stateRef]uint64 // reference → visit ordinal
}

const (
	tagNil byte = iota
	tagNew
	tagBackRef
)

// flushAt bounds buf: a prediction table streams through it in chunks
// instead of growing one buffer to its size.
const flushAt = 4 << 10

func (e *stateEncoder) flush() {
	for i := range e.h {
		e.h[i].Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *stateEncoder) tag(t byte) { e.buf = append(e.buf, t) }

// int appends x's low size bytes.
func (e *stateEncoder) int(x uint64, size uintptr) {
	for ; size > 0; size-- {
		e.buf = append(e.buf, byte(x))
		x >>= 8
	}
	if len(e.buf) >= flushAt {
		e.flush()
	}
}

func (e *stateEncoder) u64(x uint64) { e.int(x, 8) }

// ref writes the tag for a non-nil reference and reports whether its
// target still needs encoding (first visit).
func (e *stateEncoder) ref(addr uintptr, t reflect.Type) bool {
	r := stateRef{addr, t}
	if n, ok := e.seen[r]; ok {
		e.tag(tagBackRef)
		e.u64(n)
		return false
	}
	e.seen[r] = uint64(len(e.seen))
	e.tag(tagNew)
	return true
}

// encode appends v's encoding and reports false on a value it cannot
// encode.
func (e *stateEncoder) encode(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			e.int(1, 1)
		} else {
			e.int(0, 1)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.int(uint64(v.Int()), v.Type().Size())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		e.int(v.Uint(), v.Type().Size())
	case reflect.Float32, reflect.Float64:
		e.u64(math.Float64bits(v.Float()))
	case reflect.Complex64, reflect.Complex128:
		c := v.Complex()
		e.u64(math.Float64bits(real(c)))
		e.u64(math.Float64bits(imag(c)))
	case reflect.String:
		e.str(v.String())
	case reflect.Array:
		return e.elems(v)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !e.encode(v.Field(i)) {
				return false
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			e.tag(tagNil)
		} else if e.ref(v.Pointer(), v.Type()) {
			return e.encode(v.Elem())
		}
	case reflect.Slice:
		switch {
		case v.IsNil():
			e.tag(tagNil)
		case v.Cap() == 0:
			e.tag(tagNew)
			e.u64(0)
		case e.ref(v.Pointer(), v.Type()):
			e.u64(uint64(v.Len()))
			return e.elems(v)
		default:
			e.u64(uint64(v.Len()))
		}
	case reflect.Map:
		if v.IsNil() {
			e.tag(tagNil)
		} else if v.Len() > 0 {
			return false
		} else if e.ref(v.Pointer(), v.Type()) {
			e.u64(0)
		}
	case reflect.Interface:
		if v.IsNil() {
			e.tag(tagNil)
			return true
		}
		e.tag(tagNew)
		e.str(typeID(v.Elem().Type()))
		return e.encode(v.Elem())
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		if !v.IsNil() {
			return false
		}
		e.tag(tagNil)
	default:
		return false
	}
	return true
}

// str appends a length-prefixed string.
func (e *stateEncoder) str(s string) {
	e.u64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// elems encodes an array's or slice's elements. Integer elements,
// which make up the prediction tables, take loops that skip encode's
// dispatch, and byte runs go straight to the hashes.
func (e *stateEncoder) elems(v reflect.Value) bool {
	n := v.Len()
	et := v.Type().Elem()
	switch k := et.Kind(); {
	case k == reflect.Uint8 && (v.Kind() == reflect.Slice || v.CanAddr()):
		e.flush()
		for i := range e.h {
			e.h[i].Write(v.Bytes())
		}
	case k >= reflect.Int && k <= reflect.Int64:
		for i := 0; i < n; i++ {
			e.int(uint64(v.Index(i).Int()), et.Size())
		}
	case k >= reflect.Uint && k <= reflect.Uintptr:
		for i := 0; i < n; i++ {
			e.int(v.Index(i).Uint(), et.Size())
		}
	default:
		for i := 0; i < n; i++ {
			if !e.encode(v.Index(i)) {
				return false
			}
		}
	}
	return true
}

// typeID names a dynamic type unambiguously: its string form plus the
// import path of the named type under any pointers.
func typeID(t reflect.Type) string {
	base := t
	for base.Kind() == reflect.Pointer {
		base = base.Elem()
	}
	return base.PkgPath() + " " + t.String()
}
