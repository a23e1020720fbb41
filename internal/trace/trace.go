// Package trace defines the instruction-trace model that drives the
// simulators: a compact per-instruction record, a streaming Source
// interface, a deterministic RNG, and a binary on-disk trace format.
//
// The model follows the shape of the CVP-1 championship traces the
// paper used: each record carries the committed instruction's PC, its
// class, the effective address for memory operations, and the outcome
// and target for branches. Runs of plain ALU instructions between
// interesting records are compressed into a Skip count.
package trace

import (
	"fmt"
	"io"
)

// Class identifies the kind of a traced instruction. The distinctions
// match exactly what the simulated structures need: loads and stores
// drive the data TLB and caches, conditional branches drive the
// direction predictor and CHiRP's conditional-branch history, and
// indirect unconditional branches drive the indirect predictor and
// CHiRP's indirect-branch history.
type Class uint8

const (
	// ClassALU is a non-memory, non-branch instruction.
	ClassALU Class = iota
	// ClassLoad is a memory read; EA holds the effective address.
	ClassLoad
	// ClassStore is a memory write; EA holds the effective address.
	ClassStore
	// ClassCondBranch is a conditional branch; Taken and Target are valid.
	ClassCondBranch
	// ClassUncondDirect is an unconditional direct branch, jump or call.
	ClassUncondDirect
	// ClassUncondIndirect is an unconditional indirect branch, call or
	// return; Target is the dynamic target.
	ClassUncondIndirect

	numClasses
)

// NumClasses is the count of distinct instruction classes.
const NumClasses = int(numClasses)

var classNames = [...]string{
	ClassALU:            "alu",
	ClassLoad:           "load",
	ClassStore:          "store",
	ClassCondBranch:     "cond-branch",
	ClassUncondDirect:   "uncond-direct",
	ClassUncondIndirect: "uncond-indirect",
}

// String returns the lower-case name of the class.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// IsBranch reports whether the class is any kind of branch.
func (c Class) IsBranch() bool {
	return c == ClassCondBranch || c == ClassUncondDirect || c == ClassUncondIndirect
}

// IsMemory reports whether the class accesses data memory.
func (c Class) IsMemory() bool { return c == ClassLoad || c == ClassStore }

// Record is one committed instruction (plus a compressed run of the
// plain ALU instructions that preceded it). A zero Record is a single
// ALU instruction at PC 0.
type Record struct {
	// PC is the virtual address of the instruction.
	PC uint64
	// EA is the effective virtual address for loads and stores.
	EA uint64
	// Target is the branch target for taken branches.
	Target uint64
	// Skip counts plain ALU instructions that executed (in straight-line
	// code ending at PC) since the previous record. They matter only for
	// instruction counting and fetch-page accounting.
	Skip uint32
	// Class is the instruction's kind.
	Class Class
	// Taken is the outcome of a conditional branch. It is true for
	// unconditional branches and meaningless otherwise.
	Taken bool
}

// Instructions returns the number of committed instructions the record
// represents, including its skipped ALU run.
func (r *Record) Instructions() uint64 { return uint64(r.Skip) + 1 }

// Source is a stream of trace records. Implementations must be
// deterministic: after Reset the exact same sequence is produced again.
type Source interface {
	// Next fills rec with the next record and reports whether one was
	// available. After Next returns false it keeps returning false until
	// Reset is called.
	Next(rec *Record) bool
	// Reset restarts the stream from the beginning.
	Reset()
}

// CountInstructions drains src and returns the total committed
// instruction count and record count. The source is left exhausted.
// Reads are batched through BlockSource, so counting pays one
// interface call per block instead of one per record.
func CountInstructions(src Source) (instructions, records uint64) {
	bs := Blocks(src)
	var buf [DefaultBlockSize]Record
	for {
		n := bs.NextBlock(buf[:])
		if n == 0 {
			return instructions, records
		}
		records += uint64(n)
		for i := 0; i < n; i++ {
			instructions += buf[i].Instructions()
		}
	}
}

// Limit wraps a Source and truncates it after max committed
// instructions. Reset propagates to the underlying source.
type Limit struct {
	Src Source
	Max uint64

	seen   uint64
	blocks BlockSource // lazy batched view of Src, for NextBlock
}

// NewLimit returns a Source that yields records from src until exactly
// max committed instructions have been produced: a record whose Skip
// run would straddle the budget has its Skip clamped so the stream
// never overshoots (the record's own PC event is always kept, so a
// clamped stream still ends on a real instruction).
func NewLimit(src Source, max uint64) *Limit { return &Limit{Src: src, Max: max} }

// Next implements Source.
func (l *Limit) Next(rec *Record) bool {
	if l.seen >= l.Max {
		return false
	}
	if !l.Src.Next(rec) {
		return false
	}
	if n := rec.Instructions(); l.seen+n > l.Max {
		rec.Skip = uint32(l.Max - l.seen - 1)
		l.seen = l.Max
	} else {
		l.seen += n
	}
	return true
}

// Reset implements Source.
func (l *Limit) Reset() {
	l.seen = 0
	l.Src.Reset()
}

// Close closes the wrapped source when it is an io.Closer (a trace
// file), so whoever owns a bounded file source releases it through the
// Limit. Other sources hold nothing to release.
func (l *Limit) Close() error {
	if c, ok := l.Src.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// SliceSource replays a fixed slice of records; useful in tests and for
// materialised traces.
type SliceSource struct {
	Records []Record
	pos     int
}

// NewSliceSource returns a Source over recs.
func NewSliceSource(recs []Record) *SliceSource { return &SliceSource{Records: recs} }

// Next implements Source.
func (s *SliceSource) Next(rec *Record) bool {
	if s.pos >= len(s.Records) {
		return false
	}
	*rec = s.Records[s.pos]
	s.pos++
	return true
}

// Reset implements Source.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains src into a slice. Intended for tests and small traces.
func Collect(src Source) []Record {
	var out []Record
	var rec Record
	for src.Next(&rec) {
		out = append(out, rec)
	}
	return out
}
