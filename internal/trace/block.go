package trace

// BlockSource is the batched counterpart of Source: NextBlock fills a
// caller-provided slice with up to len(buf) records and returns how
// many were produced (0 once the stream is exhausted). Hot consumers —
// the L2-stream capture path, CountInstructions — read through this
// interface to amortise the per-record dynamic-dispatch cost that
// dominates the generator side of a simulation; sources with cheap
// internal batching (the workload Generator, SliceSource, Limit)
// implement it natively.
type BlockSource interface {
	// NextBlock fills buf with the next records and returns the count.
	// A return of 0 means the stream is exhausted (and, like
	// Source.Next, it keeps returning 0 until Reset).
	NextBlock(buf []Record) int
	// Reset restarts the stream from the beginning.
	Reset()
}

// DefaultBlockSize is the batch size the package's own block consumers
// use: large enough to amortise interface calls, small enough that a
// block of Records stays cache- and stack-friendly.
const DefaultBlockSize = 512

// Blocks adapts src to batched reads. Sources that already implement
// BlockSource are returned as-is; otherwise the adapter loops
// src.Next, which preserves semantics but not the batching win.
func Blocks(src Source) BlockSource {
	if bs, ok := src.(BlockSource); ok {
		return bs
	}
	return &blockAdapter{src: src}
}

type blockAdapter struct{ src Source }

func (b *blockAdapter) NextBlock(buf []Record) int {
	n := 0
	for n < len(buf) && b.src.Next(&buf[n]) {
		n++
	}
	return n
}

func (b *blockAdapter) Reset() { b.src.Reset() }

// NextBlock implements BlockSource natively: records are copied out of
// the slice in one step.
func (s *SliceSource) NextBlock(buf []Record) int {
	n := copy(buf, s.Records[s.pos:])
	s.pos += n
	return n
}

// NextBlock implements BlockSource. It reads a block from the
// underlying source (batched when the source supports it) and applies
// the same budget clamp as Next; records drawn beyond the budget
// within the final block are discarded, which only matters for callers
// that keep reading the underlying source past the limit.
func (l *Limit) NextBlock(buf []Record) int {
	if l.seen >= l.Max {
		return 0
	}
	if l.blocks == nil {
		l.blocks = Blocks(l.Src)
	}
	n := l.blocks.NextBlock(buf)
	for i := 0; i < n; i++ {
		ins := buf[i].Instructions()
		if l.seen+ins >= l.Max {
			if l.seen+ins > l.Max {
				buf[i].Skip = uint32(l.Max - l.seen - 1)
			}
			l.seen = l.Max
			return i + 1
		}
		l.seen += ins
	}
	return n
}
