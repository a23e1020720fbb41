// Derived views: per-stream arrays that are pure functions of the
// captured event stream plus a small configuration key — the dense
// access columns and the folded predictor signature sequences. No
// stream holds them. A consumer reads a view in blocks of accesses:
// from its content-addressed sidecar file, when the stream belongs to
// a capture store that has one, and otherwise from a decode pass over
// the events (Stream.DecodeViews), which writes each block of the
// view into a new sidecar as it goes, so warm sweeps across processes
// skip the computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders live with their consumers (internal/sim), which
// hand in a DerivedSpec per view family. This package owns the
// sidecar file protocol only: the frame, the layout of words and
// columns, the checksum, staging and atomic rename.
package l2stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// DerivedSpec describes one derived-view family's sidecar: its
// invalidation key and its payload's layout.
//
// Key must change whenever the view's contents would: it should embed
// the family name, a format version, and every configuration input the
// view depends on (TLB geometry, predictor history configuration, …).
// Streams never compare keys semantically — distinct keys are distinct
// views.
//
// The payload is Words little-endian uint64 words, then one column per
// entry of Columns, in order, each holding one little-endian value of
// that byte width (4 or 8) per access of the stream (Stream.Accesses).
type DerivedSpec struct {
	Key     string
	Words   int
	Columns []int
}

// payloadSize returns the payload length for a stream of n accesses.
func (spec *DerivedSpec) payloadSize(n uint64) int64 {
	size := 8 * int64(spec.Words)
	for _, w := range spec.Columns {
		size += int64(w) * int64(n)
	}
	return size
}

// sidecarChunk is the size of the buffer a sidecar reader or writer
// moves its column values through: neither holds a whole column.
const sidecarChunk = 32 << 10

// sidecarCol is one column's place in a sidecar file: where it starts
// and ends, the next offset to read or write, and the running CRC-32C
// of the bytes up to it.
type sidecarCol struct {
	start, off, end int64
	crc             uint32
}

// columns lays spec's columns out after a frame of frame bytes and the
// words, for a stream of n accesses.
func (spec *DerivedSpec) columns(frame int64, n uint64) []sidecarCol {
	cols := make([]sidecarCol, len(spec.Columns))
	off := frame + 8*int64(spec.Words)
	for i, w := range spec.Columns {
		end := off + int64(w)*int64(n)
		cols[i] = sidecarCol{start: off, off: off, end: end}
		off = end
	}
	return cols
}

// payloadCRC combines the words' CRC-32C with every column's into the
// payload's.
func payloadCRC(words uint32, cols []sidecarCol) uint32 {
	crc := words
	for _, c := range cols {
		crc = crc32Combine(crc, c.crc, c.end-c.start)
	}
	return crc
}

// errSidecarCorrupt marks a sidecar whose frame, length or checksum is
// wrong.
var errSidecarCorrupt = errors.New("l2stream: corrupt derived sidecar")

// SidecarReader reads one derived view's sidecar in blocks: the words
// at open, then each column's values in order. Every byte it reads is
// folded into the payload's checksum, which the read that reaches the
// end of the last column checks; a read that fails or a checksum that
// does not match is counted as corruption (or as a disk error), closes
// the reader and — for a checksum — removes the file, so the view is
// rebuilt and the sidecar rewritten. A SidecarReader is not safe for
// concurrent use.
type SidecarReader struct {
	path  string
	f     *os.File
	words []uint64
	wcrc  uint32 // the words' CRC-32C
	want  uint32 // the payload's, from the frame
	cols  []sidecarCol
	buf   []byte
	done  bool // the checksum matched
}

// OpenSidecar opens spec's sidecar for reading. It returns nil when the
// stream belongs to no capture store or the store holds nothing usable
// for spec: a missing file silently, an unreadable one counted as a
// disk error, and one whose frame or length is wrong counted as
// corruption.
func (s *Stream) OpenSidecar(spec *DerivedSpec) *SidecarReader {
	if s.store == nil {
		return nil
	}
	path := s.store.derivedPath(s.key, spec.Key)
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			obsCacheDiskErrors.Inc()
		}
		return nil
	}
	r := &SidecarReader{path: path, f: f}
	if err := r.open(spec, s.accesses); err != nil {
		r.fail(err)
		return nil
	}
	r.buf = make([]byte, sidecarChunk)
	if r.complete() && !r.check() {
		return nil
	}
	return r
}

// open checks the frame against the container versions, spec's key
// and the payload length spec lays out for n accesses, and the file's
// length against the frame, and reads the words.
func (r *SidecarReader) open(spec *DerivedSpec, n uint64) error {
	frame := make([]byte, derivedFrameSize(spec.Key))
	if err := r.readAt(frame, 0); err != nil {
		return err
	}
	tail := frame[len(frame)-16:]
	size := spec.payloadSize(n)
	if string(frame[:4]) != derivedMagic ||
		binary.LittleEndian.Uint32(frame[4:8]) != DerivedFormatVersion ||
		binary.LittleEndian.Uint32(frame[8:12]) != CodecVersion ||
		binary.LittleEndian.Uint32(frame[12:16]) != uint32(len(spec.Key)) ||
		string(frame[16:16+len(spec.Key)]) != spec.Key ||
		int64(binary.LittleEndian.Uint64(tail)) != size {
		return errSidecarCorrupt
	}
	info, err := r.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() != int64(len(frame))+size {
		return errSidecarCorrupt // truncated, or bytes trail the payload
	}
	r.want = uint32(binary.LittleEndian.Uint64(tail[8:]))
	if binary.LittleEndian.Uint64(tail[8:])>>32 != 0 {
		return errSidecarCorrupt
	}
	wb := make([]byte, 8*spec.Words)
	if err := r.readAt(wb, int64(len(frame))); err != nil {
		return err
	}
	r.wcrc = crc32.Checksum(wb, castagnoli)
	r.words = make([]uint64, spec.Words)
	for i := range r.words {
		r.words[i] = binary.LittleEndian.Uint64(wb[8*i:])
	}
	r.cols = spec.columns(int64(len(frame)), n)
	return nil
}

// readAt fills b from offset off; a short file reads as corruption.
func (r *SidecarReader) readAt(b []byte, off int64) error {
	if _, err := r.f.ReadAt(b, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return errSidecarCorrupt
		}
		return err
	}
	return nil
}

// Words returns the payload's leading words. They are checked with the
// rest of the payload, by the read that ends it.
func (r *SidecarReader) Words() []uint64 { return r.words }

// Reject drops a sidecar whose words its consumer found inconsistent
// with the stream, counting it as corruption.
func (r *SidecarReader) Reject() { r.fail(errSidecarCorrupt) }

// U64s reads the next len(dst) values of column col, an 8-byte column,
// and reports whether they, and the checksum when this read ends the
// payload, are good.
func (r *SidecarReader) U64s(col int, dst []uint64) bool {
	for len(dst) > 0 {
		k := min(len(dst), len(r.buf)/8)
		b := r.buf[:8*k]
		if !r.read(col, b) {
			return false
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint64(b[8*i:])
		}
		dst = dst[k:]
	}
	return r.finish()
}

// U32s is U64s for a 4-byte column.
func (r *SidecarReader) U32s(col int, dst []uint32) bool {
	for len(dst) > 0 {
		k := min(len(dst), len(r.buf)/4)
		b := r.buf[:4*k]
		if !r.read(col, b) {
			return false
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		dst = dst[k:]
	}
	return r.finish()
}

// read fills b from column col's next bytes and folds them into its
// checksum.
func (r *SidecarReader) read(col int, b []byte) bool {
	if r.f == nil {
		return false
	}
	c := &r.cols[col]
	if c.off+int64(len(b)) > c.end {
		r.fail(fmt.Errorf("l2stream: read past the end of a sidecar column"))
		return false
	}
	if err := r.readAt(b, c.off); err != nil {
		r.fail(err)
		return false
	}
	c.off += int64(len(b))
	c.crc = crc32.Update(c.crc, castagnoli, b)
	return true
}

// finish checks the payload once every column has been read through.
func (r *SidecarReader) finish() bool {
	if r.done {
		return true
	}
	if r.f == nil {
		return false
	}
	return !r.complete() || r.check()
}

// complete reports whether every column has been read through.
func (r *SidecarReader) complete() bool {
	for _, c := range r.cols {
		if c.off < c.end {
			return false
		}
	}
	return true
}

// check compares the payload's checksum with the frame's: a match
// counts a sidecar hit, a mismatch corruption, and the file is closed
// either way.
func (r *SidecarReader) check() bool {
	if payloadCRC(r.wcrc, r.cols) != r.want {
		r.fail(errSidecarCorrupt)
		os.Remove(r.path)
		return false
	}
	r.done = true
	obsDerivedDiskHits.Inc()
	r.Close()
	return true
}

// fail counts a failed read, as corruption or as a disk error, and
// closes the reader.
func (r *SidecarReader) fail(err error) {
	if errors.Is(err, errSidecarCorrupt) {
		obsDerivedCorrupt.Inc()
	} else {
		obsCacheDiskErrors.Inc()
	}
	r.Close()
}

// Close releases the file and the read buffer. A reader closed before
// its last read counts nothing.
func (r *SidecarReader) Close() {
	if r.f != nil {
		r.f.Close()
		r.f, r.buf = nil, nil
	}
}

// SidecarWriter writes one derived view's sidecar in blocks: each
// column's values go to a staging file at the column's offset as they
// are produced, and Commit writes the frame and the words and renames
// the file into place. A writer whose file fails stops writing, and
// its Commit counts a disk error and leaves no file. A SidecarWriter
// is not safe for concurrent use.
type SidecarWriter struct {
	st   *store
	key  Key
	spec *DerivedSpec
	f    *os.File
	cols []sidecarCol
	buf  []byte
	err  error
}

// CreateSidecar opens a staging file for spec's sidecar. It returns
// nil when the stream belongs to no capture store, or, counting a disk
// error, when the store cannot stage the file.
func (s *Stream) CreateSidecar(spec *DerivedSpec) *SidecarWriter {
	if s.store == nil {
		return nil
	}
	f, err := os.CreateTemp(s.store.dir, "chirp-*.l2d.tmp")
	if err != nil {
		obsCacheDiskErrors.Inc()
		return nil
	}
	return &SidecarWriter{
		st: s.store, key: s.key, spec: spec, f: f,
		cols: spec.columns(int64(derivedFrameSize(spec.Key)), s.accesses),
		buf:  make([]byte, sidecarChunk),
	}
}

// U64s appends src to column col, an 8-byte column.
func (w *SidecarWriter) U64s(col int, src []uint64) {
	for len(src) > 0 && w.err == nil {
		k := min(len(src), len(w.buf)/8)
		for i, x := range src[:k] {
			binary.LittleEndian.PutUint64(w.buf[8*i:], x)
		}
		w.write(col, w.buf[:8*k])
		src = src[k:]
	}
}

// U32s appends src to column col, a 4-byte column.
func (w *SidecarWriter) U32s(col int, src []uint32) {
	for len(src) > 0 && w.err == nil {
		k := min(len(src), len(w.buf)/4)
		for i, x := range src[:k] {
			binary.LittleEndian.PutUint32(w.buf[4*i:], x)
		}
		w.write(col, w.buf[:4*k])
		src = src[k:]
	}
}

// write puts b at column col's next offset and folds it into the
// column's checksum.
func (w *SidecarWriter) write(col int, b []byte) {
	c := &w.cols[col]
	if c.off+int64(len(b)) > c.end {
		w.err = fmt.Errorf("l2stream: sidecar column %d overflows %d bytes", col, c.end-c.start)
		return
	}
	if _, err := w.f.WriteAt(b, c.off); err != nil {
		w.err = err
		return
	}
	c.off += int64(len(b))
	c.crc = crc32.Update(c.crc, castagnoli, b)
}

// Commit completes the sidecar with its words, once every column is
// written through: the frame, with the payload's checksum combined
// from the words' and the columns', and the words go before the
// columns, and the file is renamed into place and added to the
// directory's running size. It counts a sidecar write, or a disk error
// when any step failed, in which case it leaves no file.
func (w *SidecarWriter) Commit(words []uint64) {
	if w.f == nil {
		return
	}
	if w.err == nil && len(words) != w.spec.Words {
		w.err = fmt.Errorf("l2stream: sidecar %s takes %d words, not %d", w.spec.Key, w.spec.Words, len(words))
	}
	for i, c := range w.cols {
		if w.err == nil && c.off != c.end {
			w.err = fmt.Errorf("l2stream: sidecar %s column %d holds %d of %d bytes", w.spec.Key, i, c.off-c.start, c.end-c.start)
		}
	}
	frame := make([]byte, derivedFrameSize(w.spec.Key), derivedFrameSize(w.spec.Key)+8*len(words))
	copy(frame, derivedMagic)
	binary.LittleEndian.PutUint32(frame[4:8], DerivedFormatVersion)
	binary.LittleEndian.PutUint32(frame[8:12], CodecVersion)
	binary.LittleEndian.PutUint32(frame[12:16], uint32(len(w.spec.Key)))
	copy(frame[16:], w.spec.Key)
	head := len(frame)
	for _, x := range words {
		frame = binary.LittleEndian.AppendUint64(frame, x)
	}
	size := 8 * int64(len(words))
	for _, c := range w.cols {
		size += c.end - c.start
	}
	tail := frame[head-16 : head]
	binary.LittleEndian.PutUint64(tail, uint64(size))
	binary.LittleEndian.PutUint64(tail[8:], uint64(payloadCRC(crc32.Checksum(frame[head:], castagnoli), w.cols)))
	if w.err == nil {
		_, w.err = w.f.WriteAt(frame, 0)
	}
	tmp := w.f.Name()
	if err := w.f.Close(); w.err == nil {
		w.err = err
	}
	w.f = nil
	if w.err == nil {
		w.err = os.Rename(tmp, w.st.derivedPath(w.key, w.spec.Key))
	}
	if w.err != nil {
		os.Remove(tmp)
		obsCacheDiskErrors.Inc()
		return
	}
	obsDerivedDiskWrites.Inc()
	w.st.wrote(int64(head) + size)
}

// Abort removes the staging file of a sidecar that will not be
// committed; after Commit it does nothing.
func (w *SidecarWriter) Abort() {
	if w.f == nil {
		return
	}
	w.f.Close()
	os.Remove(w.f.Name())
	w.f = nil
}
