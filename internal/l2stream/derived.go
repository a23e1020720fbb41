// Derived views: per-stream arrays that are pure functions of the
// captured event stream plus a small configuration key — the folded
// predictor signature sequences. No stream holds them. A consumer
// reads a view in blocks of accesses: from its content-addressed
// sidecar file, when the stream belongs to a capture store that has
// one, and otherwise from a decode pass over the events
// (Stream.DecodeViews), which writes each block of the view into a new
// sidecar as it goes, so warm sweeps across processes skip the
// computation entirely.
//
// The l2stream package stays agnostic about what a derived view
// contains: builders live with their consumers (internal/sim), which
// hand in a DerivedSpec per view family. This package owns the
// sidecar file protocol only: the frame, the layout of the words and
// the column, the checksum, staging and atomic rename.
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
// The payload is Words little-endian uint64 words, then one column
// that holds one little-endian value of Width bytes (4 or 8) per
// access of the stream (Stream.Accesses). A family with Width 0 is its
// words alone.
type DerivedSpec struct {
	Key   string
	Words int
	Width int
}

// payloadSize returns the payload length for a stream of n accesses.
func (spec *DerivedSpec) payloadSize(n uint64) int64 {
	return 8*int64(spec.Words) + int64(spec.Width)*int64(n)
}

// sidecarChunk is the size of the buffer a sidecar reader or writer
// moves its column values through: neither holds a whole column.
const sidecarChunk = 32 << 10

// sidecarCol is the column's place in a sidecar file: where it starts
// and ends, the next offset to read or write, and the running CRC-32C
// of the bytes up to it.
type sidecarCol struct {
	start, off, end int64
	crc             uint32
}

// column lays spec's column out after a frame of frame bytes and the
// words, for a stream of n accesses.
func (spec *DerivedSpec) column(frame int64, n uint64) sidecarCol {
	start := frame + 8*int64(spec.Words)
	return sidecarCol{start: start, off: start, end: start + int64(spec.Width)*int64(n)}
}

// fits reports an error when n more bytes run past the column's end.
func (c *sidecarCol) fits(n int) error {
	if c.off+int64(n) > c.end {
		return fmt.Errorf("l2stream: %d bytes run past the end of a %d-byte sidecar column", n, c.end-c.start)
	}
	return nil
}

// advance moves the column past b, the bytes at its offset, folding
// them into its checksum.
func (c *sidecarCol) advance(b []byte) {
	c.off += int64(len(b))
	c.crc = crc32.Update(c.crc, castagnoli, b)
}

// payloadCRC combines the words' CRC-32C, words, with the column's
// into the payload's.
func (c *sidecarCol) payloadCRC(words uint32) uint32 {
	return crc32Combine(words, c.crc, c.end-c.start)
}

// errSidecarCorrupt marks a sidecar whose frame, length or checksum is
// wrong.
var errSidecarCorrupt = errors.New("l2stream: corrupt derived sidecar")

// SidecarReader reads one derived view's sidecar in blocks: the words
// at open, then the column's values in order. Every byte it reads is
// folded into the payload's checksum, which the read that reaches the
// end of the column checks; a read that fails or a checksum that
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
	col   sidecarCol
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
	r.col = spec.column(int64(len(frame)), n)
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

// U64s reads the column's next len(dst) values, 8 bytes each, and
// reports whether they, and the checksum when this read ends the
// payload, are good.
func (r *SidecarReader) U64s(dst []uint64) bool {
	for len(dst) > 0 {
		k := min(len(dst), len(r.buf)/8)
		b := r.buf[:8*k]
		if !r.read(b) {
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
func (r *SidecarReader) U32s(dst []uint32) bool {
	for len(dst) > 0 {
		k := min(len(dst), len(r.buf)/4)
		b := r.buf[:4*k]
		if !r.read(b) {
			return false
		}
		for i := range dst[:k] {
			dst[i] = binary.LittleEndian.Uint32(b[4*i:])
		}
		dst = dst[k:]
	}
	return r.finish()
}

// read fills b from the column's next bytes and folds them into its
// checksum.
func (r *SidecarReader) read(b []byte) bool {
	if r.f == nil {
		return false
	}
	err := r.col.fits(len(b))
	if err == nil {
		err = r.readAt(b, r.col.off)
	}
	if err != nil {
		r.fail(err)
		return false
	}
	r.col.advance(b)
	return true
}

// finish checks the payload once the column has been read through.
func (r *SidecarReader) finish() bool {
	if r.done {
		return true
	}
	if r.f == nil {
		return false
	}
	return !r.complete() || r.check()
}

// complete reports whether the column has been read through.
func (r *SidecarReader) complete() bool { return r.col.off == r.col.end }

// check compares the payload's checksum with the frame's: a match
// counts a sidecar hit, a mismatch corruption, and the file is closed
// either way.
func (r *SidecarReader) check() bool {
	if r.col.payloadCRC(r.wcrc) != r.want {
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

// SidecarWriter writes one derived view's sidecar in blocks: the
// column's values go to a staging file at their offset as they are
// produced, and Commit writes the frame and the words and renames
// the file into place. A writer whose file fails stops writing, and
// its Commit counts a disk error and leaves no file. A SidecarWriter
// is not safe for concurrent use.
type SidecarWriter struct {
	st   *store
	key  Key
	spec *DerivedSpec
	f    *os.File
	col  sidecarCol
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
		col: spec.column(int64(derivedFrameSize(spec.Key)), s.accesses),
		buf: make([]byte, sidecarChunk),
	}
}

// U64s appends src to the column, 8 bytes a value.
func (w *SidecarWriter) U64s(src []uint64) {
	for len(src) > 0 && w.err == nil {
		k := min(len(src), len(w.buf)/8)
		for i, x := range src[:k] {
			binary.LittleEndian.PutUint64(w.buf[8*i:], x)
		}
		w.write(w.buf[:8*k])
		src = src[k:]
	}
}

// U32s appends src to the column, 4 bytes a value.
func (w *SidecarWriter) U32s(src []uint32) {
	for len(src) > 0 && w.err == nil {
		k := min(len(src), len(w.buf)/4)
		for i, x := range src[:k] {
			binary.LittleEndian.PutUint32(w.buf[4*i:], x)
		}
		w.write(w.buf[:4*k])
		src = src[k:]
	}
}

// write puts b at the column's next offset and folds it into the
// column's checksum.
func (w *SidecarWriter) write(b []byte) {
	if w.err = w.col.fits(len(b)); w.err == nil {
		if _, w.err = w.f.WriteAt(b, w.col.off); w.err == nil {
			w.col.advance(b)
		}
	}
}

// Commit completes the sidecar with its words, once the column is
// written through: the frame, with the payload's checksum combined
// from the words' and the column's, and the words go before the
// column, and the file is renamed into place and added to the
// directory's running size. It counts a sidecar write, or a disk error
// when any step failed, in which case it leaves no file.
func (w *SidecarWriter) Commit(words []uint64) {
	if w.f == nil {
		return
	}
	if w.err == nil && len(words) != w.spec.Words {
		w.err = fmt.Errorf("l2stream: sidecar %s takes %d words, not %d", w.spec.Key, w.spec.Words, len(words))
	}
	if c := w.col; w.err == nil && c.off != c.end {
		w.err = fmt.Errorf("l2stream: sidecar %s column holds %d of %d bytes", w.spec.Key, c.off-c.start, c.end-c.start)
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
	size := 8*int64(len(words)) + w.col.end - w.col.start
	tail := frame[head-16 : head]
	binary.LittleEndian.PutUint64(tail, uint64(size))
	binary.LittleEndian.PutUint64(tail[8:], uint64(w.col.payloadCRC(crc32.Checksum(frame[head:], castagnoli))))
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
