package l2stream

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// CodecVersion identifies the on-disk and in-memory event encoding.
// It is folded into every persistent-store key, so bumping it after
// an encoding change invalidates all previously persisted captures at
// once — stale files are simply never addressed again. Version 3
// replaced the varint event encoding with tag-length-prefixed payloads
// (see stream.go), dropped the pre-decoded 17-byte-per-event sidecar
// that followed the event buffer in version 2, and added the buffer
// checksum. Version 4 extended the store file's checksum over the
// header's run scalars, which version 3 left unchecked.
const CodecVersion = 4

// Store file format (".l2s"): a fixed 128-byte header, then the
// stream's encoded events verbatim. The header holds the magic, the
// codec version, the key fingerprint, a flag byte, a CRC-32C, and the
// run scalars. Saving writes the capture's encoder chunks after the
// header and drops them; loading checks the header and streams the
// events through the checksum. Either way the stream keeps the open
// file and nothing else of its events: decode passes pread them from
// it, so a file that is evicted or replaced later cannot change a
// stream already holding it, and each pass checks the checksum again
// over the bytes it read.
//
// Header layout: [0,4) magic, [4,8) codec version, [8,40) fingerprint,
// 40 flags, [44,48) CRC-32C of bytes [48,end) — the scalars and the
// events — and [48,128) ten uint64 scalars, the last being the
// events' length. The flag byte is always written as
// zero. Older binaries set it to mark a header-only file whose events
// lived in a ".chtr" record file beside it; load rejects any non-zero
// flag, so such a file reads as absent and is recaptured.
const (
	storeMagic      = "CHL2"
	storeHeaderSize = 128
	storeFlagOffset = 40
	storeCRCOffset  = 44
	storeScalarsAt  = 48
)

// store is the cache's persistent tier: a content-addressed directory
// of captured streams, keyed by the capture key fingerprint (workload
// name + policy-invariant config + codec version). Writers stage into
// a temp file and atomically rename, so concurrent processes sharing
// one directory either see a complete capture or none — the worst
// race outcome is two processes capturing the same stream once each.
type store struct {
	dir string

	// mu serializes the size-budget GC; limit <= 0 means unbounded.
	// total is the directory's size as of the last scan plus what this
	// store wrote since; a write rescans the directory only once total
	// passes limit. scans counts those rescans, for tests.
	mu    sync.Mutex
	limit int64
	total int64
	scans int
}

// newStore opens (creating if needed) a persistent capture directory.
func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("l2stream: capture dir: %w", err)
	}
	return &store{dir: dir}, nil
}

// setLimit installs the directory's byte budget and immediately
// rebalances, so a long-lived directory inherited from earlier runs is
// trimmed at open rather than on the first write. That scan also
// starts the running total later writes add to.
func (st *store) setLimit(maxBytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.limit = maxBytes
	if st.limit > 0 {
		st.gc()
	}
}

// wrote adds the n bytes of a file this store just wrote to the
// running total and rescans the directory only when the total passes
// the budget. A rewritten file counts twice until that rescan, and a
// file another process wrote counts only from this store's next scan:
// the first rescans early, the second lets a shared directory run
// over its budget by what the others wrote since this store's last
// scan.
func (st *store) wrote(n int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.limit <= 0 {
		return
	}
	st.total += n
	if st.total > st.limit {
		st.gc()
	} else {
		obsStoreBytes.Set(st.total)
	}
}

// fingerprint derives the content address of a capture key: every
// field of the key plus the codec version, hashed. Two runs agree on
// the file name exactly when they would produce byte-identical
// captures.
func fingerprint(key Key) [sha256.Size]byte {
	c := key.Config
	id := fmt.Sprintf(
		"chirp-l2stream-v%d|%q|l1i:%q,%d,%d,%d|l1d:%q,%d,%d,%d|shift:%d|instr:%d|warm:%g",
		CodecVersion, key.Workload,
		c.L1I.Name, c.L1I.Entries, c.L1I.Ways, c.L1I.PageShift,
		c.L1D.Name, c.L1D.Entries, c.L1D.Ways, c.L1D.PageShift,
		c.PageShift, c.Instructions, c.WarmupFraction,
	)
	// The spec hash is appended only when present so legacy (spec-less)
	// fingerprints — and the persistent captures stored under them —
	// stay valid.
	if key.Spec != "" {
		id += fmt.Sprintf("|spec:%q", key.Spec)
	}
	return sha256.Sum256([]byte(id))
}

// streamPath returns the .l2s file path for key.
func (st *store) streamPath(key Key) string {
	h := fingerprint(key)
	return filepath.Join(st.dir, fmt.Sprintf("chirp-%x.l2s", h[:12]))
}

// Derived sidecar format (".l2d"): a frame of magic, the
// derived-format and stream-codec versions, the key's length and the
// full derived key string, the payload length and the payload's
// CRC-32C (as a uint64), then the payload. The payload's meaning
// belongs to the DerivedSpec that wrote it; the store only guarantees
// that the bytes a spec's Decode reads are the bytes its Encode wrote,
// under the same key, or that the load fails.
const (
	derivedMagic = "CHDV"
	// DerivedFormatVersion identifies the sidecar container framing.
	// Specs version their payloads separately, inside their keys.
	// Version 2 replaced the payload's FNV-64a checksum with CRC-32C:
	// warm sweeps checksum every sidecar they load, and the
	// hardware-assisted CRC took that from ~15% of a warm fig7
	// iteration's profile to noise.
	DerivedFormatVersion = 2
)

// castagnoli is the checksum table for stream buffers and derived
// sidecar payloads (CRC-32C, the polynomial with hardware support on
// amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// derivedPath returns the sidecar file path for a derived key: the
// stream's content-addressed base plus a hash of the derived key.
func (st *store) derivedPath(key Key, dkey string) string {
	h := fnv.New64a()
	h.Write([]byte(dkey))
	return fmt.Sprintf("%s-d%016x.l2d", strings.TrimSuffix(st.streamPath(key), ".l2s"), h.Sum64())
}

// attachDerived wires the stream's derived-view persistence hooks to
// this store under key. Called once, while the stream is still private
// to the loading/saving goroutine.
func (st *store) attachDerived(s *Stream, key Key) {
	s.dvLoad = func(spec *DerivedSpec) (any, bool) { return st.loadDerived(key, s, spec) }
	s.dvSave = func(spec *DerivedSpec, view any) {
		if err := st.saveDerived(key, spec, view); err != nil {
			obsCacheDiskErrors.Inc()
		} else {
			obsDerivedDiskWrites.Inc()
		}
	}
}

// derivedFrameSize is the length of a sidecar's frame: everything
// before the payload. The payload length and its CRC-32C are the
// frame's last 16 bytes.
func derivedFrameSize(dkey string) int { return 16 + len(dkey) + 16 }

// loadDerived decodes spec's view for s from its sidecar under key, or
// returns ok=false when the store holds nothing usable. A missing file
// reads as absent silently; an I/O error counts as a disk error; a
// file whose frame, length or checksum is wrong, or whose payload the
// spec's Decode rejects, counts as corruption. Either way the caller
// rebuilds the view and its save atomically replaces the file. The
// payload streams from the file into Decode through a buffered reader
// that ends at the frame's length and checksums what passes, so no
// buffer ever holds the whole file.
func (st *store) loadDerived(key Key, s *Stream, spec *DerivedSpec) (view any, ok bool) {
	f, err := os.Open(st.derivedPath(key, spec.Key))
	if err != nil {
		if !os.IsNotExist(err) {
			obsCacheDiskErrors.Inc()
		}
		return nil, false
	}
	defer f.Close()
	in := &diskReader{r: f}
	br := bufio.NewReader(in)
	view, ok = readDerived(br, s, spec)
	switch {
	case ok:
		obsDerivedDiskHits.Inc()
	case in.err != nil:
		obsCacheDiskErrors.Inc()
	default:
		obsDerivedCorrupt.Inc()
	}
	return view, ok
}

// readDerived reads one sidecar from br: the frame, checked against
// the container versions and spec's key, then a payload that spec's
// Decode must consume exactly, with nothing after it and a matching
// checksum.
func readDerived(br *bufio.Reader, s *Stream, spec *DerivedSpec) (any, bool) {
	frame := make([]byte, derivedFrameSize(spec.Key))
	if _, err := io.ReadFull(br, frame[:16]); err != nil {
		return nil, false
	}
	if string(frame[:4]) != derivedMagic ||
		binary.LittleEndian.Uint32(frame[4:8]) != DerivedFormatVersion ||
		binary.LittleEndian.Uint32(frame[8:12]) != CodecVersion ||
		binary.LittleEndian.Uint32(frame[12:16]) != uint32(len(spec.Key)) {
		return nil, false
	}
	if _, err := io.ReadFull(br, frame[16:]); err != nil || string(frame[16:16+len(spec.Key)]) != spec.Key {
		return nil, false
	}
	tail := frame[len(frame)-16:]
	n := int64(binary.LittleEndian.Uint64(tail))
	pr := &payloadReader{r: br, left: n}
	v, ok := spec.Decode(s, pr, n)
	if !ok || pr.left != 0 || uint64(pr.crc) != binary.LittleEndian.Uint64(tail[8:]) {
		return nil, false
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, false // bytes trail the payload
	}
	return v, true
}

// diskReader passes a file's reads on and keeps the first error other
// than io.EOF, so a failed load can tell a disk error from a short or
// corrupt file.
type diskReader struct {
	r   io.Reader
	err error
}

func (d *diskReader) Read(p []byte) (int, error) {
	n, err := d.r.Read(p)
	if err != nil && err != io.EOF && d.err == nil {
		d.err = err
	}
	return n, err
}

// payloadReader is what a spec's Decode reads a payload from: it ends
// where the frame says the payload does, and it folds every byte it
// passes on into a running CRC-32C.
type payloadReader struct {
	r    io.Reader
	left int64
	crc  uint32
}

func (p *payloadReader) Read(b []byte) (int, error) {
	if p.left <= 0 {
		return 0, io.EOF
	}
	if int64(len(b)) > p.left {
		b = b[:p.left]
	}
	n, err := p.r.Read(b)
	p.left -= int64(n)
	p.crc = crc32.Update(p.crc, castagnoli, b[:n])
	return n, err
}

// payloadWriter is what a spec's Encode writes a payload to: it
// passes every byte on, counting it and folding it into a running
// CRC-32C for the frame.
type payloadWriter struct {
	w   io.Writer
	n   int64
	crc uint32
}

func (p *payloadWriter) Write(b []byte) (int, error) {
	n, err := p.w.Write(b)
	p.n += int64(n)
	p.crc = crc32.Update(p.crc, castagnoli, b[:n])
	return n, err
}

// saveDerived persists view under (key, spec.Key), staged and
// atomically renamed like every other store write, then adds the file
// to the directory's running size. The frame goes first with its
// payload length and checksum zeroed; spec's Encode streams the
// payload through a buffered writer that counts and checksums it, and
// the two fields are patched in place before the file is closed and
// renamed. No buffer
// holds the whole payload, and a failed Encode leaves no file behind.
func (st *store) saveDerived(key Key, spec *DerivedSpec, view any) error {
	f, err := os.CreateTemp(st.dir, "chirp-*.l2d.tmp")
	if err != nil {
		return fmt.Errorf("l2stream: staging derived sidecar: %w", err)
	}
	tmp := f.Name()
	frame := make([]byte, derivedFrameSize(spec.Key))
	copy(frame, derivedMagic)
	binary.LittleEndian.PutUint32(frame[4:8], DerivedFormatVersion)
	binary.LittleEndian.PutUint32(frame[8:12], CodecVersion)
	binary.LittleEndian.PutUint32(frame[12:16], uint32(len(spec.Key)))
	copy(frame[16:], spec.Key)
	bw := bufio.NewWriter(f)
	pw := &payloadWriter{w: bw}
	_, err = bw.Write(frame)
	if err == nil {
		err = spec.Encode(pw, view)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		tail := frame[len(frame)-16:]
		binary.LittleEndian.PutUint64(tail, uint64(pw.n))
		binary.LittleEndian.PutUint64(tail[8:], uint64(pw.crc))
		_, err = f.WriteAt(tail, int64(len(frame)-16))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, st.derivedPath(key, spec.Key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("l2stream: persisting derived sidecar: %w", err)
	}
	st.wrote(int64(len(frame)) + pw.n)
	return nil
}

// gc holds the persistent directory to its byte budget: capture groups
// — a stream's .l2s file plus its .l2d derived sidecars, which stand or
// fall together — are evicted least-recently-used first (by the
// group's newest mtime; loads touch the .l2s, so "used" means read or
// written) until the directory fits. It lists and stats the whole
// directory, so it runs only from setLimit and from a write that takes
// the running total over the budget, and it resets the total to what
// the scan found. Concurrent processes sharing a directory may each
// run gc; the worst race outcome is a double eviction of the same
// group. A load racing an eviction reads as absent and recaptures,
// and a stream that already holds its file keeps reading it. st.mu
// must be held.
func (st *store) gc() {
	type group struct {
		paths []string
		bytes int64
		mtime time.Time
	}
	st.scans++
	ents, err := os.ReadDir(st.dir)
	if err != nil {
		obsCacheDiskErrors.Inc()
		return
	}
	groups := map[string]*group{}
	total := int64(0)
	for _, ent := range ents {
		name := ent.Name()
		// Group id = the content-address hex in "chirp-<hex>…". Temp
		// files and foreign files are left alone. ".chtr" record files
		// that older binaries stored beside a header-only .l2s still
		// group with it, so they are reclaimed with their group.
		if !strings.HasPrefix(name, "chirp-") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		ext := filepath.Ext(name)
		if ext != ".l2s" && ext != ".chtr" && ext != ".l2d" {
			continue
		}
		id := strings.TrimPrefix(name, "chirp-")
		if i := strings.IndexAny(id, "-."); i >= 0 {
			id = id[:i]
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		g := groups[id]
		if g == nil {
			g = &group{}
			groups[id] = g
		}
		g.paths = append(g.paths, filepath.Join(st.dir, name))
		g.bytes += info.Size()
		if m := info.ModTime(); m.After(g.mtime) {
			g.mtime = m
		}
		total += info.Size()
	}
	st.total = total
	obsStoreBytes.Set(total)
	if total <= st.limit {
		return
	}
	order := make([]*group, 0, len(groups))
	//chirp:allow determinism groups are sorted by mtime below before eviction order matters
	for _, g := range groups {
		order = append(order, g)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].mtime.Before(order[j].mtime) })
	for _, g := range order {
		if total <= st.limit {
			break
		}
		for _, p := range g.paths {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				obsCacheDiskErrors.Inc()
			}
		}
		total -= g.bytes
		obsStoreEvictions.Inc()
	}
	st.total = total
	obsStoreBytes.Set(total)
}

// load returns the persisted stream for key, or (nil, nil) when the
// store holds nothing usable for it — a missing, truncated, or
// mismatched file all read as "absent", so the caller recaptures and
// save atomically replaces whatever was there. The stream keeps the
// file open; its events are not read again until a decode pass.
func (st *store) load(key Key) (*Stream, error) {
	path := st.streamPath(key)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("l2stream: reading persisted capture: %w", err)
	}
	s, err := readStream(f, key)
	if s == nil {
		f.Close()
		return nil, err
	}
	s.file = f
	st.attachDerived(s, key)
	// Touch the stream file so the GC's LRU order counts reads as
	// uses, not just the original capture time. Best-effort, and only
	// worth a syscall when a byte budget means the GC can actually run.
	st.mu.Lock()
	limited := st.limit > 0
	st.mu.Unlock()
	if limited {
		now := time.Now()
		_ = os.Chtimes(path, now, now)
	}
	return s, nil
}

// readStream reads f, a store file opened at its start, and returns
// the stream it holds for key, its events left in the file; nil, with
// a nil error, means the file is not a valid capture of key. The
// events stream through the checksum in decode-window reads, so no
// buffer holds them all.
func readStream(f *os.File, key Key) (*Stream, error) {
	hdr := make([]byte, storeHeaderSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, nil
		}
		return nil, fmt.Errorf("l2stream: reading persisted capture: %w", err)
	}
	if string(hdr[:4]) != storeMagic || binary.LittleEndian.Uint32(hdr[4:8]) != CodecVersion {
		return nil, nil
	}
	want := fingerprint(key)
	if string(hdr[8:8+sha256.Size]) != string(want[:]) {
		return nil, nil
	}
	if hdr[storeFlagOffset] != 0 {
		return nil, nil // a header-only file from an older binary
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(hdr[storeScalarsAt+8*i:]) }
	s := &Stream{
		cfg:          key.Config,
		records:      u(0),
		instructions: u(1),
		events:       u(2),
		accesses:     u(3),
		warmupAt:     u(4),
		warmInstrAt:  u(5),
		l1iMisses:    u(6),
		l1dMisses:    u(7),
		warmed:       u(8) != 0,
		scalarsCRC:   crc32.Checksum(hdr[storeScalarsAt:], castagnoli),
		fileCRC:      binary.LittleEndian.Uint32(hdr[storeCRCOffset:]),
	}
	// The checksum catches damage the framing cannot: a flipped bit in
	// a run scalar would feed a wrong instruction count into MPKI, and
	// one among the events would decode into wrong events; either
	// would replay silently wrong results.
	crc, n := s.scalarsCRC, int64(0)
	buf := make([]byte, min(u(9), decodeWindowSize-1)+1)
	for {
		m, err := f.Read(buf)
		crc = crc32.Update(crc, castagnoli, buf[:m])
		n += int64(m)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("l2stream: reading persisted capture: %w", err)
		}
	}
	if uint64(n) != u(9) || crc != s.fileCRC {
		return nil, nil
	}
	s.size = n
	return s, nil
}

// save persists a freshly captured stream under key: the header and
// the encoder chunks go to a temp file that is renamed into place.
// The stream then drops its chunks and keeps the open file instead.
// On failure the stream keeps its chunks and stays usable.
func (st *store) save(key Key, s *Stream) error {
	h := fingerprint(key)
	hdr := make([]byte, storeHeaderSize)
	copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], CodecVersion)
	copy(hdr[8:], h[:])
	for i, v := range [10]uint64{
		s.records, s.instructions, s.events, s.accesses,
		s.warmupAt, s.warmInstrAt, s.l1iMisses, s.l1dMisses,
		b2u(s.warmed), uint64(s.size),
	} {
		binary.LittleEndian.PutUint64(hdr[storeScalarsAt+8*i:], v)
	}
	scalarsCRC := crc32.Checksum(hdr[storeScalarsAt:], castagnoli)
	crc := scalarsCRC
	for _, c := range s.chunks {
		crc = crc32.Update(crc, castagnoli, c)
	}
	binary.LittleEndian.PutUint32(hdr[storeCRCOffset:], crc)

	f, err := os.CreateTemp(st.dir, "chirp-*.l2s.tmp")
	if err != nil {
		return fmt.Errorf("l2stream: staging persisted capture: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(hdr)
	for _, c := range s.chunks {
		if err == nil {
			_, err = f.Write(c)
		}
	}
	if err == nil {
		err = os.Rename(tmp, st.streamPath(key))
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("l2stream: persisting capture: %w", err)
	}
	s.chunks, s.file = nil, f
	s.scalarsCRC, s.fileCRC = scalarsCRC, crc
	st.attachDerived(s, key)
	st.wrote(storeHeaderSize + s.size)
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
