package l2stream

import (
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
// run scalars. A capture into the store writes its events to a
// staging file as the encoder fills each chunk, folding them into the
// checksum as they go, and writes the header last: the scalars are
// known only then, and the checksum, which covers them before the
// events, is combined from the two parts (crc32Combine). Loading
// checks the header and streams the events through the checksum.
// Either way the stream keeps the open file and nothing else of its
// events: decode passes pread them from it, so a file that is evicted
// or replaced later cannot change a stream already holding it, and
// each pass checks the checksum again over the bytes it read.
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
// CRC-32C (as a uint64), then the payload: the words and columns its
// DerivedSpec lays out (derived.go). The store only guarantees that
// the bytes a reader returns are the bytes a writer wrote, under the
// same key, or that the read fails.
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

// derivedPath returns the sidecar file path for a derived key: the
// stream's content-addressed base plus a hash of the derived key.
func (st *store) derivedPath(key Key, dkey string) string {
	h := fnv.New64a()
	h.Write([]byte(dkey))
	return fmt.Sprintf("%s-d%016x.l2d", strings.TrimSuffix(st.streamPath(key), ".l2s"), h.Sum64())
}

// attachDerived points the stream's derived sidecars at this store
// under key. Called once, while the stream is still private to the
// loading or saving goroutine.
func (st *store) attachDerived(s *Stream, key Key) { s.store, s.key = st, key }

// derivedFrameSize is the length of a sidecar's frame: everything
// before the payload. The payload length and its CRC-32C are the
// frame's last 16 bytes.
func derivedFrameSize(dkey string) int { return 16 + len(dkey) + 16 }

// staleStaging is how long a staging file may go unmodified before
// the GC takes it for the leftover of a writer that was killed between
// creating and renaming it, and removes it. A live writer touches its
// file at least once per encoder chunk or view block.
const staleStaging = time.Hour

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
// and a stream that already holds its file keeps reading it. Staging
// files count towards the total but are never evicted: a live writer
// renames its file into place, and one untouched for staleStaging is
// a killed writer's, which gc removes (staging). st.mu must be held.
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
	now := time.Now()
	for _, ent := range ents {
		name := ent.Name()
		// Group id = the content-address hex in "chirp-<hex>…". Temp
		// files and foreign files are left alone. ".chtr" record files
		// that older binaries stored beside a header-only .l2s still
		// group with it, so they are reclaimed with their group.
		if !strings.HasPrefix(name, "chirp-") {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			total += st.staging(ent, now)
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

// staging handles one staging file in a gc scan: it removes a file
// left unmodified for staleStaging and returns 0, and returns the size
// of any other.
func (st *store) staging(ent os.DirEntry, now time.Time) int64 {
	info, err := ent.Info()
	if err != nil {
		return 0
	}
	if now.Sub(info.ModTime()) < staleStaging {
		return info.Size()
	}
	if err := os.Remove(filepath.Join(st.dir, ent.Name())); err != nil && !os.IsNotExist(err) {
		obsCacheDiskErrors.Inc()
	}
	return 0
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

// stagedStream is a stream file being written: a staging file that
// receives the events from offset storeHeaderSize on, with their
// running length and CRC-32C, and the first write error. With a store
// the file is renamed into it on commit; without one (st nil) the file
// was unlinked when it was created.
type stagedStream struct {
	st  *store
	f   *os.File
	n   int64
	crc uint32
	err error
}

// stage opens a staging file for a stream st will hold, or, with a nil
// st, an unnamed one in os.TempDir: it is unlinked at once, so nothing
// is left behind however the process ends. Every error it or the
// stagedStream returns matches ErrAbandoned.
func stage(st *store) (*stagedStream, error) {
	dir := ""
	if st != nil {
		dir = st.dir
	}
	f, err := os.CreateTemp(dir, "chirp-*.l2s.tmp")
	if err != nil {
		return nil, fmt.Errorf("%w: staging file: %w", ErrAbandoned, err)
	}
	w := &stagedStream{st: st, f: f}
	if st == nil {
		err = os.Remove(f.Name())
	}
	if err == nil {
		_, err = f.Seek(storeHeaderSize, io.SeekStart)
	}
	if err != nil {
		w.discard()
		return nil, fmt.Errorf("%w: staging file: %w", ErrAbandoned, err)
	}
	return w, nil
}

// write appends encoded events to the staging file. After an error it
// does nothing; the error stays in w.err.
func (w *stagedStream) write(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.f.Write(b); err != nil {
		w.err = fmt.Errorf("%w: writing staging file: %w", ErrAbandoned, err)
		return
	}
	w.n += int64(len(b))
	w.crc = crc32.Update(w.crc, castagnoli, b)
}

// commit completes the staged file for key with s, whose events it
// holds: it writes the header, renames the file into the store when
// there is one, and makes the open file the stream's. On failure it
// discards the file and leaves the stream without one.
func (w *stagedStream) commit(key Key, s *Stream) error {
	h := fingerprint(key)
	hdr := make([]byte, storeHeaderSize)
	copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], CodecVersion)
	copy(hdr[8:], h[:])
	for i, v := range [10]uint64{
		s.records, s.instructions, s.events, s.accesses,
		s.warmupAt, s.warmInstrAt, s.l1iMisses, s.l1dMisses,
		b2u(s.warmed), uint64(w.n),
	} {
		binary.LittleEndian.PutUint64(hdr[storeScalarsAt+8*i:], v)
	}
	scalarsCRC := crc32.Checksum(hdr[storeScalarsAt:], castagnoli)
	crc := crc32Combine(scalarsCRC, w.crc, w.n)
	binary.LittleEndian.PutUint32(hdr[storeCRCOffset:], crc)

	err := w.err
	if err == nil && w.n != s.size {
		err = fmt.Errorf("staged %d event bytes of %d", w.n, s.size)
	}
	if err == nil {
		_, err = w.f.WriteAt(hdr, 0)
	}
	if err == nil && w.st != nil {
		err = os.Rename(w.f.Name(), w.st.streamPath(key))
	}
	if err != nil {
		w.discard()
		return fmt.Errorf("%w: completing staging file: %w", ErrAbandoned, err)
	}
	s.file = w.f
	s.scalarsCRC, s.fileCRC = scalarsCRC, crc
	w.f = nil
	if w.st != nil {
		w.st.attachDerived(s, key)
		w.st.wrote(storeHeaderSize + w.n)
	}
	return nil
}

// discard closes the staging file, and removes it if it still has a
// name, unless commit has handed it to a stream.
func (w *stagedStream) discard() {
	if w.f == nil {
		return
	}
	w.f.Close()
	if w.st != nil {
		os.Remove(w.f.Name())
	}
	w.f = nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
