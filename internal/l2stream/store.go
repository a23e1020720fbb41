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
// stream's encoded event buffer verbatim. The header holds the
// magic, the codec version, the key fingerprint, a flag byte, a
// CRC-32C, and the run scalars. Loading is one os.ReadFile plus the
// checksum: the tail of that allocation IS the stream's encoded buffer
// (zero-copy), and nothing is decoded until a replay or view build
// walks it.
//
// Header layout: [0,4) magic, [4,8) codec version, [8,40) fingerprint,
// 40 flags, [44,48) CRC-32C of bytes [48,end) — the scalars and the
// event buffer — and [48,128) ten uint64 scalars, the last being the
// buffer length. The flag byte is always written as
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
	mu    sync.Mutex
	limit int64
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
// trimmed at open rather than on the first write.
func (st *store) setLimit(maxBytes int64) {
	st.mu.Lock()
	st.limit = maxBytes
	st.mu.Unlock()
	st.gc()
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

// Derived sidecar format (".l2d"): magic, the derived-format and
// stream-codec versions, the full derived key string, then a
// checksummed payload. The payload's meaning belongs to the
// DerivedSpec that wrote it; the store only guarantees that what load
// returns is byte-identical to what save was given, under the same
// key, or nothing at all.
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
	s.dvLoad = func(dkey string) ([]byte, func()) { return st.loadDerived(key, dkey) }
	s.dvSave = func(dkey string, payload []byte) {
		if err := st.saveDerived(key, dkey, payload); err != nil {
			obsCacheDiskErrors.Inc()
		} else {
			obsDerivedDiskWrites.Inc()
		}
	}
}

// sidecarBufs recycles whole-file read buffers across sidecar loads:
// warm sweeps load a handful of sidecars per stream, and re-zeroing a
// fresh allocation for each was measurable next to the decode itself.
var sidecarBufs sync.Pool

// loadDerived returns the persisted payload for (key, dkey) plus a
// hook releasing the pooled buffer the payload aliases, or (nil, nil)
// when the store holds nothing usable — missing reads as absent
// silently; a present-but-invalid file counts as corruption and also
// reads as absent, so the caller recomputes and atomically replaces
// it.
func (st *store) loadDerived(key Key, dkey string) ([]byte, func()) {
	f, err := os.Open(st.derivedPath(key, dkey))
	if err != nil {
		if !os.IsNotExist(err) {
			obsCacheDiskErrors.Inc()
		}
		return nil, nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		obsCacheDiskErrors.Inc()
		return nil, nil
	}
	size := int(fi.Size())
	var data []byte
	if bp, _ := sidecarBufs.Get().(*[]byte); bp != nil && cap(*bp) >= size {
		data = (*bp)[:size]
	} else {
		data = make([]byte, size)
	}
	release := func() { sidecarBufs.Put(&data) }
	if _, err := io.ReadFull(f, data); err != nil {
		obsCacheDiskErrors.Inc()
		release()
		return nil, nil
	}
	payload, ok := decodeDerivedFile(data, dkey)
	if !ok {
		obsDerivedCorrupt.Inc()
		release()
		return nil, nil
	}
	return payload, release
}

// decodeDerivedFile validates a sidecar's framing against the derived
// key and returns its payload. Split from loadDerived for tests.
func decodeDerivedFile(data []byte, dkey string) ([]byte, bool) {
	if len(data) < 16 || string(data[:4]) != derivedMagic {
		return nil, false
	}
	if binary.LittleEndian.Uint32(data[4:8]) != DerivedFormatVersion ||
		binary.LittleEndian.Uint32(data[8:12]) != CodecVersion {
		return nil, false
	}
	keyLen := int(binary.LittleEndian.Uint32(data[12:16]))
	if len(data) < 16+keyLen+16 {
		return nil, false
	}
	if string(data[16:16+keyLen]) != dkey {
		return nil, false
	}
	body := data[16+keyLen:]
	payloadLen := binary.LittleEndian.Uint64(body[:8])
	sum := binary.LittleEndian.Uint64(body[8:16])
	payload := body[16:]
	if uint64(len(payload)) != payloadLen {
		return nil, false
	}
	if uint64(crc32.Checksum(payload, castagnoli)) != sum {
		return nil, false
	}
	return payload, true
}

// derivedHeader returns the frame that precedes payload in its
// sidecar file: everything up to the payload itself.
func derivedHeader(dkey string, payload []byte) []byte {
	out := make([]byte, 0, 16+len(dkey)+16)
	out = append(out, derivedMagic...)
	out = binary.LittleEndian.AppendUint32(out, DerivedFormatVersion)
	out = binary.LittleEndian.AppendUint32(out, CodecVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(dkey)))
	out = append(out, dkey...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	return binary.LittleEndian.AppendUint64(out, uint64(crc32.Checksum(payload, castagnoli)))
}

// saveDerived persists a derived payload under (key, dkey), staged and
// atomically renamed like every other store write, then rebalances the
// directory budget. Like save, it writes the frame and then the
// payload, so the payload is never copied into a framed buffer.
func (st *store) saveDerived(key Key, dkey string, payload []byte) error {
	f, err := os.CreateTemp(st.dir, "chirp-*.l2d.tmp")
	if err != nil {
		return fmt.Errorf("l2stream: staging derived sidecar: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(derivedHeader(dkey, payload))
	if err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, st.derivedPath(key, dkey))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("l2stream: persisting derived sidecar: %w", err)
	}
	st.gc()
	return nil
}

// gc holds the persistent directory to its byte budget: capture groups
// — a stream's .l2s file plus its .l2d derived sidecars, which stand or
// fall together — are evicted least-recently-used first (by the
// group's newest mtime; loads touch the .l2s, so "used" means read or
// written) until the directory fits. Concurrent processes sharing a
// directory may each run gc; the worst race outcome is a double
// eviction of the same group, and a load racing an eviction reads as
// absent and recaptures.
func (st *store) gc() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.limit <= 0 {
		return
	}
	type group struct {
		paths []string
		bytes int64
		mtime time.Time
	}
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
	obsStoreBytes.Set(total)
}

// load returns the persisted stream for key, or (nil, nil) when the
// store holds nothing usable for it — a missing, truncated, or
// mismatched file all read as "absent", so the caller recaptures and
// save atomically replaces whatever was there.
func (st *store) load(key Key) (*Stream, error) {
	meta := st.streamPath(key)
	data, err := os.ReadFile(meta)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("l2stream: reading persisted capture: %w", err)
	}
	if len(data) < storeHeaderSize || string(data[:4]) != storeMagic {
		return nil, nil
	}
	if binary.LittleEndian.Uint32(data[4:8]) != CodecVersion {
		return nil, nil
	}
	want := fingerprint(key)
	if string(data[8:8+sha256.Size]) != string(want[:]) {
		return nil, nil
	}
	if data[storeFlagOffset] != 0 {
		return nil, nil // a header-only file from an older binary
	}
	// The checksum catches damage the framing cannot: a flipped bit in
	// a run scalar would feed a wrong instruction count into MPKI, and
	// one inside the buffer would decode into wrong events; either
	// would replay silently wrong results.
	if crc32.Checksum(data[storeScalarsAt:], castagnoli) != binary.LittleEndian.Uint32(data[storeCRCOffset:]) {
		return nil, nil
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(data[storeScalarsAt+8*i:]) }
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
	}
	// Zero-copy: the tail of the ReadFile allocation is the encoded
	// event buffer.
	buf := data[storeHeaderSize:]
	if uint64(len(buf)) != u(9) {
		return nil, nil
	}
	s.buf = buf
	st.attachDerived(s, key)
	// Touch the metadata file so the GC's LRU order counts reads as
	// uses, not just the original capture time. Best-effort, and only
	// worth a syscall when a byte budget means the GC can actually run.
	st.mu.Lock()
	limited := st.limit > 0
	st.mu.Unlock()
	if limited {
		now := time.Now()
		_ = os.Chtimes(meta, now, now)
	}
	return s, nil
}

// save persists a freshly captured stream under key: header+buffer
// go to a temp file that is renamed into place.
func (st *store) save(key Key, s *Stream) error {
	h := fingerprint(key)
	hdr := make([]byte, storeHeaderSize)
	copy(hdr, storeMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], CodecVersion)
	copy(hdr[8:], h[:])
	for i, v := range [10]uint64{
		s.records, s.instructions, s.events, s.accesses,
		s.warmupAt, s.warmInstrAt, s.l1iMisses, s.l1dMisses,
		b2u(s.warmed), uint64(len(s.buf)),
	} {
		binary.LittleEndian.PutUint64(hdr[storeScalarsAt+8*i:], v)
	}
	crc := crc32.Update(crc32.Checksum(hdr[storeScalarsAt:], castagnoli), castagnoli, s.buf)
	binary.LittleEndian.PutUint32(hdr[storeCRCOffset:], crc)

	f, err := os.CreateTemp(st.dir, "chirp-*.l2s.tmp")
	if err != nil {
		return fmt.Errorf("l2stream: staging persisted capture: %w", err)
	}
	tmp := f.Name()
	_, err = f.Write(hdr)
	if err == nil {
		_, err = f.Write(s.buf)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, st.streamPath(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("l2stream: persisting capture: %w", err)
	}
	st.attachDerived(s, key)
	st.gc()
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
