package seq

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// forceSectionRead, when set (tests), makes openShardData skip mmap so
// the pread fallback is exercised on platforms that do support mmap.
var forceSectionRead bool

// liveShardData counts payload accessors opened and not yet closed.
// It exists so tests can pin the partial-open contract: when shard N
// of a manifest fails verification, the accessors of shards 0..N-1
// must all be released before OpenShardIndex returns — a leaked mmap
// would pin the shard file and its address space for the life of the
// process.
var liveShardData atomic.Int64

// shardData abstracts payload access: a read-only memory mapping where
// the platform provides one, a section reader otherwise. view returns n
// payload bytes at offset off; the slice is valid until the index is
// closed and must never be written to (it may alias a shared mapping).
type shardData interface {
	view(off, n int64) ([]byte, error)
	close() error
}

// mmapShardData serves views directly out of a whole-file mapping —
// the zero-copy, zero-parse scan path. The OS pages payload in and out
// on demand, so resident memory tracks the scan window, not the shard.
type mmapShardData struct {
	m          []byte
	payloadOff int64
	unmap      func() error
}

func (d *mmapShardData) view(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > int64(len(d.m))-d.payloadOff {
		return nil, fmt.Errorf("seq: shard payload view [%d,%d) out of range: %w", off, off+n, ErrShardCorrupt)
	}
	s := d.m[d.payloadOff+off : d.payloadOff+off+n]
	return s[:n:n], nil
}

func (d *mmapShardData) close() error {
	liveShardData.Add(-1)
	return d.unmap()
}

// fileShardData is the section-read fallback: each view is an exact
// pread of the requested record, so memory stays bounded by one record
// even without mmap.
type fileShardData struct {
	f            *os.File
	payloadOff   int64
	payloadBytes int64
}

func (d *fileShardData) view(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n > d.payloadBytes {
		return nil, fmt.Errorf("seq: shard payload view [%d,%d) out of range: %w", off, off+n, ErrShardCorrupt)
	}
	buf := make([]byte, n)
	if _, err := d.f.ReadAt(buf, d.payloadOff+off); err != nil {
		return nil, err
	}
	return buf, nil
}

func (d *fileShardData) close() error {
	liveShardData.Add(-1)
	return d.f.Close()
}

// openShardData wires a shard file to its payload accessor, preferring
// a read-only mapping and falling back to section reads. On success it
// owns f.
func openShardData(f *os.File, size, payloadOff, payloadBytes int64) (shardData, error) {
	if !forceSectionRead {
		if m, unmap, err := mapShardFile(f, size); err == nil {
			// The mapping outlives the descriptor.
			_ = f.Close()
			liveShardData.Add(1)
			return &mmapShardData{m: m, payloadOff: payloadOff, unmap: unmap}, nil
		}
	}
	liveShardData.Add(1)
	return &fileShardData{f: f, payloadOff: payloadOff, payloadBytes: payloadBytes}, nil
}

// shardBlob is one opened shard: decoded header plus payload access.
type shardBlob struct {
	path string
	h    *shardHeader
	data shardData
}

// ShardIndex is an opened shard set. Every checksum (manifest body,
// each shard header, each shard payload) is verified before Open
// returns, so record iteration never re-validates — it serves packed
// bytes straight out of the mapping. A ShardIndex is safe for
// concurrent readers; Close invalidates all outstanding sources.
type ShardIndex struct {
	path       string
	man        Manifest
	shards     []*shardBlob
	recordBase []int64 // recordBase[i] = global index of shard i's first record
}

// OpenShardIndex opens the shard set described by the manifest at
// path (as written by BuildIndex / swindex), verifying the integrity
// of every shard up front. Corruption anywhere fails with an error
// wrapping ErrShardCorrupt.
func OpenShardIndex(path string) (*ShardIndex, error) {
	man, err := readManifestFile(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(path)
	x := &ShardIndex{path: path, man: *man, recordBase: make([]int64, len(man.Shards))}
	var base int64
	var maxLen int64
	for i, info := range man.Shards {
		x.recordBase[i] = base
		blob, err := openShardBlob(filepath.Join(dir, info.Name), info)
		if err != nil {
			_ = x.Close()
			return nil, err
		}
		x.shards = append(x.shards, blob)
		base += int64(info.Records)
		if blob.h.maxRecordLen > maxLen {
			maxLen = blob.h.maxRecordLen
		}
	}
	if maxLen != man.MaxRecordLen {
		_ = x.Close()
		return nil, fmt.Errorf("seq: %s: shards hold records up to %d bases, manifest claims %d: %w", path, maxLen, man.MaxRecordLen, ErrShardCorrupt)
	}
	return x, nil
}

// ReadManifest reads and validates the manifest file alone — shape and
// checksums of the index description, without opening or verifying the
// shard files it names. Use OpenShardIndex for full verification.
func ReadManifest(path string) (*Manifest, error) {
	return readManifestFile(path)
}

// readManifestFile loads and decodes a manifest with a pre-checked size
// ceiling (never a whole-input read of unbounded data).
func readManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > maxManifestBytes {
		return nil, fmt.Errorf("seq: %s: manifest is %d bytes, limit %d: %w", path, st.Size(), int64(maxManifestBytes), ErrShardCorrupt)
	}
	buf := make([]byte, int(st.Size()))
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	m, err := decodeManifest(buf)
	if err != nil {
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return m, nil
}

// openShardBlob opens one shard file, verifies its framing, header
// checksum (against both the file and the manifest entry), payload
// checksum, and exact size, and wires up payload access.
func openShardBlob(path string, info ShardInfo) (*shardBlob, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) (*shardBlob, error) {
		_ = f.Close()
		args = append([]any{path}, append(args, ErrShardCorrupt)...)
		return nil, fmt.Errorf("seq: %s: "+format+": %w", args...)
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	var pre [len(shardMagic) + 4]byte
	if _, err := io.ReadFull(f, pre[:]); err != nil {
		return fail("reading preamble: %v", err)
	}
	if string(pre[:len(shardMagic)]) != shardMagic {
		return fail("bad magic %q", pre[:len(shardMagic)])
	}
	hdrLen := int64(binary.LittleEndian.Uint32(pre[len(shardMagic):]))
	if hdrLen > maxShardHeaderBytes {
		return fail("header claims %d bytes, limit %d", hdrLen, int64(maxShardHeaderBytes))
	}
	payloadOff := int64(len(pre)) + hdrLen + 4
	if st.Size() < payloadOff {
		return fail("file is %d bytes, smaller than its %d-byte framing", st.Size(), payloadOff)
	}
	block := make([]byte, hdrLen+4)
	if _, err := io.ReadFull(f, block); err != nil {
		return fail("reading header: %v", err)
	}
	stored := binary.LittleEndian.Uint32(block[hdrLen:])
	block = block[:hdrLen]
	if got := crc32.Checksum(block, shardCRC); got != stored {
		return fail("header checksum %08x does not match stored %08x", got, stored)
	}
	if stored != info.HeaderCRC {
		return fail("header checksum %08x does not match manifest entry %08x", stored, info.HeaderCRC)
	}
	h, err := decodeShardHeader(block)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	switch {
	case len(h.ids) != info.Records:
		return fail("header holds %d records, manifest entry claims %d", len(h.ids), info.Records)
	case h.bases != info.Bases:
		return fail("header holds %d bases, manifest entry claims %d", h.bases, info.Bases)
	case h.payloadBytes != info.PayloadBytes:
		return fail("header claims %d payload bytes, manifest entry claims %d", h.payloadBytes, info.PayloadBytes)
	case st.Size() != payloadOff+h.payloadBytes:
		return fail("file is %d bytes, framing+payload span %d", st.Size(), payloadOff+h.payloadBytes)
	}
	data, err := openShardData(f, st.Size(), payloadOff, h.payloadBytes)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if err := verifyPayloadCRC(data, h); err != nil {
		_ = data.close()
		return nil, fmt.Errorf("seq: %s: %w", path, err)
	}
	return &shardBlob{path: path, h: h, data: data}, nil
}

// verifyPayloadCRC checks the payload checksum in bounded chunks — over
// a mapping this touches each page once without copying; over the
// section reader it holds one chunk at a time.
func verifyPayloadCRC(data shardData, h *shardHeader) error {
	const chunk = 1 << 20
	var crc uint32
	for off := int64(0); off < h.payloadBytes; off += chunk {
		n := int64(chunk)
		if off+n > h.payloadBytes {
			n = h.payloadBytes - off
		}
		b, err := data.view(off, n)
		if err != nil {
			return err
		}
		crc = crc32.Update(crc, shardCRC, b)
	}
	if crc != h.payloadCRC {
		return fmt.Errorf("payload checksum %08x does not match header %08x: %w", crc, h.payloadCRC, ErrShardCorrupt)
	}
	return nil
}

// Close releases every mapping and file handle. Outstanding sources
// must not be used afterwards.
func (x *ShardIndex) Close() error {
	var first error
	for _, b := range x.shards {
		if err := b.data.close(); err != nil && first == nil {
			first = err
		}
	}
	x.shards = nil
	return first
}

// Path returns the manifest path the index was opened from.
func (x *ShardIndex) Path() string { return x.path }

// Manifest returns a copy of the decoded manifest.
func (x *ShardIndex) Manifest() Manifest {
	m := x.man
	m.Shards = append([]ShardInfo(nil), x.man.Shards...)
	return m
}

// Shards returns the number of shards.
func (x *ShardIndex) Shards() int { return len(x.man.Shards) }

// Records returns the total record count.
func (x *ShardIndex) Records() int64 { return x.man.Records }

// Bases returns the total base count.
func (x *ShardIndex) Bases() int64 { return x.man.Bases }

// PayloadBytes returns the total packed payload size in bytes.
func (x *ShardIndex) PayloadBytes() int64 { return x.man.PayloadBytes }

// MaxRecordLen returns the longest record in the index, in bases.
func (x *ShardIndex) MaxRecordLen() int { return int(x.man.MaxRecordLen) }

// ShardInfo returns shard i's manifest entry.
func (x *ShardIndex) ShardInfo(i int) ShardInfo { return x.man.Shards[i] }

// ShardRecordBase returns the global record index of shard i's first
// record — the offset a sharded scan adds to a local record index so
// hits rank identically to a flat scan.
func (x *ShardIndex) ShardRecordBase(i int) int64 { return x.recordBase[i] }

// Source returns a fresh RecordSource over every record of the index
// in global order. Each call returns an independent iterator; any
// number may run concurrently over the same read-only payload.
func (x *ShardIndex) Source() RecordSource { return &indexSource{x: x} }

// ShardSource returns a fresh RecordSource over shard i only.
func (x *ShardIndex) ShardSource(i int) RecordSource {
	return &shardSource{b: x.shards[i]}
}

// shardSource iterates one shard's records, unpacking each straight
// from the payload view — no parsing, no validation beyond the tail-bit
// canonicality check.
type shardSource struct {
	b *shardBlob
	i int
}

func (s *shardSource) Next() (Sequence, error) {
	h := s.b.h
	if s.i >= len(h.ids) {
		return Sequence{}, io.EOF
	}
	i := s.i
	s.i++
	words, err := s.b.data.view(h.offs[i], packedBytes(h.lens[i]))
	if err != nil {
		return Sequence{}, err
	}
	p, err := PackedView(words, int(h.lens[i]))
	if err != nil {
		return Sequence{}, fmt.Errorf("seq: %s: record %d: %w", s.b.path, i, err)
	}
	return Sequence{ID: h.ids[i], Data: p.Unpack()}, nil
}

// indexSource chains the shard sources in manifest order.
type indexSource struct {
	x     *ShardIndex
	shard int
	cur   *shardSource
}

func (s *indexSource) Next() (Sequence, error) {
	for {
		if s.cur == nil {
			if s.shard >= len(s.x.shards) {
				return Sequence{}, io.EOF
			}
			s.cur = &shardSource{b: s.x.shards[s.shard]}
			s.shard++
		}
		rec, err := s.cur.Next()
		if err == io.EOF {
			s.cur = nil
			continue
		}
		return rec, err
	}
}
