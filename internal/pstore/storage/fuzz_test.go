package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
)

// seedRecords are the fixtures of storage_test.go (its rec(i), and the
// stamped record and tombstone of hlc_test.go). They stay small: the
// fuzzer minimizes what it finds in time quadratic in the input's
// length.
func seedRecords() []Record {
	rec := func(i int) Record {
		return Record{Path: fmt.Sprintf("/k/%03d", i), Value: []byte(fmt.Sprintf("v%03d", i)), Version: uint64(i + 1)}
	}
	return []Record{
		rec(0),
		rec(41),
		{Path: "/k/new", Value: []byte("stamped"), Version: 2, HLC: 0xABCD1234},
		{Path: "/k/del", Version: 3, Deleted: true, HLC: 0x10001},
	}
}

// readOne reads one record from data the way recovery reads a file:
// through a buffer of readBufSize.
func readOne(data []byte) (Record, int64, error) {
	return readRecord(bufio.NewReaderSize(bytes.NewReader(data), readBufSize))
}

// allocated returns the bytes fn allocated on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadRecordAllocatesAsBytesArrive: a record larger than the first
// page of its buffer reads back whole, and a header promising 16 MiB in
// front of one byte costs a page, not the promise.
func TestReadRecordAllocatesAsBytesArrive(t *testing.T) {
	big := Record{Path: "/k/big", Value: bytes.Repeat([]byte("v"), 20<<10), Version: 9}
	got, _, err := readOne(encodeRecord(nil, big))
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("read back %d value bytes, err %v", len(got.Value), err)
	}
	promise := []byte{0x00, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}
	if n := allocated(func() { _, _, err = readOne(promise) }); err == nil || n > 16<<10 {
		t.Fatalf("a 16 MiB promise over one byte: err %v, %d bytes allocated", err, n)
	}
}

// FuzzReadRecord: whatever a log holds, readRecord never panics and
// never allocates more than the bytes actually present allow — a
// length prefix is not an allocation size — and a record it accepts
// re-encodes to exactly the bytes it consumed. The input is also tried
// as a bare payload, framed with a valid checksum so it reaches
// decodePayload: readRecord accepts it exactly when decodePayload
// does, and an accepted payload re-encodes to itself.
func FuzzReadRecord(f *testing.F) {
	for _, r := range seedRecords() {
		framed := encodeRecord(nil, r)
		f.Add(framed)
		f.Add(framed[frameHeaderSize:])
		f.Add(framed[:len(framed)-3]) // torn
	}
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})                 // 16 MiB promised, one byte present
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                    // beyond the record bound
	bare := []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}    // version 1, no path, no value
	f.Add(append([]byte{0x04}, bare[1:]...))                             // a flag this version does not know
	f.Add(append(append([]byte{0x02}, bare[1:]...), make([]byte, 8)...)) // a stamp column holding zero
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Record
		var size int64
		var err error
		if n := allocated(func() { r, size, err = readOne(data) }); n > 8*uint64(len(data))+16<<10 {
			t.Fatalf("reading %d bytes allocated %d", len(data), n)
		}
		if err == nil {
			if size > int64(len(data)) {
				t.Fatalf("consumed %d of %d bytes", size, len(data))
			}
			if got := encodeRecord(nil, r); !bytes.Equal(got, data[:size]) {
				t.Fatalf("accepted %x, re-encodes as %x", data[:size], got)
			}
		}

		framed := binary.BigEndian.AppendUint32(nil, uint32(len(data)))
		framed = binary.BigEndian.AppendUint32(framed, crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
		framed = append(framed, data...)
		p, perr := decodePayload(data)
		fr, _, ferr := readOne(framed)
		if (perr == nil) != (ferr == nil) {
			t.Fatalf("decodePayload err %v, readRecord of the same payload framed err %v", perr, ferr)
		}
		if perr != nil {
			return
		}
		if !reflect.DeepEqual(p, fr) {
			t.Fatalf("decodePayload %+v, readRecord %+v", p, fr)
		}
		if got := encodeRecord(nil, p); !bytes.Equal(got, framed) {
			t.Fatalf("accepted payload %x re-encodes as %x", data, got[frameHeaderSize:])
		}
	})
}

// FuzzLoadSnapshot: whatever a snapshot file holds, loadSnapshot never
// panics and allocates in proportion to the bytes present, never to
// the record count its header claims (PR 6 found a load that trusted
// it); and a snapshot it accepts, written back, is the same file and
// loads to the same state.
func FuzzLoadSnapshot(f *testing.F) {
	snapshot := func(lsn uint64, recs []Record) []byte {
		fs := memFS{}
		path, err := writeSnapshot(fs, "/store", lsn, recs)
		if err != nil {
			f.Fatal(err)
		}
		return fs[path]
	}
	full := snapshot(30, seedRecords())
	f.Add(full)
	f.Add(snapshot(0, nil))
	f.Add(full[:len(full)-2])                    // torn last record
	f.Add(append(full[:len(full):len(full)], 0)) // trailing garbage
	countless := append([]byte(nil), full[:24]...)
	binary.BigEndian.PutUint64(countless[16:], 1<<32) // a count nothing backs
	f.Add(countless)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := "/store/" + snapshotName(1)
		fs := memFS{path: data}
		var lsn uint64
		var loaded recordChunks
		var err error
		if n := allocated(func() { lsn, loaded, err = loadSnapshot(fs, path) }); n > 32*uint64(len(data))+16<<10 {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		recs := loaded.flat()
		again, werr := writeSnapshot(fs, "/rt", lsn, recs)
		if werr != nil {
			t.Fatal(werr)
		}
		if written := fs[again]; !bytes.Equal(written, data) {
			t.Fatalf("accepted snapshot %x, written back as %x", data, written)
		}
		lsn2, loaded2, err := loadSnapshot(fs, again)
		recs2 := loaded2.flat()
		if err != nil || lsn2 != lsn || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round trip: lsn %d→%d, %d→%d records, err %v", lsn, lsn2, len(recs), len(recs2), err)
		}
	})
}

// TestSnapshotWritesWholeBuffers: a snapshot reaches its file a full
// 64 KiB buffer per Write, not one Write per record, and reads back as
// written.
func TestSnapshotWritesWholeBuffers(t *testing.T) {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{Path: fmt.Sprintf("/k/%04d", i), Value: bytes.Repeat([]byte{'v'}, 100), Version: uint64(i + 1)}
	}
	fs := writeCounter{memFS: memFS{}}
	path, err := writeSnapshot(&fs, "/store", 7, recs)
	if err != nil {
		t.Fatal(err)
	}
	size := len(fs.memFS[path])
	if most := (size+64<<10-1)/(64<<10) + 1; fs.writes > most {
		t.Fatalf("a %d-byte snapshot of %d records took %d writes, want at most %d", size, len(recs), fs.writes, most)
	}
	lsn, loaded, err := loadSnapshot(fs.memFS, path)
	got := loaded.flat()
	if err != nil || lsn != 7 || !reflect.DeepEqual(got, recs) {
		t.Fatalf("read back lsn %d, %d records, err %v", lsn, len(got), err)
	}
}

// FuzzReplaySegment: whatever the final segment of a log holds, replay
// never panics, allocates in proportion to the bytes present, and keeps
// a prefix of whole records — what it returns re-encodes to the
// segment's first goodBytes. Then the segment was valid to its end; or
// its tail was torn and the file is cut back to goodBytes; or valid
// history follows damage, which CorruptFailFast refuses, leaving the
// file as it was. The segment is lead bytes of valid history (one
// record that long; none under 27 bytes) followed by data, so a small
// input can sit on either side of a block boundary or behind a record
// larger than a block: the fuzzer minimizes what it finds in time
// quadratic in the input's length.
func FuzzReplaySegment(f *testing.F) {
	sized := func(path string, n int) Record {
		return Record{Path: path, Value: bytes.Repeat([]byte{'v'}, n), Version: 1}
	}
	segment := func(recs ...Record) []byte {
		var b []byte
		for _, r := range recs {
			b = encodeRecord(b, r)
		}
		return b
	}
	// Two 100-byte records behind an 8 150-byte lead: the first straddles
	// the block boundary at 8 192.
	const lead = readBufSize - 42
	two := segment(sized("/a", 73), sized("/b", 73))
	flip := func(at int) []byte {
		b := append([]byte(nil), two...)
		b[at] ^= 0xFF
		return b
	}
	f.Add(uint16(0), segment(seedRecords()...))
	f.Add(uint16(lead), two)
	f.Add(uint16(readBufSize+1000), two)                               // behind a record larger than the buffer
	f.Add(uint16(lead), append(two, segment(sized("/c", 73))[:50]...)) // torn inside the second block
	f.Add(uint16(lead), flip(150))                                     // bad CRC on the final record
	f.Add(uint16(lead), flip(50))                                      // bad CRC with a valid record after it
	f.Fuzz(func(t *testing.T, lead uint16, data []byte) {
		var file []byte
		if n := int(lead); n >= 27 {
			file = encodeRecord(nil, Record{Path: "/f", Value: make([]byte, n-27), Version: 1})
		}
		file = append(file, data...)
		path := "/store/" + segmentName(1)
		fs := memFS{path: file}
		var res segmentReplay
		var replayed recordChunks
		var err error
		if n := allocated(func() { res, err = replaySegment(fs, path, 1, true, 0, CorruptFailFast, &replayed) }); n > 32*uint64(len(file))+16<<10 {
			t.Fatalf("replaying %d bytes allocated %d", len(file), n)
		}
		records := replayed.flat()
		if res.goodBytes > int64(len(file)) || uint64(len(records)) != res.total {
			t.Fatalf("%d good bytes of %d, %d records returned of %d", res.goodBytes, len(file), len(records), res.total)
		}
		var kept []byte
		for _, r := range records {
			kept = encodeRecord(kept, r)
		}
		good := file[:res.goodBytes]
		if !bytes.Equal(kept, good) {
			t.Fatalf("kept records re-encode as %x, the first %d bytes are %x", kept, len(good), good)
		}
		switch {
		case err != nil:
			if len(fs[path]) != len(file) || len(good) == len(file) {
				t.Fatalf("refused (%v) a %d-byte segment valid for %d, left %d bytes", err, len(file), len(good), len(fs[path]))
			}
		case len(good) < len(file):
			if res.tornTails != 1 || len(fs[path]) != len(good) {
				t.Fatalf("%d torn tails, file cut to %d bytes, want 1 and %d", res.tornTails, len(fs[path]), len(good))
			}
		case res.tornTails != 0 || len(fs[path]) != len(file):
			t.Fatalf("a valid %d-byte segment: %d torn tails, %d bytes left", len(file), res.tornTails, len(fs[path]))
		}
	})
}

// memFS is as much of an in-memory FS as writeSnapshot, loadSnapshot
// and replaySegment use (chaos.DiskFS imports this package, so an
// in-package test cannot import it back).
type memFS map[string][]byte

func (m memFS) MkdirAll(string) error         { return nil }
func (m memFS) List(string) ([]string, error) { return nil, nil }
func (m memFS) Create(name string) (File, error) {
	m[name] = nil
	return &memFile{fs: m, name: name}, nil
}
func (m memFS) OpenAppend(name string) (File, error) { return &memFile{fs: m, name: name}, nil }
func (m memFS) Remove(name string) error             { delete(m, name); return nil }
func (m memFS) SyncDir(string) error                 { return nil }
func (m memFS) Rename(oldname, newname string) error {
	m[newname] = m[oldname]
	delete(m, oldname)
	return nil
}

func (m memFS) Open(name string) (File, error) {
	b, ok := m[name]
	if !ok {
		return nil, errors.New("memFS: no such file")
	}
	return &memFile{r: bytes.NewReader(b)}, nil
}

// memFile reads a snapshot of its file's bytes, or appends to and
// truncates them.
type memFile struct {
	fs   memFS
	name string
	r    *bytes.Reader
}

func (f *memFile) Read(p []byte) (int, error) { return f.r.Read(p) }
func (f *memFile) Write(p []byte) (int, error) {
	f.fs[f.name] = append(f.fs[f.name], p...)
	return len(p), nil
}
func (f *memFile) Close() error { return nil }
func (f *memFile) Sync() error  { return nil }
func (f *memFile) Truncate(size int64) error {
	if size < 0 || size > int64(len(f.fs[f.name])) {
		return errors.New("memFS: truncate out of range")
	}
	f.fs[f.name] = f.fs[f.name][:size]
	return nil
}

// writeCounter is a memFS that counts the Writes to the files it
// creates.
type writeCounter struct {
	memFS
	writes int
}

func (w *writeCounter) Create(name string) (File, error) {
	f, err := w.memFS.Create(name)
	return countedFile{f, &w.writes}, err
}

type countedFile struct {
	File
	writes *int
}

func (f countedFile) Write(p []byte) (int, error) {
	*f.writes++
	return f.File.Write(p)
}
