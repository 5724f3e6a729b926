package storage

import (
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
	got, _, err := readRecord(bytes.NewReader(encodeRecord(nil, big)))
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("read back %d value bytes, err %v", len(got.Value), err)
	}
	promise := []byte{0x00, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1}
	if n := allocated(func() { _, _, err = readRecord(bytes.NewReader(promise)) }); err == nil || n > 16<<10 {
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
		if n := allocated(func() { r, size, err = readRecord(bytes.NewReader(data)) }); n > 8*uint64(len(data))+16<<10 {
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
		fr, _, ferr := readRecord(bytes.NewReader(framed))
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
		var recs []Record
		var err error
		if n := allocated(func() { lsn, recs, err = loadSnapshot(fs, path) }); n > 32*uint64(len(data))+16<<10 {
			t.Fatalf("loading %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		again, werr := writeSnapshot(fs, "/rt", lsn, recs)
		if werr != nil {
			t.Fatal(werr)
		}
		if written := fs[again]; !bytes.Equal(written, data) {
			t.Fatalf("accepted snapshot %x, written back as %x", data, written)
		}
		lsn2, recs2, err := loadSnapshot(fs, again)
		if err != nil || lsn2 != lsn || !reflect.DeepEqual(recs2, recs) {
			t.Fatalf("round trip: lsn %d→%d, %d→%d records, err %v", lsn, lsn2, len(recs), len(recs2), err)
		}
	})
}

// memFS is as much of an in-memory FS as writeSnapshot and
// loadSnapshot use (chaos.DiskFS imports this package, so an in-package
// test cannot import it back).
type memFS map[string][]byte

func (m memFS) MkdirAll(string) error           { return nil }
func (m memFS) List(string) ([]string, error)   { return nil, nil }
func (m memFS) OpenAppend(string) (File, error) { return nil, errors.New("memFS: append") }
func (m memFS) Create(name string) (File, error) {
	m[name] = nil
	return &memFile{fs: m, name: name}, nil
}
func (m memFS) Remove(name string) error { delete(m, name); return nil }
func (m memFS) SyncDir(string) error     { return nil }
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

// memFile reads a snapshot of its file's bytes or appends to them.
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
func (f *memFile) Close() error         { return nil }
func (f *memFile) Sync() error          { return nil }
func (f *memFile) Truncate(int64) error { return errors.New("memFS: truncate") }
