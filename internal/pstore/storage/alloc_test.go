//go:build !race

// The race runtime allocates on its own account, so this budget holds
// only in a plain build.

package storage

import "testing"

// discardFS is a memFS whose files drop what is written to them, so
// that a write costs the file nothing.
type discardFS struct{ memFS }

func (f discardFS) Create(name string) (File, error) {
	file, err := f.memFS.Create(name)
	return discardFile{file}, err
}

type discardFile struct{ File }

func (discardFile) Write(p []byte) (int, error) { return len(p), nil }

// A commit allocates nothing of its own: the request travels through
// the queue by value, and the batch and its encoding reuse the commit
// loop's scratch.
func TestWALCommitAllocatesNothing(t *testing.T) {
	e, _, _, err := Open("/wal", Options{FS: discardFS{memFS{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	rec := Record{Path: "/a/b", Value: []byte("value"), Version: 1}
	acked := make(chan error, 1)
	done := func(err error) { acked <- err }
	allocs := testing.AllocsPerRun(1000, func() {
		e.AppendAsync(rec, done)
		if err := <-acked; err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a commit made %.0f allocations, want 0", allocs)
	}
}

// A bulk append is one request: its allocations do not grow with its
// records, which reach the log by reference and are encoded into the
// commit loop's scratch.
func TestAppendBatchAllocatesPerBatch(t *testing.T) {
	e, _, _, err := Open("/wal", Options{FS: discardFS{memFS{}}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	recs := make([]Record, 4096)
	for i := range recs {
		recs[i] = Record{Path: "/a/b", Value: []byte("value"), Version: uint64(i + 1)}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("a bulk append of %d records made %.0f allocations, want at most 4", len(recs), allocs)
	}
}
