//go:build !race

// The race runtime allocates on its own account, so this budget holds
// only in a plain build.

package storage_test

import (
	"runtime"
	"testing"

	"ace/internal/pstore/storage"
)

// Recovering a record costs its path and its value, and its place in
// the slice Open returns: two objects per record, beside a few for each
// file Open reads and each chunk it fills, and at most 1.6 times the
// 256 bytes the log holds of the record. One slice regrown as the
// records arrive would cost about 2.1 times.
func TestOpenAllocationBudget(t *testing.T) {
	logDir := t.TempDir()
	writeColdLog(t, logDir)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	eng, recs, _, err := storage.Open(logDir, storage.Options{FS: noFlush})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	objects := after.Mallocs - before.Mallocs
	n := float64(len(recs))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("Open of %d records: %.3f objects, %.0f bytes per record", len(recs), float64(objects)/n, bytes)
	if most := 2*uint64(len(recs)) + 128; objects > most {
		t.Errorf("Open of %d records made %d allocations, want at most %d", len(recs), objects, most)
	}
	if bytes > 1.6*256 {
		t.Errorf("Open allocated %.0f bytes per 256-byte record, want at most %.0f", bytes, 1.6*256)
	}
}
