package storage_test

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/pstore/storage"
)

const dir = "/store"

// readBlock is the block recovery reads a file in (storage's
// readBufSize), for the tests that put a tear or damage on either side
// of a block boundary.
const readBlock = 8 << 10

func rec(i int) storage.Record {
	return storage.Record{
		Path:    fmt.Sprintf("/k/%03d", i),
		Value:   []byte(fmt.Sprintf("v%03d", i)),
		Version: uint64(i + 1),
	}
}

func mustOpen(t *testing.T, fs storage.FS, opts storage.Options) (*storage.Engine, []storage.Record, storage.RecoveryInfo) {
	t.Helper()
	opts.FS = fs
	eng, recs, info, err := storage.Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return eng, recs, info
}

// bigRec is rec(i) with a 1 000-byte value: 1 031 bytes framed, so the
// eighth of them crosses the first block recovery reads a log in.
func bigRec(i int) storage.Record {
	r := rec(i)
	r.Value = append(r.Value, strings.Repeat("x", 1000-len(r.Value))...)
	return r
}

func appendN(t *testing.T, eng *storage.Engine, from, n int) {
	t.Helper()
	appendOf(t, eng, rec, from, n)
}

func appendOf(t *testing.T, eng *storage.Engine, mk func(int) storage.Record, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if err := eng.Append(mk(i)); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

// upTo returns 0, 1, …, n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func wantRecords(t *testing.T, got []storage.Record, want ...int) {
	t.Helper()
	wantRecordsOf(t, rec, got, want...)
}

func wantRecordsOf(t *testing.T, mk func(int) storage.Record, got []storage.Record, want ...int) {
	t.Helper()
	byPath := make(map[string]storage.Record, len(got))
	for _, r := range got {
		byPath[r.Path] = r
	}
	for _, i := range want {
		w := mk(i)
		g, ok := byPath[w.Path]
		if !ok {
			t.Fatalf("recovered state missing %s", w.Path)
		}
		if string(g.Value) != string(w.Value) || g.Version != w.Version || g.Deleted != w.Deleted {
			t.Fatalf("recovered %s = %+v, want %+v", w.Path, g, w)
		}
	}
	if len(byPath) != len(want) {
		t.Fatalf("recovered %d distinct records, want %d", len(byPath), len(want))
	}
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, recs, info := mustOpen(t, fs, storage.Options{})
	if len(recs) != 0 || info.Replayed != 0 {
		t.Fatalf("fresh open recovered %d records", len(recs))
	}
	appendN(t, eng, 0, 10)
	// A record larger than the block recovery reads a log in.
	huge := storage.Record{Path: "/k/huge", Value: []byte(strings.Repeat("h", 20<<10)), Version: 7}
	if err := eng.Append(huge); err != nil {
		t.Fatalf("20 KiB append: %v", err)
	}
	if err := eng.Append(storage.Record{Path: rec(3).Path, Version: 100, Deleted: true}); err != nil {
		t.Fatalf("tombstone append: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, recs2, info2 := mustOpen(t, fs, storage.Options{})
	defer eng2.Close()
	if info2.Replayed != 12 || info2.TornTails != 0 || info2.CorruptRecords != 0 {
		t.Fatalf("recovery info = %+v, want 12 clean replays", info2)
	}
	if got := recs2[10]; got.Path != huge.Path || string(got.Value) != string(huge.Value) || got.Version != huge.Version {
		t.Fatalf("replayed %s with %d value bytes at version %d, want the 20 KiB record", got.Path, len(got.Value), got.Version)
	}
	// Replay preserves log order: the tombstone must come after the put
	// it supersedes.
	last := recs2[len(recs2)-1]
	if !last.Deleted || last.Version != 100 {
		t.Fatalf("last replayed record = %+v, want the tombstone", last)
	}
}

func TestRecoveryAcrossSegmentRotation(t *testing.T) {
	fs := chaos.NewDiskFS()
	// Tiny segments force rotation every record or two.
	eng, _, _ := mustOpen(t, fs, storage.Options{SegmentBytes: 64, SnapshotBytes: 1 << 30})
	appendN(t, eng, 0, 20)
	if eng.Segments() < 3 {
		t.Fatalf("expected multiple segments, got %d", eng.Segments())
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng2, recs, info := mustOpen(t, fs, storage.Options{SegmentBytes: 64, SnapshotBytes: 1 << 30})
	defer eng2.Close()
	if info.Replayed != 20 {
		t.Fatalf("replayed %d records across segments, want 20", info.Replayed)
	}
	wantRecords(t, recs, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19)
}

// slowSyncFS delays every file fsync so concurrent appends pile up
// behind the commit loop — making group-commit batching deterministic
// instead of a scheduling accident.
type slowSyncFS struct {
	storage.FS
	delay time.Duration
}

func (s slowSyncFS) Create(name string) (storage.File, error) {
	f, err := s.FS.Create(name)
	return slowSyncFile{f, s.delay}, err
}

func (s slowSyncFS) OpenAppend(name string) (storage.File, error) {
	f, err := s.FS.OpenAppend(name)
	return slowSyncFile{f, s.delay}, err
}

type slowSyncFile struct {
	storage.File
	delay time.Duration
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	disk := chaos.NewDiskFS()
	fs := slowSyncFS{FS: disk, delay: 2 * time.Millisecond}
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	const writers, perWriter = 16, 25
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := eng.Append(rec(w*perWriter + i)); err != nil {
					failed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d appends failed", failed.Load())
	}
	total := int64(writers * perWriter)
	if syncs := disk.Syncs(); syncs >= total/2 {
		t.Fatalf("group commit did not amortize: %d fsyncs for %d appends", syncs, total)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng2, recs, _ := mustOpen(t, disk, storage.Options{})
	defer eng2.Close()
	if len(recs) != int(total) {
		t.Fatalf("recovered %d records, want %d", len(recs), total)
	}
}

func TestTornTailTruncatedAndRepaired(t *testing.T) {
	for _, tc := range []struct {
		name        string
		mk          func(int) storage.Record
		n           int
		acrossBlock bool // the final record starts in the first block, the cut lands in the next
	}{
		{"within the first block", rec, 5, false},
		{"across a block refill", bigRec, 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := chaos.NewDiskFS()
			eng, _, _ := mustOpen(t, fs, storage.Options{})
			appendOf(t, eng, tc.mk, 0, tc.n)
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			seg := fmt.Sprintf("%s/wal-%020d.seg", dir, 1)
			size, err := fs.Size(seg)
			if err != nil {
				t.Fatalf("Size: %v", err)
			}
			if start, block := size-size/tc.n, readBlock; tc.acrossBlock && (start >= block || size-3 <= block) {
				t.Fatalf("final record spans bytes %d–%d, want it across byte %d", start, size, block)
			}
			// Cut mid-way through the final record: the crash-during-append
			// artifact.
			if err := fs.TruncateTo(seg, size-3); err != nil {
				t.Fatalf("TruncateTo: %v", err)
			}

			eng2, recs, info := mustOpen(t, fs, storage.Options{})
			if info.TornTails != 1 || info.CorruptRecords != 0 {
				t.Fatalf("recovery info = %+v, want exactly one torn tail and no corruption", info)
			}
			wantRecordsOf(t, tc.mk, recs, upTo(tc.n-1)...)
			// The tail was physically truncated and the log keeps working:
			// append on top, reopen again, everything is clean.
			appendOf(t, eng2, tc.mk, 10, 1)
			if err := eng2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			eng3, recs3, info3 := mustOpen(t, fs, storage.Options{})
			defer eng3.Close()
			if info3.TornTails != 0 {
				t.Fatalf("second recovery found a torn tail again: %+v", info3)
			}
			wantRecordsOf(t, tc.mk, recs3, append(upTo(tc.n-1), 10)...)
		})
	}
}

func TestMidLogCorruptionFailFast(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) storage.Record
		n    int
		at   func(size int) int
	}{
		// Damage an early record — valid history follows it, so this can
		// never be mistaken for a torn tail.
		{"within the first block", rec, 5, func(size int) int { return size / 4 }},
		{"past the first block", bigRec, 20, func(int) int { return readBlock + 3000 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := chaos.NewDiskFS()
			eng, _, _ := mustOpen(t, fs, storage.Options{})
			appendOf(t, eng, tc.mk, 0, tc.n)
			if err := eng.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			seg := fmt.Sprintf("%s/wal-%020d.seg", dir, 1)
			size, err := fs.Size(seg)
			if err != nil {
				t.Fatalf("Size: %v", err)
			}
			at := tc.at(size)
			if err := fs.Corrupt(seg, at); err != nil {
				t.Fatalf("Corrupt: %v", err)
			}
			_, _, _, oerr := storage.Open(dir, storage.Options{FS: fs})
			if oerr == nil {
				t.Fatal("Open accepted mid-log corruption under CorruptFailFast")
			}
			// Refused at the start of the damaged record, not elsewhere.
			recSize := size / tc.n
			if want := fmt.Sprintf("at offset %d:", at/recSize*recSize); !strings.Contains(oerr.Error(), want) {
				t.Fatalf("Open = %v, want the refusal %q", oerr, want)
			}
		})
	}
}

// TestShouldSnapshotDoesNotWaitForSnapshot: every durable write's ack
// asks ShouldSnapshot on the commit goroutine, so a compaction in
// progress must not hold the answer up.
func TestShouldSnapshotDoesNotWaitForSnapshot(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	defer eng.Close()
	appendN(t, eng, 0, 3)
	inCollect, release := make(chan struct{}), make(chan struct{})
	snapped := make(chan error, 1)
	go func() {
		snapped <- eng.Snapshot(func() []storage.Record {
			close(inCollect)
			<-release
			return []storage.Record{rec(0), rec(1), rec(2)}
		})
	}()
	<-inCollect
	answered := make(chan struct{})
	go func() {
		eng.ShouldSnapshot()
		close(answered)
	}()
	select {
	case <-answered:
	case <-time.After(100 * time.Millisecond):
		t.Error("ShouldSnapshot waited for the snapshot's collect")
	}
	close(release)
	<-answered
	if err := <-snapped; err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
}

func TestMidLogCorruptionQuarantine(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	appendN(t, eng, 0, 5)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	seg := fmt.Sprintf("%s/wal-%020d.seg", dir, 1)
	size, err := fs.Size(seg)
	if err != nil {
		t.Fatalf("Size: %v", err)
	}
	if err := fs.Corrupt(seg, size/2); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	eng2, recs, info := mustOpen(t, fs, storage.Options{Corruption: storage.CorruptQuarantine})
	defer eng2.Close()
	if info.CorruptRecords == 0 {
		t.Fatalf("recovery info = %+v, want corruption counted", info)
	}
	if len(info.Quarantined) != 1 || !strings.HasSuffix(info.Quarantined[0], ".quarantine") {
		t.Fatalf("quarantined = %v, want the damaged segment renamed aside", info.Quarantined)
	}
	if len(recs) == 0 || len(recs) >= 5 {
		t.Fatalf("recovered %d records, want the prefix before the damage", len(recs))
	}
	// Quarantine leaves the surviving state un-durable (its log file is
	// gone): the engine must demand an immediate snapshot.
	if !eng2.ShouldSnapshot() {
		t.Fatal("engine does not want a snapshot after quarantining data")
	}
	if err := eng2.Snapshot(func() []storage.Record {
		out := make([]storage.Record, 5)
		for i := range out {
			out[i] = rec(i)
		}
		return out
	}); err != nil {
		t.Fatalf("post-quarantine snapshot: %v", err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng3, recs3, _ := mustOpen(t, fs, storage.Options{Corruption: storage.CorruptQuarantine})
	defer eng3.Close()
	wantRecords(t, recs3, 0, 1, 2, 3, 4)
}

func TestLogGapDetected(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{SegmentBytes: 64, SnapshotBytes: 1 << 30})
	appendN(t, eng, 0, 20)
	if eng.Segments() < 3 {
		t.Fatalf("expected at least 3 segments, got %d", eng.Segments())
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Delete a middle segment: a hole in acknowledged history.
	names, _ := fs.List(dir)
	var segs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	if err := fs.Remove(dir + "/" + segs[1]); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	_, _, _, oerr := storage.Open(dir, storage.Options{FS: fs})
	if oerr == nil || !strings.Contains(oerr.Error(), "log gap") {
		t.Fatalf("Open = %v, want a log-gap error", oerr)
	}
}

func TestSnapshotCompactsAndTruncates(t *testing.T) {
	fs := chaos.NewDiskFS()
	opts := storage.Options{SegmentBytes: 128, SnapshotBytes: 1 << 30}
	eng, _, _ := mustOpen(t, fs, opts)
	appendN(t, eng, 0, 30)
	segsBefore, bytesBefore := eng.Segments(), eng.LogBytes()
	if segsBefore < 3 {
		t.Fatalf("expected a grown log, got %d segments", segsBefore)
	}
	// Compact to 3 live records, as after overwrites/deletes.
	state := []storage.Record{rec(0), rec(1), rec(2)}
	if err := eng.Snapshot(func() []storage.Record { return state }); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if eng.SnapshotLSN() != 30 {
		t.Fatalf("SnapshotLSN = %d, want 30", eng.SnapshotLSN())
	}
	if eng.LogBytes() >= bytesBefore {
		t.Fatalf("snapshot did not truncate: %d bytes before, %d after", bytesBefore, eng.LogBytes())
	}
	// Appends continue past the snapshot; recovery = snapshot + tail.
	appendN(t, eng, 40, 2)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng2, recs, info := mustOpen(t, fs, opts)
	if info.SnapshotLSN != 30 || info.SnapshotRecords != 3 || info.Replayed != 2 {
		t.Fatalf("recovery info = %+v, want snapshot@30 with 3 records + 2 replayed", info)
	}
	wantRecords(t, recs, 0, 1, 2, 40, 41)
	// A second snapshot replaces the first: only one .snap remains.
	if err := eng2.Snapshot(func() []storage.Record { return recs }); err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	names, _ := fs.List(dir)
	snaps := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".snap") {
			snaps++
		}
	}
	if snaps != 1 {
		t.Fatalf("%d snapshot files on disk, want 1", snaps)
	}
	if err := eng2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAbandonedSnapshotTmpSwept(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	appendN(t, eng, 0, 3)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// The artifact of a crash mid-snapshot: a temp file that was never
	// renamed into place. It must be discarded, never trusted.
	f, err := fs.Create(fmt.Sprintf("%s/snap-%020d.snap.tmp", dir, 99))
	if err != nil {
		t.Fatalf("Create tmp: %v", err)
	}
	if _, err := f.Write([]byte("half a snapsho")); err != nil {
		t.Fatalf("Write tmp: %v", err)
	}
	f.Close()

	eng2, recs, info := mustOpen(t, fs, storage.Options{})
	defer eng2.Close()
	if info.TmpRemoved != 1 {
		t.Fatalf("recovery info = %+v, want the tmp swept", info)
	}
	wantRecords(t, recs, 0, 1, 2)
	if names, _ := fs.List(dir); func() bool {
		for _, n := range names {
			if strings.HasSuffix(n, ".tmp") {
				return true
			}
		}
		return false
	}() {
		t.Fatal("tmp file still on disk after recovery")
	}
}

func TestInvalidSnapshotFallsBackToWAL(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	appendN(t, eng, 0, 4)
	if err := eng.Snapshot(func() []storage.Record {
		return []storage.Record{rec(0), rec(1), rec(2), rec(3)}
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	appendN(t, eng, 10, 1)
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	snap := fmt.Sprintf("%s/snap-%020d.snap", dir, 4)
	if err := fs.Corrupt(snap, 20); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	// Fail-fast refuses the damaged snapshot outright.
	if _, _, _, oerr := storage.Open(dir, storage.Options{FS: fs}); oerr == nil {
		t.Fatal("Open accepted a corrupt snapshot under CorruptFailFast")
	}
	// Quarantine sets it aside. The covered WAL segments were truncated
	// at snapshot time, so only the post-snapshot tail survives — and
	// the engine reports exactly that, rather than silently serving a
	// half-decoded snapshot.
	eng2, recs, info := mustOpen(t, fs, storage.Options{Corruption: storage.CorruptQuarantine})
	defer eng2.Close()
	if info.SnapshotsBad != 1 {
		t.Fatalf("recovery info = %+v, want one bad snapshot", info)
	}
	wantRecords(t, recs, 10)
}

type tcounter struct{ n atomic.Int64 }

func (c *tcounter) Inc()        { c.n.Add(1) }
func (c *tcounter) Add(d int64) { c.n.Add(d) }
func (c *tcounter) Load() int64 { return c.n.Load() }

func TestFsyncFailureSealsLog(t *testing.T) {
	fs := chaos.NewDiskFS()
	var appendErrs tcounter
	opts := storage.Options{Metrics: storage.Metrics{AppendErrors: &appendErrs}}
	eng, _, _ := mustOpen(t, fs, opts)
	appendN(t, eng, 0, 3)
	fs.FailSync(fmt.Errorf("simulated EIO"))
	if err := eng.Append(rec(3)); err == nil {
		t.Fatal("Append succeeded while fsync fails: durability lie")
	}
	// Healing the disk does not un-seal the log: a disk that failed
	// once must not resume acking durability without recovery.
	fs.FailSync(nil)
	if err := eng.Append(rec(4)); err == nil {
		t.Fatal("sealed log accepted an append")
	}
	if eng.Err() == nil {
		t.Fatal("Err() is nil on a sealed log")
	}
	if appendErrs.Load() < 2 {
		t.Fatalf("append_errors = %d, want both refusals counted", appendErrs.Load())
	}
	eng.Crash()
	// Recovery sees exactly the acked records; the un-synced batch that
	// failed may be truncated as a torn tail but never replayed as if
	// it had been acknowledged.
	fs.Crash()
	eng2, recs, _ := mustOpen(t, fs, storage.Options{})
	defer eng2.Close()
	wantRecords(t, recs, 0, 1, 2)
}

func TestCrashLosesOnlyUnsyncedWrites(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	appendN(t, eng, 0, 6) // every Append returned: all durable
	eng.Crash()           // no clean close, no final flush
	fs.Crash()            // page cache gone
	if err := eng.Append(rec(99)); err == nil {
		t.Fatal("crashed engine accepted an append")
	}
	eng2, recs, info := mustOpen(t, fs, storage.Options{})
	defer eng2.Close()
	if info.CorruptRecords != 0 {
		t.Fatalf("recovery info = %+v, want no corruption after a plain crash", info)
	}
	wantRecords(t, recs, 0, 1, 2, 3, 4, 5)
}

func TestTornWriteRefusedAndRepaired(t *testing.T) {
	fs := chaos.NewDiskFS()
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	appendN(t, eng, 0, 2)
	fs.TornWrites(true)
	if err := eng.Append(rec(2)); err == nil {
		t.Fatal("Append acked a torn write")
	}
	fs.TornWrites(false)
	eng.Crash()
	// The half-written record is on disk. Recovery must classify it as
	// a torn tail (crash artifact), truncate it, and keep going.
	eng2, recs, info := mustOpen(t, fs, storage.Options{})
	if info.TornTails != 1 {
		t.Fatalf("recovery info = %+v, want the torn write truncated", info)
	}
	wantRecords(t, recs, 0, 1)
	appendN(t, eng2, 5, 1)
	if err := eng2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng3, recs3, _ := mustOpen(t, fs, storage.Options{})
	defer eng3.Close()
	wantRecords(t, recs3, 0, 1, 5)
}

// TestAppendBatchDurableAndAmortized: a batch append lands every
// record durably, shares fsyncs across the batch instead of paying
// one per record, and recovers intact.
func TestAppendBatchDurableAndAmortized(t *testing.T) {
	disk := chaos.NewDiskFS()
	fs := slowSyncFS{FS: disk, delay: time.Millisecond}
	eng, _, _ := mustOpen(t, fs, storage.Options{})
	const n = 100
	recs := make([]storage.Record, n)
	for i := range recs {
		recs[i] = rec(i)
	}
	if err := eng.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if syncs := disk.Syncs(); syncs >= n/2 {
		t.Fatalf("batch append paid %d fsyncs for %d records; not batching", syncs, n)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	eng2, got, info := mustOpen(t, disk, storage.Options{})
	defer eng2.Close()
	if info.Replayed != n || len(got) != n {
		t.Fatalf("recovered %d/%d records (replayed %d)", len(got), n, info.Replayed)
	}
	// An empty batch is a no-op, not a hang.
	if err := eng2.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
}
