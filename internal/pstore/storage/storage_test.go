package storage_test

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ace/internal/chaos"
	"ace/internal/pstore/storage"
	"ace/internal/telemetry"
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

// TestAppendAfterCloseIsAnswered: once the engine is closed or
// crashed, every append is answered ErrClosed. None may sit queued
// behind a commit loop that has exited, where its done never fires and
// AppendBatch waits forever.
func TestAppendAfterCloseIsAnswered(t *testing.T) {
	for _, tc := range []struct {
		name string
		stop func(*storage.Engine)
	}{
		{"Close", func(e *storage.Engine) { _ = e.Close() }},
		{"Crash", (*storage.Engine).Crash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, _, _ := mustOpen(t, chaos.NewDiskFS(), storage.Options{})
			appendN(t, eng, 0, 1)
			tc.stop(eng)
			const n = 100
			answers := make(chan error, n+1)
			for i := 0; i < n; i++ {
				eng.AppendAsync(rec(i), func(err error) { answers <- err })
			}
			go func() { answers <- eng.AppendBatch([]storage.Record{rec(n), rec(n + 1)}) }()
			timeout := time.After(2 * time.Second)
			for i := 0; i <= n; i++ {
				select {
				case err := <-answers:
					if !errors.Is(err, storage.ErrClosed) {
						t.Fatalf("append after %s answered %v, want ErrClosed", tc.name, err)
					}
				case <-timeout:
					t.Fatalf("%d of %d appends after %s never answered", n+1-i, n+1, tc.name)
				}
			}
		})
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

// TestCompactionWritesNoMoreThanTheLog: a snapshot rewrites the whole
// state, so a compaction that fired at a fixed log size would, on a
// state larger than that size, write more than the log it truncates.
// Over L bytes of log appended to S bytes of state the snapshots must
// write at most L + S bytes, and a reopened engine keeps waiting for a
// log as large as the snapshot it recovered.
func TestCompactionWritesNoMoreThanTheLog(t *testing.T) {
	fs := chaos.NewDiskFS()
	opts := storage.Options{SegmentBytes: 4 << 10} // snapshot threshold 8 KiB
	eng, _, _ := mustOpen(t, fs, opts)
	const keys = 64 // about 64 KiB of state
	state := make(map[string]storage.Record, keys)
	collect := func() []storage.Record {
		out := make([]storage.Record, 0, len(state))
		for _, r := range state {
			out = append(out, r)
		}
		return out
	}
	// stateBytes ends as the size of a snapshot of the whole state: the
	// state is complete after the first keys appends.
	var logBytes, snapBytes, stateBytes int64
	snapshots := 0
	for i := 0; i < 8*keys; i++ {
		r := bigRec(i % keys)
		r.Version = uint64(i + 1)
		if err := eng.Append(r); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		state[r.Path] = r
		if !eng.ShouldSnapshot() {
			continue
		}
		logBytes += eng.LogBytes()
		if err := eng.Snapshot(collect); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		size, err := fs.Size(fmt.Sprintf("%s/snap-%020d.snap", dir, eng.SnapshotLSN()))
		if err != nil {
			t.Fatalf("Size: %v", err)
		}
		stateBytes = int64(size)
		snapBytes += stateBytes
		snapshots++
	}
	logBytes += eng.LogBytes()
	if snapshots < 3 {
		t.Fatalf("%d snapshots over %d log bytes, want several", snapshots, logBytes)
	}
	if limit := logBytes + stateBytes; snapBytes > limit {
		t.Fatalf("%d snapshots wrote %d bytes over %d bytes of log and %d of state, want at most %d",
			snapshots, snapBytes, logBytes, stateBytes, limit)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	eng2, _, _ := mustOpen(t, fs, opts)
	defer eng2.Close()
	for i := 0; eng2.LogBytes() < 16<<10; i++ {
		if eng2.ShouldSnapshot() {
			t.Fatalf("reopened engine wants a snapshot after %d log bytes, under its recovered snapshot's size", eng2.LogBytes())
		}
		if err := eng2.Append(bigRec(i % keys)); err != nil {
			t.Fatalf("Append: %v", err)
		}
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

func TestFsyncFailureSealsLog(t *testing.T) {
	fs := chaos.NewDiskFS()
	appendErrs := telemetry.NewRegistry().Counter("pstore.wal.append_errors")
	opts := storage.Options{Metrics: storage.Metrics{AppendErrors: appendErrs}}
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
	if appendErrs.Value() < 2 {
		t.Fatalf("append_errors = %d, want both refusals counted", appendErrs.Value())
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

// tornAfterFS hands out files of which only the first ok writes, over
// all of them, succeed: every later write puts down half its bytes and
// one more, and fails, the way a disk that dies mid-commit would.
type tornAfterFS struct {
	storage.FS
	ok *atomic.Int64
}

func (f tornAfterFS) Create(name string) (storage.File, error) {
	file, err := f.FS.Create(name)
	return tornAfterFile{file, f.ok}, err
}

func (f tornAfterFS) OpenAppend(name string) (storage.File, error) {
	file, err := f.FS.OpenAppend(name)
	return tornAfterFile{file, f.ok}, err
}

type tornAfterFile struct {
	storage.File
	ok *atomic.Int64
}

func (f tornAfterFile) Write(p []byte) (int, error) {
	if f.ok.Add(-1) >= 0 {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:len(p)/2+1])
	return n, errors.New("simulated EIO")
}

func recsOf(n int) []storage.Record {
	recs := make([]storage.Record, n)
	for i := range recs {
		recs[i] = rec(i)
	}
	return recs
}

// TestBulkAppendRotatesBetweenCommits: a bulk append larger than a
// segment is written BatchMax records per commit, and the log rotates
// between commits, so no segment outgrows SegmentBytes by more than one
// commit.
func TestBulkAppendRotatesBetweenCommits(t *testing.T) {
	fs := chaos.NewDiskFS()
	opts := storage.Options{SegmentBytes: 1 << 10, SnapshotBytes: 1 << 30, BatchMax: 8}
	eng, _, _ := mustOpen(t, fs, opts)
	recs := recsOf(300) // 35 bytes each as framed: ten segments' worth
	if err := eng.AppendBatch(recs); err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := fs.List(dir)
	segments := 0
	for _, name := range names {
		size, err := fs.Size(dir + "/" + name)
		if err != nil {
			t.Fatalf("Size: %v", err)
		}
		if most := int(opts.SegmentBytes) + opts.BatchMax*35; size > most {
			t.Errorf("segment %s holds %d bytes, more than %d", name, size, most)
		}
		segments++
	}
	if segments < 8 {
		t.Fatalf("%d bytes of records made %d segments, want them rotated", 300*35, segments)
	}
	eng2, got, _ := mustOpen(t, fs, opts)
	defer eng2.Close()
	wantRecords(t, got, upTo(len(recs))...)
}

// TestBulkAppendFaultSealsLog: a write that fails partway through a
// bulk append fails the append and seals the log, and the log reopens
// to a gap-free prefix of the batch made of whole records: every commit
// before the fault, and what of the torn one was whole on disk.
func TestBulkAppendFaultSealsLog(t *testing.T) {
	disk := chaos.NewDiskFS()
	var ok atomic.Int64
	ok.Store(4) // four commits land, the fifth is torn
	fs := tornAfterFS{FS: disk, ok: &ok}
	eng, _, _ := mustOpen(t, fs, storage.Options{BatchMax: 16})
	recs := recsOf(200)
	if err := eng.AppendBatch(recs); err == nil {
		t.Fatal("AppendBatch succeeded over a failed write")
	}
	if eng.Err() == nil {
		t.Fatal("a failed bulk append left the log unsealed")
	}
	if err := eng.Append(rec(500)); err == nil {
		t.Fatal("sealed log accepted an append")
	}
	eng.Crash()
	eng2, got, info := mustOpen(t, disk, storage.Options{})
	defer eng2.Close()
	if info.TornTails != 1 || info.CorruptRecords != 0 {
		t.Fatalf("recovery info = %+v, want the torn commit truncated", info)
	}
	if len(got) < 4*16 || len(got) >= 5*16 {
		t.Fatalf("recovered %d records, want the four commits that landed and part of the fifth", len(got))
	}
	for i, r := range got {
		if w := recs[i]; r.Path != w.Path || string(r.Value) != string(w.Value) || r.Version != w.Version {
			t.Fatalf("record %d recovered as %+v, want %+v", i, r, w)
		}
	}
}

// TestSingleAppendJoinsNextCommit: a single append queued behind a bulk
// append is acked by the next commit, not after the whole bulk, and a
// close answers what is left of the bulk ErrClosed.
func TestSingleAppendJoinsNextCommit(t *testing.T) {
	disk := chaos.NewDiskFS()
	fs := slowSyncFS{FS: disk, delay: 2 * time.Millisecond}
	eng, _, _ := mustOpen(t, fs, storage.Options{BatchMax: 4})
	bulk := make(chan error, 1)
	go func() { bulk <- eng.AppendBatch(recsOf(400)) }() // 100 commits
	for disk.Syncs() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	// The commit in progress when the append is queued, then the next.
	acked := make(chan int64, 1)
	eng.AppendAsync(rec(1000), func(err error) {
		if err != nil {
			t.Errorf("Append: %v", err)
		}
		acked <- disk.Syncs()
	})
	queued := disk.Syncs()
	if commits := <-acked - queued; commits > 2 {
		t.Errorf("a single append waited out %d commits behind a bulk append, want at most 2", commits)
	}
	select {
	case err := <-bulk:
		t.Fatalf("the bulk append finished (%v) before the single append behind it", err)
	default:
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-bulk; !errors.Is(err, storage.ErrClosed) {
		t.Fatalf("bulk append cut off by Close returned %v, want ErrClosed", err)
	}
}

// coldBatch is the store's cold path at the benchmark's scale: 16 384
// records of 256 bytes each as the log frames them, stamped like the
// benchmark's preload.
func coldBatch() []storage.Record {
	recs := make([]storage.Record, 16384)
	for i := range recs {
		recs[i] = storage.Record{Path: fmt.Sprintf("/k/%05d", i), Value: make([]byte, 215), Version: 1, HLC: 1}
	}
	return recs
}

// noFlushFS is a filesystem whose flushes return at once, as the
// benchmark's store workloads run the real one.
type noFlushFS struct{ storage.FS }

func (f noFlushFS) Create(name string) (storage.File, error) {
	file, err := f.FS.Create(name)
	return noFlushFile{file}, err
}

func (f noFlushFS) OpenAppend(name string) (storage.File, error) {
	file, err := f.FS.OpenAppend(name)
	return noFlushFile{file}, err
}

func (noFlushFS) SyncDir(string) error { return nil }

type noFlushFile struct{ storage.File }

func (noFlushFile) Sync() error { return nil }

var noFlush = noFlushFS{storage.OS}

// BenchmarkAppendBatch writes the cold batch into an empty log, as the
// benchmark's preload does into each store node's.
func BenchmarkAppendBatch(b *testing.B) {
	recs := coldBatch()
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		logDir := fmt.Sprintf("%s/%d", root, i)
		eng, _, _, err := storage.Open(logDir, storage.Options{FS: noFlush})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := eng.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := errors.Join(eng.Close(), os.RemoveAll(logDir)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkOpen recovers the cold batch's log, as a store node does
// when it starts over the benchmark's preload.
func BenchmarkOpen(b *testing.B) {
	logDir := b.TempDir()
	writeColdLog(b, logDir)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, recs, _, err := storage.Open(logDir, storage.Options{FS: noFlush})
		if err != nil || len(recs) != 16384 {
			b.Fatalf("recovered %d records: %v", len(recs), err)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// writeColdLog writes the cold batch into a log in logDir.
func writeColdLog(tb testing.TB, logDir string) {
	tb.Helper()
	eng, _, _, err := storage.Open(logDir, storage.Options{FS: noFlush})
	if err != nil {
		tb.Fatal(err)
	}
	if err := errors.Join(eng.AppendBatch(coldBatch()), eng.Close()); err != nil {
		tb.Fatal(err)
	}
}
