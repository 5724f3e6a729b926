package storage

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// CorruptionPolicy decides what recovery does with mid-log corruption
// — damage that is NOT the expected torn tail of a crash.
type CorruptionPolicy int

const (
	// CorruptFailFast refuses to open the store: an operator (or
	// supervisor) must decide, because continuing silently would
	// re-advertise a hole in the acknowledged history. The default.
	CorruptFailFast CorruptionPolicy = iota
	// CorruptQuarantine renames the damaged file to *.quarantine,
	// keeps everything readable before the damage, counts what was
	// lost, and relies on anti-entropy to re-pull the rest from the
	// replica group. The engine then wants an immediate snapshot so
	// the surviving state regains durability.
	CorruptQuarantine
)

// Options configures an Engine. The zero value is usable: real
// filesystem, 1 MiB segments, a 2 MiB snapshot threshold (twice the
// segment size), fail-fast on corruption.
type Options struct {
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// SegmentBytes caps one WAL segment before rotation.
	SegmentBytes int64
	// SnapshotBytes is the total live-log size that makes
	// ShouldSnapshot true, unless the latest snapshot is larger: then
	// the log must reach that size, so that compaction never writes
	// more than the log it truncates. Clamped to at least
	// 2*SegmentBytes so a snapshot always has something to truncate.
	SnapshotBytes int64
	// BatchMax caps how many concurrent appends share one fsync, and
	// how many records of a bulk append (AppendBatch) one fsync takes.
	BatchMax int
	// Corruption selects the mid-log corruption policy.
	Corruption CorruptionPolicy
	// Metrics names the telemetry instruments the engine records into;
	// a nil one records nothing, so the zero value disables them all.
	Metrics Metrics
}

func (o Options) withDefaults() Options {
	if o.FS == nil {
		o.FS = OS
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SnapshotBytes < 2*o.SegmentBytes {
		o.SnapshotBytes = 2 * o.SegmentBytes
	}
	if o.BatchMax <= 0 {
		o.BatchMax = 256
	}
	return o
}

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// SnapshotLSN is the WAL position of the snapshot that seeded
	// recovery (0: none).
	SnapshotLSN uint64
	// SnapshotRecords is how many records the snapshot held.
	SnapshotRecords int
	// Replayed is how many WAL records were replayed on top.
	Replayed int
	// TornTails counts truncated torn final records — the expected
	// artifact of a crash mid-append, repaired silently.
	TornTails int
	// CorruptRecords counts mid-log corruption events (CorruptQuarantine
	// only; CorruptFailFast turns the first one into an Open error).
	CorruptRecords int
	// SnapshotsBad counts snapshot files that failed validation.
	SnapshotsBad int
	// TmpRemoved counts abandoned snapshot temp files swept away.
	TmpRemoved int
	// Quarantined lists files renamed aside under CorruptQuarantine.
	Quarantined []string
}

// Engine is one node's durable storage: a group-commit WAL plus
// compacted snapshots. Open recovers state; Append makes one write
// durable; Snapshot compacts and truncates. Safe for concurrent use.
type Engine struct {
	dir  string
	fs   FS
	opts Options
	w    *wal

	mu      sync.Mutex // serializes Snapshot/Close
	snapLSN uint64
	closed  bool
	// forceSnap stays outside mu so that ShouldSnapshot, which every
	// durable write's ack asks on the commit goroutine, never waits out
	// a snapshot in progress.
	forceSnap atomic.Bool
	// snapBytes is the size of the latest snapshot, written or
	// recovered: the least log a compaction waits for.
	snapBytes atomic.Int64
}

// Open recovers the store in dir: newest valid snapshot first, then
// replay of every checksummed WAL record past it, torn tail repaired,
// corruption handled per policy. It returns the engine ready for
// appends and the recovered records in replay order (snapshot records
// first). Callers must merge them through their own conflict rule;
// the engine guarantees durability, not ordering.
func Open(dir string, opts Options) (*Engine, []Record, RecoveryInfo, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	met := opts.Metrics
	var info RecoveryInfo
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, info, fmt.Errorf("storage: %w", err)
	}
	names, err := fsys.List(dir)
	if err != nil {
		return nil, nil, info, fmt.Errorf("storage: list %s: %w", dir, err)
	}

	// Sweep temp files: a crash mid-snapshot leaves snap-*.tmp behind;
	// it was never renamed, so it was never trusted.
	var snapNames []string
	var segFirsts []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				return nil, nil, info, fmt.Errorf("storage: sweep %s: %w", name, err)
			}
			info.TmpRemoved++
			continue
		}
		if _, ok := parseSnapshotName(name); ok {
			snapNames = append(snapNames, name)
		}
		if first, ok := parseSegmentName(name); ok {
			segFirsts = append(segFirsts, first)
		}
	}

	// Newest valid snapshot wins; invalid ones are counted and, per
	// policy, fail the open or are quarantined.
	sort.Sort(sort.Reverse(sort.StringSlice(snapNames))) // zero-padded names: lexical == numeric
	var recovered recordChunks
	snapshot := false
	for _, name := range snapNames {
		path := filepath.Join(dir, name)
		lsn, records, lerr := loadSnapshot(fsys, path)
		if lerr == nil {
			info.SnapshotLSN = lsn
			info.SnapshotRecords = records.n
			recovered, snapshot = records, true
			break
		}
		info.SnapshotsBad++
		met.SnapshotsBad.Inc()
		if opts.Corruption == CorruptFailFast {
			return nil, nil, info, fmt.Errorf("storage: invalid snapshot: %w", lerr)
		}
		q := path + ".quarantine"
		if rerr := fsys.Rename(path, q); rerr != nil {
			return nil, nil, info, fmt.Errorf("storage: quarantine %s: %w", name, rerr)
		}
		info.Quarantined = append(info.Quarantined, filepath.Base(q))
	}

	// Replay WAL segments in LSN order, skipping records the snapshot
	// already covers.
	sort.Slice(segFirsts, func(i, j int) bool { return segFirsts[i] < segFirsts[j] })
	var sealed []segment
	var expect uint64 // next LSN the log should continue at; 0 = not yet known
	var activeFile File
	var activePath string
	var activeFirst, activeRecords uint64
	var activeSize int64
	for i, first := range segFirsts {
		isLast := i == len(segFirsts)-1
		path := filepath.Join(dir, segmentName(first))
		if !isLast && segFirsts[i+1] <= info.SnapshotLSN+1 {
			// Every record in this segment is older than the next
			// segment's first, hence covered by the snapshot: it only
			// survived a crash between snapshot publish and truncate.
			if err := fsys.Remove(path); err != nil {
				return nil, nil, info, fmt.Errorf("storage: drop covered segment: %w", err)
			}
			met.SegmentsTruncated.Inc()
			continue
		}
		// Continuity: the first surviving segment must start within the
		// snapshot's coverage; every later one exactly where its
		// predecessor ended. A hole is a vanished chunk of acknowledged
		// history — corruption, not a crash artifact.
		want := expect
		if want == 0 {
			want = info.SnapshotLSN + 1
			if first < want {
				want = first // overlap with the snapshot is fine
			}
		}
		if first != want {
			gapErr := fmt.Errorf("storage: segment %s: log gap (expected LSN %d, have %d)", filepath.Base(path), want, first)
			if opts.Corruption == CorruptFailFast {
				return nil, nil, info, gapErr
			}
			info.CorruptRecords++
			met.CorruptRecords.Inc()
		}
		before := recovered.n
		res, rerr := replaySegment(fsys, path, first, isLast, info.SnapshotLSN, opts.Corruption, &recovered)
		if rerr != nil {
			return nil, nil, info, rerr
		}
		replayed := recovered.n - before
		info.Replayed += replayed
		info.TornTails += res.tornTails
		info.CorruptRecords += res.corrupt
		met.Replayed.Add(int64(replayed))
		met.TornTails.Add(int64(res.tornTails))
		met.CorruptRecords.Add(int64(res.corrupt))
		expect = first + res.total
		if res.quarantined != "" {
			info.Quarantined = append(info.Quarantined, res.quarantined)
			continue // the file is gone from the log
		}
		if isLast {
			f, aerr := fsys.OpenAppend(path)
			if aerr != nil {
				return nil, nil, info, fmt.Errorf("storage: reopen segment: %w", aerr)
			}
			activeFile = f
			activePath = path
			activeFirst = first
			activeRecords = res.total
			activeSize = res.goodBytes
		} else {
			sealed = append(sealed, segment{path: path, firstLSN: first, records: res.total, size: res.goodBytes})
		}
	}
	nextLSN := expect
	if nextLSN <= info.SnapshotLSN {
		nextLSN = info.SnapshotLSN + 1
	}
	if nextLSN == 0 {
		nextLSN = 1
	}

	w, err := newWAL(fsys, dir, opts.SegmentBytes, opts.BatchMax, met,
		sealed, activeFile, activePath, activeFirst, activeRecords, activeSize, nextLSN)
	if err != nil {
		if activeFile != nil {
			_ = activeFile.Close()
		}
		return nil, nil, info, err
	}
	e := &Engine{dir: dir, fs: fsys, opts: opts, w: w, snapLSN: info.SnapshotLSN}
	// Quarantined data means the in-memory state about to be rebuilt
	// (WAL survivors + anti-entropy) is more complete than the log:
	// compact as soon as the owner can provide it.
	e.forceSnap.Store(len(info.Quarantined) > 0)
	records := recovered.flat()
	if snapshot {
		e.snapBytes.Store(snapshotSize(records[:info.SnapshotRecords]))
	}
	return e, records, info, nil
}

// segmentReplay is the outcome of replaying one segment.
type segmentReplay struct {
	total       uint64 // records physically present (incl. skipped)
	goodBytes   int64  // prefix of the file holding valid records
	tornTails   int
	corrupt     int
	quarantined string // non-empty when the file was renamed aside
}

// replaySegment reads one segment in one buffered pass and adds its
// records past snapLSN to recovered, which holds every segment's. It
// distinguishes the two ways a log ends badly. A torn tail — the file
// physically stops inside the final record, or the final record's
// bytes are present but fail their CRC with nothing valid after them —
// is the normal signature of a crash during group commit: the unacked
// tail is truncated and the log continues. A corrupt record with MORE valid data after it (or any damage in a
// non-final segment) cannot be explained by a crash: that is real
// damage to acknowledged history, handled per CorruptionPolicy.
func replaySegment(fsys FS, path string, firstLSN uint64, isLast bool, snapLSN uint64, policy CorruptionPolicy, recovered *recordChunks) (segmentReplay, error) {
	var out segmentReplay
	f, err := fsys.Open(path)
	if err != nil {
		return out, fmt.Errorf("storage: open segment: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			_ = f.Close()
		}
	}()
	br := bufio.NewReaderSize(f, readBufSize)
	for {
		rec, size, rerr := readRecord(br)
		if rerr == nil {
			if firstLSN+out.total > snapLSN { // this record's LSN
				recovered.add(rec)
			}
			out.total++
			out.goodBytes += size
			continue
		}
		if rerr == io.EOF {
			return out, nil
		}
		torn := errors.Is(rerr, errTornRecord)
		if !torn && isLast && errors.Is(rerr, errCorruptRecord) && size > 0 {
			// Full-length record with a bad CRC at the log's end: decide
			// torn-vs-corrupt by looking for valid history after it.
			torn = !anyValidRecordAfter(br)
		}
		if torn && isLast {
			// Crash artifact: truncate the tail so appends resume from
			// the last durable record.
			out.tornTails++
			_ = f.Close()
			closed = true
			af, terr := fsys.OpenAppend(path)
			if terr != nil {
				return out, fmt.Errorf("storage: repair torn tail: %w", terr)
			}
			if terr := af.Truncate(out.goodBytes); terr != nil {
				_ = af.Close()
				return out, fmt.Errorf("storage: truncate torn tail: %w", terr)
			}
			if terr := af.Sync(); terr != nil {
				_ = af.Close()
				return out, fmt.Errorf("storage: sync repaired tail: %w", terr)
			}
			if terr := af.Close(); terr != nil {
				return out, fmt.Errorf("storage: close repaired tail: %w", terr)
			}
			return out, nil
		}
		// Mid-log corruption.
		if policy == CorruptFailFast {
			return out, fmt.Errorf("storage: segment %s at offset %d: %w", filepath.Base(path), out.goodBytes, rerr)
		}
		out.corrupt++
		_ = f.Close()
		closed = true
		q := path + ".quarantine"
		if qerr := fsys.Rename(path, q); qerr != nil {
			return out, fmt.Errorf("storage: quarantine %s: %w", filepath.Base(path), qerr)
		}
		out.quarantined = filepath.Base(q)
		return out, nil
	}
}

// anyValidRecordAfter scans forward for one decodable record.
func anyValidRecordAfter(br *bufio.Reader) bool {
	for {
		_, _, err := readRecord(br)
		if err == nil {
			return true
		}
		if errors.Is(err, errCorruptRecord) {
			continue // skippable damage; keep looking for valid history
		}
		return false // EOF or torn: nothing valid follows
	}
}

// Append makes rec durable: it returns nil only after the fsync that
// covers rec completed. Concurrent appends share fsyncs (group
// commit). After any write or sync failure the engine seals itself
// and every subsequent Append fails fast — a log that lost a write
// must stop acknowledging durability.
func (e *Engine) Append(rec Record) error {
	return e.w.append(appendReq{rec: rec})
}

// AppendAsync enqueues rec without blocking and invokes done with the
// covering fsync's verdict (on the commit goroutine, which starts the
// next batch only after done returns — done must be fast and must not
// block on the engine; ShouldSnapshot is safe). If the log is already
// closed, done fires immediately with ErrClosed on the caller's
// goroutine, which also answers any append still queued at the close.
// This is the write path for callers that hold a scarce thread:
// enqueue, release the thread, ack when durable — it is what lets
// concurrent writers actually pile up behind one fsync.
func (e *Engine) AppendAsync(rec Record, done func(error)) {
	if !e.w.appendAsync(appendReq{rec: rec, done: done}) {
		done(ErrClosed)
	}
}

// AppendBatch makes every record in recs durable: it is one request to
// the commit goroutine, which writes Options.BatchMax of its records
// per fsync, and single appends queued meanwhile join the next commit.
// This is the bulk path for anti-entropy pulls.
// recs must not change until AppendBatch returns. Returns the first
// failure, after which the engine is sealed, like Append, and the
// records not yet committed are not written.
func (e *Engine) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	return e.w.append(appendReq{recs: recs})
}

// Err reports the sealing failure, if the log has one.
func (e *Engine) Err() error { return e.w.lastErr() }

// ShouldSnapshot reports whether the log has grown past the snapshot
// threshold — the larger of Options.SnapshotBytes and the latest
// snapshot's size — or recovery quarantined data and wants durability
// back. It does not wait for a Snapshot in progress.
func (e *Engine) ShouldSnapshot() bool {
	return e.forceSnap.Load() || e.w.totalBytes() >= max(e.opts.SnapshotBytes, e.snapBytes.Load())
}

// Snapshot compacts: it seals the active segment, collects the owner's
// full current state via collect (called after the seal, so the state
// is guaranteed to include every sealed record), writes it as an
// atomic snapshot, and truncates the covered segments. A failed
// snapshot is counted and leaves the log untouched — the data stays
// recoverable, just uncompacted.
func (e *Engine) Snapshot(collect func() []Record) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	lsn, err := e.w.seal()
	if err != nil {
		e.opts.Metrics.SnapshotErrors.Inc()
		return err
	}
	if lsn == 0 && !e.forceSnap.Load() {
		return nil // empty log, nothing to compact
	}
	records := collect()
	if _, err := writeSnapshot(e.fs, e.dir, lsn, records); err != nil {
		e.opts.Metrics.SnapshotErrors.Inc()
		return err
	}
	e.snapBytes.Store(snapshotSize(records))
	prevLSN := e.snapLSN
	e.snapLSN = lsn
	e.forceSnap.Store(false)
	e.opts.Metrics.Snapshots.Inc()
	if _, err := e.w.dropCovered(lsn); err != nil {
		return fmt.Errorf("storage: truncate after snapshot: %w", err)
	}
	if prevLSN > 0 && prevLSN != lsn {
		if err := e.fs.Remove(filepath.Join(e.dir, snapshotName(prevLSN))); err != nil {
			return fmt.Errorf("storage: drop old snapshot: %w", err)
		}
	}
	return nil
}

// SnapshotLSN returns the WAL position of the latest snapshot.
func (e *Engine) SnapshotLSN() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapLSN
}

// LogBytes returns the live log size (sealed + active segments).
func (e *Engine) LogBytes() int64 { return e.w.totalBytes() }

// Segments returns the live segment-file count.
func (e *Engine) Segments() int { return e.w.segmentCount() }

// Close shuts the engine down cleanly, closing the active segment.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	return e.w.close(true)
}

// Crash abandons the engine the way a process kill would: the commit
// loop stops, nothing is flushed, nothing is closed cleanly. Only the
// records whose Append already returned are guaranteed on disk. Test
// hook for kill-and-restart chaos.
func (e *Engine) Crash() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	_ = e.w.close(false)
}
