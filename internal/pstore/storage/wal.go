package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
)

// ErrClosed is returned by Append once the engine is closed (or
// crash-abandoned): nothing further will be made durable.
var ErrClosed = errors.New("storage: engine closed")

// segment is one sealed (no longer appended) WAL file.
type segment struct {
	path     string
	firstLSN uint64
	records  uint64
	size     int64
}

func (s segment) lastLSN() uint64 { return s.firstLSN + s.records - 1 }

func segmentName(firstLSN uint64) string { return fmt.Sprintf("wal-%020d.seg", firstLSN) }

// appendReq is one writer waiting for its record to become durable.
// done is invoked exactly once, from the commit goroutine, with the
// verdict of the covering fsync — it must not block for long, or it
// stalls every later commit. Requests travel through the queue by
// value, so an append allocates nothing of its own.
type appendReq struct {
	rec  Record
	done func(error)
}

// wal is the segmented write-ahead log. All file writes go through a
// single commit goroutine: concurrent Append callers queue on reqs,
// the loop drains the queue into one batch, writes the batch to the
// active segment, and issues ONE fsync for all of them — group
// commit. An append returns only after the fsync that covers it, so
// an acked record is durable by construction. The same goroutine acks
// each batch once its fsync has returned.
type wal struct {
	fs       FS
	dir      string
	segBytes int64
	maxBatch int
	met      Metrics

	reqs     chan appendReq
	stop     chan struct{}
	loopDone chan struct{}

	mu            sync.Mutex
	active        File
	activePath    string
	activeFirst   uint64
	activeRecords uint64
	activeSize    int64
	sealed        []segment
	nextLSN       uint64
	broken        error // first write/sync failure; the log refuses appends after it
	closed        bool

	// Commit-loop scratch, reused across batches: the encoded batch,
	// and the batch itself, whose entries are cleared once acked so
	// that it holds no record between commits.
	buf   []byte
	batch []appendReq
}

// newWAL resumes appending after recovery: active is the (already
// torn-tail-repaired) newest segment opened for append, or nil to
// create a fresh one.
func newWAL(fsys FS, dir string, segBytes int64, maxBatch int, met Metrics,
	sealed []segment, active File, activePath string, activeFirst, activeRecords uint64, activeSize int64, nextLSN uint64) (*wal, error) {
	w := &wal{
		fs:            fsys,
		dir:           dir,
		segBytes:      segBytes,
		maxBatch:      maxBatch,
		met:           met,
		reqs:          make(chan appendReq, maxBatch),
		stop:          make(chan struct{}),
		loopDone:      make(chan struct{}),
		active:        active,
		activePath:    activePath,
		activeFirst:   activeFirst,
		activeRecords: activeRecords,
		activeSize:    activeSize,
		sealed:        sealed,
		nextLSN:       nextLSN,
	}
	if w.active == nil {
		if err := w.openActiveLocked(); err != nil {
			return nil, err
		}
	}
	w.publishGauges()
	go w.run()
	return w, nil
}

// openActiveLocked creates a fresh active segment starting at nextLSN.
func (w *wal) openActiveLocked() error {
	path := filepath.Join(w.dir, segmentName(w.nextLSN))
	f, err := w.fs.Create(path)
	if err != nil {
		return fmt.Errorf("storage: create segment: %w", err)
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("storage: sync dir: %w", err)
	}
	w.active = f
	w.activePath = path
	w.activeFirst = w.nextLSN
	w.activeRecords = 0
	w.activeSize = 0
	return nil
}

// append blocks until rec is durable (its covering fsync returned) or
// the log failed. It is safe for any number of concurrent callers;
// concurrency is what group commit amortizes.
func (w *wal) append(rec Record) error {
	done := make(chan error, 1)
	if !w.appendAsync(rec, func(err error) { done <- err }) {
		return ErrClosed
	}
	select {
	case err := <-done:
		return err
	case <-w.stop:
		// The loop may have been mid-commit on our batch; prefer its
		// verdict if one arrived. Reporting ErrClosed for a record
		// that did become durable is safe: the caller withholds its
		// ack, and replay plus anti-entropy reconcile the replica.
		select {
		case err := <-done:
			return err
		default:
			cinc(w.met.AppendErrors)
			return ErrClosed
		}
	}
}

// appendAsync enqueues rec and returns immediately; done fires with
// the covering fsync's verdict. Returns false (done never fires) if
// the log is closed. This is the non-blocking write path: callers
// that hold a scarce lock (a daemon's serial section) enqueue and
// move on, and everything queued behind one fsync shares it.
func (w *wal) appendAsync(rec Record, done func(error)) bool {
	select {
	case w.reqs <- appendReq{rec: rec, done: done}:
	case <-w.stop:
		cinc(w.met.AppendErrors)
		return false
	}
	return true
}

// run is the single commit goroutine: it writes and fsyncs a batch,
// then acks every writer in it, in commit order. While it acks, the
// next batch gathers in reqs, so the next fsync covers all of it.
func (w *wal) run() {
	defer close(w.loopDone)
	for {
		select {
		case req := <-w.reqs:
			batch := w.gather(req)
			err := w.commit(batch)
			for i := range batch {
				batch[i].done(err)
			}
			clear(batch)
		case <-w.stop:
			for {
				select {
				case r := <-w.reqs:
					cinc(w.met.AppendErrors)
					r.done(ErrClosed)
				default:
					return
				}
			}
		}
	}
}

// gather drains whatever else is already queued behind first, up to
// the batch cap — the group in group commit — into the loop's scratch
// batch.
func (w *wal) gather(first appendReq) []appendReq {
	w.batch = append(w.batch[:0], first)
	for len(w.batch) < w.maxBatch {
		select {
		case r := <-w.reqs:
			w.batch = append(w.batch, r)
		default:
			return w.batch
		}
	}
	return w.batch
}

// commit writes the batch to the active segment and fsyncs once.
// Record LSNs are assigned here, in commit order.
func (w *wal) commit(batch []appendReq) error {
	w.mu.Lock()
	if w.broken != nil {
		err := w.broken
		w.mu.Unlock()
		cadd(w.met.AppendErrors, int64(len(batch)))
		return err
	}
	if w.activeSize >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.broken = fmt.Errorf("storage: wal rotate: %w", err)
			err = w.broken
			w.mu.Unlock()
			cadd(w.met.AppendErrors, int64(len(batch)))
			return err
		}
	}
	w.buf = w.buf[:0]
	for i := range batch {
		w.buf = encodeRecord(w.buf, batch[i].rec)
	}
	_, err := w.active.Write(w.buf)
	if err == nil {
		err = w.active.Sync()
	}
	if err != nil {
		// The active file may hold a torn batch now; recovery will
		// truncate it. The log seals itself: a disk that failed once
		// must not keep acking durability.
		w.broken = fmt.Errorf("storage: wal append: %w", err)
		err = w.broken
		w.mu.Unlock()
		cadd(w.met.AppendErrors, int64(len(batch)))
		return err
	}
	w.activeSize += int64(len(w.buf))
	w.activeRecords += uint64(len(batch))
	w.nextLSN += uint64(len(batch))
	w.mu.Unlock()
	cinc(w.met.Syncs)
	cadd(w.met.Appends, int64(len(batch)))
	w.publishGauges()
	return nil
}

// rotateLocked seals the active segment and opens a fresh one. Called
// only between batches, so the sealed file is fully synced already.
func (w *wal) rotateLocked() error {
	if err := w.active.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, segment{
		path:     w.activePath,
		firstLSN: w.activeFirst,
		records:  w.activeRecords,
		size:     w.activeSize,
	})
	return w.openActiveLocked()
}

// seal makes every record appended so far live in a sealed segment
// and returns the highest LSN covered; the snapshot that follows can
// then truncate exactly those segments. An empty active segment is
// reused rather than rotated.
func (w *wal) seal() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken != nil {
		return 0, w.broken
	}
	if w.activeRecords > 0 {
		if err := w.rotateLocked(); err != nil {
			w.broken = fmt.Errorf("storage: wal rotate: %w", err)
			return 0, w.broken
		}
	}
	return w.nextLSN - 1, nil
}

// dropCovered deletes sealed segments fully covered by a snapshot at
// lsn and returns how many were removed — the snapshot/truncate cycle
// that stops the log growing forever.
func (w *wal) dropCovered(lsn uint64) (int, error) {
	w.mu.Lock()
	var keep []segment
	var drop []segment
	for _, s := range w.sealed {
		if s.records > 0 && s.lastLSN() <= lsn {
			drop = append(drop, s)
		} else {
			keep = append(keep, s)
		}
	}
	w.sealed = keep
	w.mu.Unlock()
	for _, s := range drop {
		if err := w.fs.Remove(s.path); err != nil {
			return 0, err
		}
	}
	if len(drop) > 0 {
		if err := w.fs.SyncDir(w.dir); err != nil {
			return len(drop), err
		}
	}
	cadd(w.met.SegmentsTruncated, int64(len(drop)))
	w.publishGauges()
	return len(drop), nil
}

// totalBytes is the live log size across sealed and active segments.
func (w *wal) totalBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := w.activeSize
	for _, s := range w.sealed {
		total += s.size
	}
	return total
}

func (w *wal) segmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

func (w *wal) publishGauges() {
	gset(w.met.WALBytes, w.totalBytes())
	gset(w.met.WALSegments, int64(w.segmentCount()))
}

// lastErr reports the sealing failure, if any.
func (w *wal) lastErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.broken
}

// close stops the commit loop. With clean set the active segment is
// closed properly; a crash-abandon skips both, leaving whatever the
// last fsync made durable — exactly what a process kill leaves.
func (w *wal) close(clean bool) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	close(w.stop)
	<-w.loopDone
	if !clean {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.active == nil {
		return nil
	}
	err := w.active.Close()
	w.active = nil
	return err
}
