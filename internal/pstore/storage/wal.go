package storage

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
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

// appendReq is one writer waiting for rec, or with recs set for a bulk
// append, to become durable. done is invoked exactly once, from the
// commit goroutine, with the verdict of the fsync covering the last
// record — it must not block for long, or it stalls every later commit.
// Requests travel through the queue by value, so an append allocates
// nothing of its own.
type appendReq struct {
	rec  Record
	recs []Record
	done func(error)
}

// size is how many records r appends.
func (r appendReq) size() int {
	if r.recs != nil {
		return len(r.recs)
	}
	return 1
}

// wal is the segmented write-ahead log. All file writes go through a
// single commit goroutine: concurrent Append callers queue on reqs,
// the loop drains the queue into one batch, writes the batch to the
// active segment, and issues ONE fsync for all of them — group
// commit. An append returns only after the fsync that covers it, so
// an acked record is durable by construction. The same goroutine acks
// each batch once its fsync has returned. A bulk append is one request
// too: each commit takes the next maxBatch of its records, and single
// appends queued meanwhile join that commit rather than wait for the
// whole bulk.
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
	totalSize     int64 // activeSize plus every sealed segment's size
	nextLSN       uint64
	broken        error // first write/sync failure; the log refuses appends after it
	closed        bool

	// Commit-loop state, reused across batches: the encoded batch; the
	// batch itself, whose entries are cleared once acked so that it
	// holds no record between commits; and the bulk appends not yet
	// fully committed, oldest first.
	buf   []byte
	batch []appendReq
	bulks []appendReq
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
		totalSize:     activeSize,
		nextLSN:       nextLSN,
	}
	for _, s := range sealed {
		w.totalSize += s.size
	}
	if w.active == nil {
		if err := w.openActiveLocked(); err != nil {
			return nil, err
		}
	}
	w.publishGaugesLocked()
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

// append blocks until req's records are durable (the fsync covering
// the last of them returned) or the log failed. It is safe for any
// number of concurrent callers; concurrency is what group commit
// amortizes. A close does not cut the wait short: the loop finishes
// the commit it is in, then answers everything left ErrClosed, so the
// loop has let go of req's records when append returns.
func (w *wal) append(req appendReq) error {
	done := make(chan error, 1)
	req.done = func(err error) { done <- err }
	if !w.appendAsync(req) {
		return ErrClosed
	}
	return <-done
}

// appendAsync enqueues req and returns immediately; req.done fires
// with the covering fsync's verdict. Returns false (done never fires)
// if the log is closed. This is the non-blocking write path: callers
// that hold a scarce lock (a daemon's serial section) enqueue and
// move on, and everything queued behind one fsync shares it.
func (w *wal) appendAsync(req appendReq) bool {
	select {
	case w.reqs <- req:
	case <-w.stop:
		w.met.AppendErrors.Add(int64(req.size()))
		return false
	}
	// Once the log is closed both cases above are ready, so the send
	// may have won after the commit loop's last drain: then nothing
	// else answers what is queued, and this caller does.
	select {
	case <-w.stop:
		w.refuseQueued()
	default:
	}
	return true
}

// refuseQueued answers every queued append ErrClosed.
func (w *wal) refuseQueued() {
	for {
		select {
		case r := <-w.reqs:
			w.met.AppendErrors.Add(int64(r.size()))
			r.done(ErrClosed)
		default:
			return
		}
	}
}

// failBulks answers every bulk append the loop holds with err, for
// the records it has not committed.
func (w *wal) failBulks(err error) {
	for _, b := range w.bulks {
		w.met.AppendErrors.Add(int64(len(b.recs)))
		b.done(err)
	}
	clear(w.bulks)
	w.bulks = w.bulks[:0]
}

// run is the single commit goroutine: it writes and fsyncs a batch,
// then acks every writer in it, in commit order. While it acks, the
// next batch gathers in reqs, so the next fsync covers all of it. A
// bulk append still holding records goes on into the next commit
// without waiting for a request, unless the log was closed meanwhile.
func (w *wal) run() {
	defer close(w.loopDone)
	for {
		if len(w.bulks) == 0 {
			select {
			case req := <-w.reqs:
				w.queue(req)
			case <-w.stop:
				w.refuseQueued()
				return
			}
		} else {
			select {
			case <-w.stop:
				w.refuseQueued()
				w.failBulks(ErrClosed)
				return
			default:
			}
		}
		batch := w.gather()
		err := w.commit(batch)
		for i := range batch {
			if batch[i].done != nil {
				batch[i].done(err)
			}
		}
		clear(batch)
		w.batch = batch[:0]
		if err != nil {
			w.failBulks(err)
		}
	}
}

// queue sets req aside for the next commit: a single append in the
// batch, a bulk append behind the bulk appends already in progress.
func (w *wal) queue(req appendReq) {
	if req.recs != nil {
		w.bulks = append(w.bulks, req)
	} else {
		w.batch = append(w.batch, req)
	}
}

// gather completes the loop's scratch batch: whatever single appends
// are already queued, up to maxBatch of them — the group in group
// commit — then up to maxBatch records of the oldest bulk appends. A
// bulk append's part carries its done only when it is the last part.
func (w *wal) gather() []appendReq {
drain:
	for len(w.batch) < w.maxBatch {
		select {
		case r := <-w.reqs:
			w.queue(r)
		default:
			break drain
		}
	}
	for room := w.maxBatch; room > 0 && len(w.bulks) > 0; {
		b := &w.bulks[0]
		k := min(room, len(b.recs))
		part := appendReq{recs: b.recs[:k:k]}
		b.recs, room = b.recs[k:], room-k
		if len(b.recs) == 0 {
			part.done = b.done
			w.bulks = slices.Delete(w.bulks, 0, 1)
		}
		w.batch = append(w.batch, part)
	}
	return w.batch
}

// commit writes the batch to the active segment and fsyncs once.
// Record LSNs are assigned here, in commit order.
func (w *wal) commit(batch []appendReq) error {
	n := 0
	for i := range batch {
		n += batch[i].size()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.broken == nil && w.activeSize >= w.segBytes {
		if err := w.rotateLocked(); err != nil {
			w.broken = fmt.Errorf("storage: wal rotate: %w", err)
		}
	}
	if w.broken != nil {
		w.met.AppendErrors.Add(int64(n))
		return w.broken
	}
	w.buf = w.buf[:0]
	for i := range batch {
		if r := &batch[i]; r.recs != nil {
			for j := range r.recs {
				w.buf = encodeRecord(w.buf, r.recs[j])
			}
		} else {
			w.buf = encodeRecord(w.buf, r.rec)
		}
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
		w.met.AppendErrors.Add(int64(n))
		return w.broken
	}
	w.activeSize += int64(len(w.buf))
	w.totalSize += int64(len(w.buf))
	w.activeRecords += uint64(n)
	w.nextLSN += uint64(n)
	w.met.Syncs.Inc()
	w.met.Appends.Add(int64(n))
	w.publishGaugesLocked()
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
			w.totalSize -= s.size
		} else {
			keep = append(keep, s)
		}
	}
	w.sealed = keep
	w.publishGaugesLocked()
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
	w.met.SegmentsTruncated.Add(int64(len(drop)))
	return len(drop), nil
}

// totalBytes is the live log size across sealed and active segments.
func (w *wal) totalBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.totalSize
}

func (w *wal) segmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.sealed) + 1
}

// publishGaugesLocked sets the log-shape gauges from the state the
// caller, holding w.mu, just changed.
func (w *wal) publishGaugesLocked() {
	w.met.WALBytes.Set(w.totalSize)
	w.met.WALSegments.Set(int64(len(w.sealed) + 1))
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
