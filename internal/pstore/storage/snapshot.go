package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"strings"
)

// A snapshot is the compacted state of the store at a WAL position:
//
//	[8B magic "ACESNAP1"][u64 lsn][u64 count][count framed records]
//
// followed by end-of-file. Each record reuses the WAL's CRC framing,
// so a snapshot validates record-by-record; any decode failure or
// trailing garbage marks the whole file invalid and recovery falls
// back to an older snapshot (or a bare WAL replay). Snapshots are
// written to a .tmp file, fsynced, then renamed — a crash mid-write
// leaves a .tmp that recovery discards, never a half-trusted .snap.
const snapMagic = "ACESNAP1"

func snapshotName(lsn uint64) string { return fmt.Sprintf("snap-%020d.snap", lsn) }

// parseSnapshotName extracts the LSN from a snap-<lsn>.snap name.
func parseSnapshotName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 10, 64)
	return lsn, err == nil
}

// parseSegmentName extracts the first LSN from a wal-<lsn>.seg name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
	return lsn, err == nil
}

// snapshotSize is the length of the file writeSnapshot makes of
// records.
func snapshotSize(records []Record) int64 {
	n := int64(len(snapMagic) + 16)
	for _, r := range records {
		n += int64(frameHeaderSize + payloadSize(r))
	}
	return n
}

// writeSnapshot writes records as the compacted state at lsn using
// the write-temp-fsync-rename protocol and returns the final path.
func writeSnapshot(fsys FS, dir string, lsn uint64, records []Record) (string, error) {
	final := filepath.Join(dir, snapshotName(lsn))
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("storage: create snapshot: %w", err)
	}
	cleanup := func(err error) (string, error) {
		_ = f.Close()
		_ = fsys.Remove(tmp)
		return "", err
	}
	// Records collect in buf and go out a full buffer per Write, so a
	// compaction of the whole store costs a few dozen system calls.
	const bufSize = 64 << 10
	buf := make([]byte, 0, bufSize)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, lsn)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(records)))
	for _, r := range records {
		buf = encodeRecord(buf, r)
		if len(buf) >= bufSize {
			if _, err := f.Write(buf); err != nil {
				return cleanup(fmt.Errorf("storage: write snapshot: %w", err))
			}
			buf = buf[:0]
		}
	}
	if _, err := f.Write(buf); err != nil {
		return cleanup(fmt.Errorf("storage: write snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("storage: sync snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		_ = fsys.Remove(tmp)
		return "", fmt.Errorf("storage: close snapshot: %w", err)
	}
	if err := fsys.Rename(tmp, final); err != nil {
		_ = fsys.Remove(tmp)
		return "", fmt.Errorf("storage: publish snapshot: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return "", fmt.Errorf("storage: sync dir: %w", err)
	}
	return final, nil
}

// loadSnapshot reads and fully validates one snapshot file. Its
// records come back only once the whole file has validated.
func loadSnapshot(fsys FS, path string) (lsn uint64, records recordChunks, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, recordChunks{}, fmt.Errorf("storage: open snapshot: %w", err)
	}
	defer func() { _ = f.Close() }()
	br := bufio.NewReaderSize(f, readBufSize)
	var hdr [len(snapMagic) + 16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, recordChunks{}, fmt.Errorf("storage: snapshot header: %w", err)
	}
	if string(hdr[:len(snapMagic)]) != snapMagic {
		return 0, recordChunks{}, fmt.Errorf("storage: snapshot %s: bad magic", filepath.Base(path))
	}
	lsn = binary.BigEndian.Uint64(hdr[len(snapMagic):])
	count := binary.BigEndian.Uint64(hdr[len(snapMagic)+8:])
	if count > 1<<32 {
		return 0, recordChunks{}, fmt.Errorf("storage: snapshot %s: implausible record count %d", filepath.Base(path), count)
	}
	// Until the records behind it validate, count is just bytes that
	// may be flipped: never trust it as an allocation size. records
	// grows only as records arrive.
	for i := uint64(0); i < count; i++ {
		rec, _, rerr := readRecord(br)
		if rerr != nil {
			return 0, recordChunks{}, fmt.Errorf("storage: snapshot %s: record %d: %w", filepath.Base(path), i, rerr)
		}
		records.add(rec)
	}
	if _, rerr := br.ReadByte(); rerr != io.EOF {
		return 0, recordChunks{}, fmt.Errorf("storage: snapshot %s: trailing garbage", filepath.Base(path))
	}
	return lsn, records, nil
}
