package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Record is one durable write: the WAL's append unit and the
// snapshot's entry unit. Replay applies records through the store's
// last-writer-wins merge, so recovery is insensitive to the order in
// which concurrent writers reached the log.
type Record struct {
	Path    string
	Value   []byte
	Version uint64
	Deleted bool
	// HLC is an optional packed hybrid-logical-clock stamp column (zero:
	// absent). A store node writes none — a write's stamp is its
	// Version — and ignores the column on recovery; the codec keeps it
	// for logs written with it, such as bench/store.go's preload.
	HLC uint64
}

// Framing: every record on disk is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// with the payload encoding
//
//	[u8 flags][u64 version][u32 pathLen][path][u32 valueLen][value][u64 hlc]?
//
// all big-endian. The trailing hlc column is present exactly when
// flagHLC is set, so logs written before hybrid logical clocks
// existed (and unstamped records since) decode unchanged, and old
// readers reject stamped records as corrupt rather than silently
// misparsing them. The CRC covers only the payload; a record whose
// stored CRC disagrees with its payload is either a torn final write
// (crash artifact) or corruption, and recovery tells the two apart by
// position (see replaySegment).
const (
	frameHeaderSize = 8
	flagDeleted     = 1 << 0
	flagHLC         = 1 << 1

	// maxRecordSize bounds a single record's payload. A length prefix
	// beyond it cannot be trusted (corruption), so replay stops
	// instead of allocating gigabytes.
	maxRecordSize = 16 << 20

	// readBufSize is the block recovery reads a log or snapshot file in.
	// A record that fits is decoded where it lies in the block; it stays
	// under FuzzLoadSnapshot's 16 KiB allocation slack.
	readBufSize = 8 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var (
	// errTornRecord marks a record the file physically ends inside:
	// the expected artifact of a crash mid-append.
	errTornRecord = errors.New("storage: record torn at end of file")
	// errCorruptRecord marks a record whose bytes are all present but
	// wrong: CRC mismatch, insane length, or undecodable payload.
	errCorruptRecord = errors.New("storage: corrupt record")
)

// encodeRecord appends r's framed encoding to buf and returns it.
func encodeRecord(buf []byte, r Record) []byte {
	payloadLen := 1 + 8 + 4 + len(r.Path) + 4 + len(r.Value)
	if r.HLC != 0 {
		payloadLen += 8
	}
	start := len(buf)
	buf = append(buf, make([]byte, frameHeaderSize+payloadLen)...)
	binary.BigEndian.PutUint32(buf[start:], uint32(payloadLen))
	p := buf[start+frameHeaderSize:]
	var flags byte
	if r.Deleted {
		flags |= flagDeleted
	}
	if r.HLC != 0 {
		flags |= flagHLC
	}
	p[0] = flags
	binary.BigEndian.PutUint64(p[1:], r.Version)
	binary.BigEndian.PutUint32(p[9:], uint32(len(r.Path)))
	copy(p[13:], r.Path)
	off := 13 + len(r.Path)
	binary.BigEndian.PutUint32(p[off:], uint32(len(r.Value)))
	copy(p[off+4:], r.Value)
	if r.HLC != 0 {
		binary.BigEndian.PutUint64(p[off+4+len(r.Value):], r.HLC)
	}
	binary.BigEndian.PutUint32(buf[start+4:], crc32.Checksum(p, crcTable))
	return buf
}

// decodePayload decodes one record payload (CRC already verified).
func decodePayload(p []byte) (Record, error) {
	if len(p) < 13 {
		return Record{}, errCorruptRecord
	}
	flags := p[0]
	if flags&^(flagDeleted|flagHLC) != 0 {
		// A flag this version does not know may change the layout behind
		// it: refuse the record rather than misparse it.
		return Record{}, errCorruptRecord
	}
	version := binary.BigEndian.Uint64(p[1:])
	pathLen := int(binary.BigEndian.Uint32(p[9:]))
	if pathLen < 0 || 13+pathLen+4 > len(p) {
		return Record{}, errCorruptRecord
	}
	path := string(p[13 : 13+pathLen])
	off := 13 + pathLen
	valueLen := int(binary.BigEndian.Uint32(p[off:]))
	tail := 0
	if flags&flagHLC != 0 {
		tail = 8
	}
	if valueLen < 0 || off+4+valueLen+tail != len(p) {
		return Record{}, errCorruptRecord
	}
	var value []byte
	if valueLen > 0 {
		value = append([]byte(nil), p[off+4:off+4+valueLen]...)
	}
	var hlc uint64
	if tail != 0 {
		// encodeRecord writes the column only for a nonzero stamp, so a
		// zero one is not a record it wrote.
		if hlc = binary.BigEndian.Uint64(p[off+4+valueLen:]); hlc == 0 {
			return Record{}, errCorruptRecord
		}
	}
	return Record{
		Path:    path,
		Value:   value,
		Version: version,
		Deleted: flags&flagDeleted != 0,
		HLC:     hlc,
	}, nil
}

// readRecord reads one framed record from br. It returns io.EOF at a
// clean record boundary, errTornRecord when the stream ends inside a
// record, and errCorruptRecord for a present-but-wrong record. Every
// byte of a present record is consumed, wrong or not, so a caller can
// go on looking for valid records behind it.
func readRecord(br *bufio.Reader) (Record, int64, error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		if len(hdr) == 0 && err == io.EOF {
			return Record{}, 0, io.EOF
		}
		return Record{}, 0, errTornRecord
	}
	payloadLen := binary.BigEndian.Uint32(hdr[:4])
	sum := binary.BigEndian.Uint32(hdr[4:])
	if payloadLen > maxRecordSize {
		_, _ = br.Discard(frameHeaderSize) // peeked, so buffered: cannot fail
		return Record{}, 0, fmt.Errorf("%w: length prefix %d exceeds %d", errCorruptRecord, payloadLen, maxRecordSize)
	}
	size := frameHeaderSize + int(payloadLen)
	if size > br.Size() {
		_, _ = br.Discard(frameHeaderSize)
		payload, err := readPayload(br, int(payloadLen))
		if err != nil {
			return Record{}, 0, errTornRecord
		}
		rec, err := checkPayload(payload, sum)
		return rec, int64(size), err
	}
	frame, err := br.Peek(size)
	if err != nil {
		return Record{}, 0, errTornRecord
	}
	rec, err := checkPayload(frame[frameHeaderSize:], sum)
	_, _ = br.Discard(size)
	return rec, int64(size), err
}

// checkPayload verifies a payload against its frame's checksum and
// decodes it; the record it returns shares no memory with p.
func checkPayload(p []byte, sum uint32) (Record, error) {
	if crc32.Checksum(p, crcTable) != sum {
		return Record{}, fmt.Errorf("%w: checksum mismatch", errCorruptRecord)
	}
	return decodePayload(p)
}

// readPayload reads the n bytes a record header announced without
// taking n, which may be flipped bits, as an allocation size: the
// buffer starts at one page and doubles only as bytes arrive, so a
// header promising 16 MiB in front of a torn tail costs a page, not
// 16 MiB.
func readPayload(r io.Reader, n int) ([]byte, error) {
	p := make([]byte, 0, min(n, 4<<10))
	for len(p) < n {
		if len(p) == cap(p) {
			p = slices.Grow(p, min(n-len(p), len(p)))
		}
		m, err := io.ReadFull(r, p[len(p):min(n, cap(p))])
		p = p[:len(p)+m]
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}
