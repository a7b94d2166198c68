package registry

// Wire protocol for the distributed registry plane. fmregistryd nodes
// and their clients (registry.Remote, the cluster router, the
// replication stream) all speak the same tiny length-prefixed framing:
//
//	message := u32 payloadLen (LE) | u8 op | payload
//
// Payloads reuse the WAL/snapshot record encodings (wal.go,
// snapshot.go), so an enrollment is laid out identically on the wire,
// in the log, and in a shipped snapshot chunk — one codec, three
// transports. Message length is capped at MaxWireMessage so a hostile
// or corrupted peer can never commit a large allocation with a forged
// header, mirroring the WAL's maxRecordBytes discipline.
//
// Requests (client -> node): OpPing, OpEnroll, OpLookup, OpSeen,
// OpStats, OpLookupBatch, OpPromote. Replication (primary -> follower,
// over one long-lived conn): OpSync handshake, then either a snapshot
// ship (OpSnapBegin / OpSnapChunk* / OpSnapEnd) or nothing, then a live
// stream of OpRepl records each acknowledged by OpReplAck. Responses:
// OpOK, OpErr (UTF-8 message payload), OpSyncOK.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"
)

// Op tags one wire message.
type Op byte

// Request, replication and response opcodes.
const (
	OpPing        Op = 0x01 // -> OpOK [role byte]
	OpEnroll      Op = 0x02 // [enrollment] -> OpOK [enroll result] | OpErr
	OpLookup      Op = 0x03 // [key] -> OpOK [u8 found | state]
	OpSeen        Op = 0x04 // [key] -> OpOK [u8 found]
	OpStats       Op = 0x05 // -> OpOK [stats]
	OpLookupBatch Op = 0x06 // [u32 n | n*key] -> OpOK [u32 n | n*(u8 found | state)]
	OpPromote     Op = 0x07 // -> OpOK (follower becomes primary; idempotent)
	OpSync        Op = 0x08 // [u64 pos] -> OpSyncOK [u64 pos] | OpErr
	OpSnapBegin   Op = 0x09 // [u64 entryCount]
	OpSnapChunk   Op = 0x0A // [state]
	OpSnapEnd     Op = 0x0B // -> OpOK [u64 pos] | OpErr
	OpRepl        Op = 0x0C // [enrollment] -> OpReplAck [u64 pos] | OpErr

	OpOK      Op = 0x20
	OpErr     Op = 0x21
	OpSyncOK  Op = 0x22
	OpReplAck Op = 0x23
)

// Node role bytes carried in an OpPing response.
const (
	RolePrimaryByte  = 'P' // primary, accepting enrollments
	RoleDegradedByte = 'D' // primary fenced: required follower link is down
	RoleFollowerByte = 'F' // follower, refusing client enrollments
)

// MaxWireMessage caps one message payload. Snapshot chunks carry one
// state entry each, so nothing legitimate comes near the cap.
const MaxWireMessage = 1 << 20

const wireHeadBytes = 5

// WriteMessage frames op+payload onto w. It buffers only; the caller
// flushes once per request (or per replication batch).
func WriteMessage(w *bufio.Writer, op Op, payload []byte) error {
	if len(payload) > MaxWireMessage {
		return fmt.Errorf("registry: wire message of %d bytes exceeds cap", len(payload))
	}
	var head [wireHeadBytes]byte
	binary.LittleEndian.PutUint32(head[:4], uint32(len(payload)))
	head[4] = byte(op)
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message from r into buf (reused across
// calls when it has capacity). A clean EOF at a frame boundary returns
// io.EOF; an oversized length header fails without allocating.
func ReadMessage(r *bufio.Reader, buf []byte) (Op, []byte, error) {
	var head [wireHeadBytes]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("registry: wire header: %w", err)
	}
	n := binary.LittleEndian.Uint32(head[:4])
	if n > MaxWireMessage {
		return 0, nil, fmt.Errorf("registry: wire message of %d bytes exceeds cap", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("registry: wire payload: %w", err)
	}
	return Op(head[4]), buf, nil
}

// AppendWireEnrollment encodes e in the shared record payload format.
func AppendWireEnrollment(dst []byte, e Enrollment) ([]byte, error) {
	return appendEnrollment(dst, e)
}

// DecodeWireEnrollment parses an enrollment payload that must fill p
// exactly.
func DecodeWireEnrollment(p []byte) (Enrollment, error) {
	e, n, err := decodeEnrollment(p)
	if err != nil {
		return e, err
	}
	if n != len(p) {
		return e, fmt.Errorf("registry: %d trailing bytes after enrollment", len(p)-n)
	}
	return e, nil
}

// AppendWireKey encodes k: u8 len(manufacturer) | manufacturer | u64
// dieID (LE).
func AppendWireKey(dst []byte, k Key) ([]byte, error) {
	if len(k.Manufacturer) > 255 {
		return nil, fmt.Errorf("registry: manufacturer exceeds 255 bytes")
	}
	dst = append(dst, byte(len(k.Manufacturer)))
	dst = append(dst, k.Manufacturer...)
	return binary.LittleEndian.AppendUint64(dst, k.DieID), nil
}

// DecodeWireKey parses one key from the front of p, returning the bytes
// consumed (batch payloads carry keys back to back).
func DecodeWireKey(p []byte) (Key, int, error) {
	var k Key
	if len(p) < 1 {
		return k, 0, fmt.Errorf("registry: key payload too short")
	}
	mfgLen := int(p[0])
	if len(p) < 1+mfgLen+8 {
		return k, 0, fmt.Errorf("registry: key payload truncated")
	}
	k.Manufacturer = string(p[1 : 1+mfgLen])
	k.DieID = binary.LittleEndian.Uint64(p[1+mfgLen:])
	return k, 1 + mfgLen + 8, nil
}

// Enroll-result flag bits.
const (
	wireFlagDuplicate = 1 << 0
	wireFlagConflict  = 1 << 1
)

// AppendWireEnrollResult encodes r: u32 count | u8 flags | enrollment
// (the first sighting).
func AppendWireEnrollResult(dst []byte, r EnrollResult) ([]byte, error) {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.Count))
	var flags byte
	if r.Duplicate {
		flags |= wireFlagDuplicate
	}
	if r.Conflict {
		flags |= wireFlagConflict
	}
	dst = append(dst, flags)
	return appendEnrollment(dst, r.First)
}

// DecodeWireEnrollResult parses an enroll-result payload.
func DecodeWireEnrollResult(p []byte) (EnrollResult, error) {
	var r EnrollResult
	if len(p) < 5 {
		return r, fmt.Errorf("registry: enroll result payload too short")
	}
	r.Count = int(binary.LittleEndian.Uint32(p))
	r.Duplicate = p[4]&wireFlagDuplicate != 0
	r.Conflict = p[4]&wireFlagConflict != 0
	first, n, err := decodeEnrollment(p[5:])
	if err != nil {
		return r, err
	}
	if n != len(p)-5 {
		return r, fmt.Errorf("registry: %d trailing bytes after enroll result", len(p)-5-n)
	}
	r.First = first
	return r, nil
}

// AppendWireState encodes one key's full read-side state in the
// snapshot-entry layout: enrollment | 32B first-nonzero fingerprint |
// u32 count | u8 flags. Lookup responses and shipped snapshot chunks
// share it.
func AppendWireState(dst []byte, r LookupResult) ([]byte, error) {
	return appendSnapEntry(dst, snapEntry{first: r.First, fp: r.Fingerprint, count: r.Count, taint: r.Conflict})
}

// DecodeWireState parses one state payload.
func DecodeWireState(p []byte) (LookupResult, error) {
	ent, err := decodeSnapEntry(p)
	if err != nil {
		return LookupResult{}, err
	}
	return LookupResult{First: ent.first, Fingerprint: ent.fp, Count: ent.count, Conflict: ent.taint}, nil
}

// wireStatsFields is the fixed u64 field count of a stats payload.
const wireStatsFields = 12

// AppendWireStats encodes s as twelve little-endian u64s in declaration
// order (Recovery travels as microseconds).
func AppendWireStats(dst []byte, s Stats) []byte {
	for _, v := range [wireStatsFields]int64{
		s.Keys, s.Enrollments, s.Lookups, s.Conflicts,
		s.WALAppends, s.WALFsyncs, s.WALBytes, s.WALRecords,
		s.Compactions, int64(s.LastCompaction), s.WALSegments,
		s.Recovery.Microseconds(),
	} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// DecodeWireStats parses a stats payload.
func DecodeWireStats(p []byte) (Stats, error) {
	var s Stats
	if len(p) != wireStatsFields*8 {
		return s, fmt.Errorf("registry: stats payload is %d bytes, want %d", len(p), wireStatsFields*8)
	}
	u := func(i int) int64 { return int64(binary.LittleEndian.Uint64(p[i*8:])) }
	s.Keys, s.Enrollments, s.Lookups, s.Conflicts = u(0), u(1), u(2), u(3)
	s.WALAppends, s.WALFsyncs, s.WALBytes, s.WALRecords = u(4), u(5), u(6), u(7)
	s.Compactions, s.LastCompaction, s.WALSegments = u(8), uint64(u(9)), u(10)
	// A count of microseconds past a Duration's range would wrap, and
	// the stats would not re-encode to what the peer sent.
	us := u(11)
	if us > math.MaxInt64/int64(time.Microsecond) || us < math.MinInt64/int64(time.Microsecond) {
		return Stats{}, fmt.Errorf("registry: stats recovery of %d us overflows a duration", us)
	}
	s.Recovery = time.Duration(us) * time.Microsecond
	return s, nil
}
