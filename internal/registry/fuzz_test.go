package registry

// Fuzz targets for the two on-disk decoders, mirroring the repo's
// FuzzLoadDevice pattern: adversarial bytes must produce a clean
// error or a valid load — never a panic, and never a large allocation
// (forged length headers and forged key counts are the interesting
// inputs; both are capped before any memory is committed).
//
// Run: go test -run xxx -fuzz FuzzWALReplay ./internal/registry

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// fuzzFrame builds one valid framed enrollment for seed corpora.
func fuzzFrame(tb testing.TB, e Enrollment) []byte {
	tb.Helper()
	payload, err := appendEnrollment(nil, e)
	if err != nil {
		tb.Fatal(err)
	}
	return appendFrame(nil, payload)
}

// fuzzSnapshot builds one valid snapshot stream for seed corpora.
func fuzzSnapshot(tb testing.TB, gen uint64, entries []snapEntry) []byte {
	tb.Helper()
	var out []byte
	out = append(out, snapMagic...)
	out = binary.LittleEndian.AppendUint64(out, gen)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(entries)))
	for _, ent := range entries {
		payload, err := appendSnapEntry(nil, ent)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, appendFrame(nil, payload)...)
	}
	return append(out, snapTrailer...)
}

func FuzzWALReplay(f *testing.F) {
	e1 := enr("acme", 7, fpByte(1), "line-a")
	e2 := enr("zeta", ^uint64(0), Fingerprint{}, "")
	valid := append(fuzzFrame(f, e1), fuzzFrame(f, e2)...)
	f.Add(valid)                            // clean log
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(append(bytes.Clone(valid), 0xFF)) // torn extra byte
	f.Add(fuzzFrame(f, Enrollment{}))       // minimal record
	f.Add([]byte{})                         // empty log
	forged := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(forged, 1<<30) // forged length header
	f.Add(forged)
	garbage := appendFrame(nil, []byte{recVersion + 9, 1, 2, 3})
	f.Add(garbage) // checksummed non-record

	f.Fuzz(func(t *testing.T, data []byte) {
		m := NewMemory(4)
		var n int
		good, torn, err := replayLog(bytes.NewReader(data), func(e Enrollment) {
			m.apply(e)
			n++
		})
		if good < 0 || good > int64(len(data)) {
			t.Fatalf("good offset %d outside [0, %d]", good, len(data))
		}
		if err != nil && !torn {
			t.Fatalf("hard error %v without torn flag", err)
		}
		if int(m.Stats().Enrollments) != n {
			t.Fatalf("applied %d, counted %d", n, m.Stats().Enrollments)
		}
		// Replaying the good prefix again must be deterministic: same
		// record count, no tear, full consumption.
		var n2 int
		good2, torn2, err2 := replayLog(bytes.NewReader(data[:good]), func(Enrollment) { n2++ })
		if err2 != nil || torn2 || good2 != good || n2 != n {
			t.Fatalf("good-prefix replay diverged: n=%d/%d good=%d/%d torn=%v err=%v",
				n2, n, good2, good, torn2, err2)
		}
	})
}

func FuzzSnapshot(f *testing.F) {
	ent1 := snapEntry{first: enr("acme", 7, fpByte(1), "line-a"), fp: fpByte(1), count: 3, taint: true}
	ent2 := snapEntry{first: enr("zeta", 1, Fingerprint{}, ""), fp: Fingerprint{}, count: 1}
	valid := fuzzSnapshot(f, 5, []snapEntry{ent1, ent2})
	f.Add(valid)                         // clean snapshot
	f.Add(fuzzSnapshot(f, 0, nil))       // empty snapshot
	f.Add(valid[:len(valid)-4])          // clipped trailer
	f.Add(append(bytes.Clone(valid), 0)) // trailing byte
	forgedCount := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(forgedCount[len(snapMagic)+8:], 1<<50)
	f.Add(forgedCount)       // forged key count
	f.Add([]byte(snapMagic)) // header only

	f.Fuzz(func(t *testing.T, data []byte) {
		var entries []snapEntry
		gen, err := readSnapshot(bytes.NewReader(data), func(ent snapEntry) {
			entries = append(entries, ent)
		})
		if err != nil {
			return
		}
		// A load that succeeded must survive a re-encode round trip.
		again := fuzzSnapshot(t, gen, entries)
		var entries2 []snapEntry
		gen2, err2 := readSnapshot(bytes.NewReader(again), func(ent snapEntry) {
			entries2 = append(entries2, ent)
		})
		if err2 != nil || gen2 != gen || len(entries2) != len(entries) {
			t.Fatalf("re-encode diverged: gen=%d/%d n=%d/%d err=%v",
				gen2, gen, len(entries2), len(entries), err2)
		}
		for i := range entries {
			if entries2[i] != entries[i] {
				t.Fatalf("entry %d diverged: %+v -> %+v", i, entries[i], entries2[i])
			}
		}
		// Loading into a real index must not panic either.
		m := NewMemory(4)
		for _, ent := range entries {
			m.restore(ent.first.Key, ent.first, ent.fp, ent.count, ent.taint)
		}
	})
}

// FuzzWireFrames feeds arbitrary bytes to the wire framing that
// fmregistryd nodes read from network peers: ReadMessage runs until it
// returns an error, and every DecodeWire* function parses each payload.
// Nothing may panic, and a payload that decodes must re-encode through
// the matching AppendWire* to a payload that decodes to the same value.
func FuzzWireFrames(f *testing.F) {
	e := enr("acme", 7, fpByte(1), "line-a")
	e.UnixMicro = 1_700_000_000_000_000
	enrollment, _ := AppendWireEnrollment(nil, e)
	key, _ := AppendWireKey(nil, e.Key)
	result, _ := AppendWireEnrollResult(nil, EnrollResult{Count: 2, Duplicate: true, Conflict: true, First: e})
	state, _ := AppendWireState(nil, LookupResult{First: e, Fingerprint: fpByte(2), Count: 3, Conflict: true})
	stats := AppendWireStats(nil, Stats{Keys: 1, Enrollments: 2, WALBytes: 4096, LastCompaction: 3, Recovery: 1500 * time.Microsecond})
	var stream bytes.Buffer
	w := bufio.NewWriter(&stream)
	for _, m := range []struct {
		op      Op
		payload []byte
	}{
		{OpEnroll, enrollment}, {OpLookup, key}, {OpOK, result},
		{OpSnapChunk, state}, {OpOK, stats}, {OpPing, nil},
	} {
		if err := WriteMessage(w, m.op, m.payload); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := stream.Bytes()
	f.Add(valid)
	forged := bytes.Clone(valid)
	binary.LittleEndian.PutUint32(forged, 1<<30) // forged length header
	f.Add(forged)
	f.Add(valid[:wireHeadBytes+len(enrollment)-3]) // truncated payload
	f.Add([]byte{})                                // empty stream

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			_, payload, err := ReadMessage(r, buf)
			if err != nil {
				return
			}
			buf = payload
			checkWireRoundTrip(t, payload)
		}
	})
}

// checkWireRoundTrip runs every wire decoder on p and re-encodes what
// decodes.
func checkWireRoundTrip(t *testing.T, p []byte) {
	t.Helper()
	if e, err := DecodeWireEnrollment(p); err == nil {
		re, err := AppendWireEnrollment(nil, e)
		if err != nil {
			t.Fatalf("decoded enrollment %+v does not re-encode: %v", e, err)
		}
		if back, err := DecodeWireEnrollment(re); err != nil || back != e {
			t.Fatalf("enrollment %+v came back as %+v (%v)", e, back, err)
		}
	}
	if k, n, err := DecodeWireKey(p); err == nil {
		if n < 1 || n > len(p) {
			t.Fatalf("DecodeWireKey consumed %d of %d bytes", n, len(p))
		}
		re, err := AppendWireKey(nil, k)
		if err != nil {
			t.Fatalf("decoded key %+v does not re-encode: %v", k, err)
		}
		if back, m, err := DecodeWireKey(re); err != nil || back != k || m != len(re) {
			t.Fatalf("key %+v came back as %+v after %d of %d bytes (%v)", k, back, m, len(re), err)
		}
	}
	if r, err := DecodeWireEnrollResult(p); err == nil {
		re, err := AppendWireEnrollResult(nil, r)
		if err != nil {
			t.Fatalf("decoded enroll result %+v does not re-encode: %v", r, err)
		}
		if back, err := DecodeWireEnrollResult(re); err != nil || back != r {
			t.Fatalf("enroll result %+v came back as %+v (%v)", r, back, err)
		}
	}
	if s, err := DecodeWireState(p); err == nil {
		re, err := AppendWireState(nil, s)
		if err != nil {
			t.Fatalf("decoded state %+v does not re-encode: %v", s, err)
		}
		if back, err := DecodeWireState(re); err != nil || back != s {
			t.Fatalf("state %+v came back as %+v (%v)", s, back, err)
		}
	}
	if s, err := DecodeWireStats(p); err == nil {
		if back, err := DecodeWireStats(AppendWireStats(nil, s)); err != nil || back != s {
			t.Fatalf("stats %+v came back as %+v (%v)", s, back, err)
		}
	}
}
