package service

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"github.com/flashmark/flashmark/internal/chipfile"
	"github.com/flashmark/flashmark/internal/counterfeit"
	"github.com/flashmark/flashmark/internal/mcu"
)

// spliceBatch joins chip files into a batch body by hand, as a client
// that does not re-encode its files would.
func spliceBatch(chips ...[]byte) []byte {
	body := []byte(`{"chips":[`)
	for i, c := range chips {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, bytes.TrimSpace(c)...)
	}
	return append(body, "]}"...)
}

// TestDecodeBatchAliasesBody: a canonical batch body is split in place.
// Its elements alias the request body, so the split allocates no copy
// of them: a 4-chip NOR body of about 440 KB decodes in under 1 KB.
func TestDecodeBatchAliasesBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop the head scratch at random")
	}
	var chips [][]byte
	for i := uint64(0); i < 4; i++ {
		chips = append(chips, chipBytes(t, counterfeit.ClassGenuineAccept, 0xB0+i, 8100+i))
	}
	body := spliceBatch(chips...)
	req := &request{raw: body}
	if _, err := decodeBatch(req); err != nil {
		t.Fatal(err)
	}
	for i, c := range req.chips {
		if !bytes.Equal(c, bytes.TrimSpace(chips[i])) {
			t.Fatalf("element %d is not chip %d's bytes", i, i)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		req = &request{raw: body}
		if _, err := decodeBatch(req); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1<<10 {
		t.Errorf("decodeBatch allocated %d bytes per %d-byte body, want under 1 KB", per, len(body))
	}
}

// FuzzBatchSplit: chipfile.SplitBatch is exact against encoding/json.
// A body it accepts, json.Unmarshal accepts too, with byte-identical
// elements (the verdict cache keys each element by its SHA-256); a body
// json.Unmarshal refuses, it declines.
func FuzzBatchSplit(f *testing.F) {
	dev, err := mcu.NewDevice(mcu.PartSmallSim(), 9)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dev.Save(&buf); err != nil {
		f.Fatal(err)
	}
	chip := buf.Bytes()
	f.Add(spliceBatch(chip, chip))
	f.Add(batchBody(f, chip))
	f.Add([]byte(" {\n \"chips\" : [ " + string(chip) + " ,\n" + string(chip) + " ] } \n"))
	f.Add([]byte(`{"chips":[]}`))
	f.Add([]byte(`{"chips":null}`))
	f.Add([]byte(`{"chips":[7]}`))
	f.Add([]byte(`{"chips":[{"format":"flashmark-chip"},7]}`))
	f.Add([]byte(`{"chips":[{"format":"}{","v":"]","array":"QUJD"},{"a":"{[","array":"QUJD"}]}`))
	f.Add([]byte(`{"chips":[{"x":{"y":1,"array":"QUJD"},"array":"QUJD"}]}`))
	// An element nested 9,999 levels deep, valid alone, puts the body
	// past encoding/json's depth limit of 10,000.
	deep := strings.Repeat("[", 9998) + strings.Repeat("]", 9998)
	f.Add([]byte(`{"chips":[{"a":` + deep + `,"array":"QUJD"}]}`))
	f.Add(append([]byte(`{"Chips":[`), append(bytes.TrimSpace(chip), "]}"...)...))
	f.Add(append([]byte(`{"chips":[`), append(bytes.TrimSpace(chip), `],"chips":[]}`...)...))

	f.Fuzz(func(t *testing.T, body []byte) {
		chips, ok := chipfile.SplitBatch(body)
		var br BatchRequest
		err := json.Unmarshal(body, &br)
		if !ok {
			return
		}
		if err != nil {
			t.Fatalf("SplitBatch accepted a body json.Unmarshal refuses: %v", err)
		}
		if len(chips) != len(br.Chips) {
			t.Fatalf("SplitBatch found %d elements, json.Unmarshal %d", len(chips), len(br.Chips))
		}
		for i := range chips {
			if !bytes.Equal(chips[i], br.Chips[i]) {
				t.Fatalf("element %d: SplitBatch %q, json.Unmarshal %q", i, chips[i], br.Chips[i])
			}
		}
	})
}
