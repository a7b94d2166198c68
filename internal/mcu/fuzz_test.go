package mcu

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"github.com/flashmark/flashmark/internal/nor"
)

// bombChipFile builds the allocation-bomb regression input the fuzzer
// originally found: a tiny chip file naming a small catalog part whose
// array header declares a huge geometry with zero cell records. Loading
// it must fail on the geometry check without committing the multi-GB
// per-cell allocation the header implies.
func bombChipFile(banks, segs, segBytes uint32) []byte {
	var arr bytes.Buffer
	arr.WriteString("NORA")
	for _, v := range []any{uint16(1), banks, segs, segBytes, uint32(2), uint64(0)} {
		_ = binary.Write(&arr, binary.LittleEndian, v)
	}
	return []byte(fmt.Sprintf(
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","seed":1,"array":%q}`,
		base64.StdEncoding.EncodeToString(arr.Bytes())))
}

// nonFiniteChipFile builds an FM-SIM16 chip file whose cell 0 holds a
// programmed margin at +Inf wear and whose cell 1 a NaN margin. Such a
// file once loaded, and an adaptive erase of its segment then charged
// only the settle time for a cell of infinite wear; loading it must
// fail.
func nonFiniteChipFile() []byte {
	geom := nor.Small()
	var arr bytes.Buffer
	arr.WriteString("NORA")
	for _, v := range []any{uint16(1), uint32(geom.Banks), uint32(geom.SegmentsPerBank),
		uint32(geom.SegmentBytes), uint32(geom.WordBytes), uint64(2),
		uint64(0), nor.MarginProgrammed, math.Inf(1),
		uint64(1), float32(math.NaN()), float64(0)} {
		_ = binary.Write(&arr, binary.LittleEndian, v)
	}
	return []byte(fmt.Sprintf(
		`{"format":"flashmark-chip","version":1,"part":"FM-SIM16","seed":1,"array":%q}`,
		base64.StdEncoding.EncodeToString(arr.Bytes())))
}

func TestLoadRejectsForgedGeometry(t *testing.T) {
	for name, raw := range map[string][]byte{
		// 64 MB declared: ~6 GB of host state if allocated eagerly.
		"oversized": bombChipFile(4, 1<<15, 512),
		// Valid size for another part, but not FM-SIM16's shape.
		"mismatched": bombChipFile(4, 128, 512),
	} {
		if _, err := Load(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s forged-geometry chip file accepted: %s", name, raw[:60])
		}
	}
}
