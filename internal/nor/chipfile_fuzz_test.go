package nor_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/floatgate"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/reram"
)

// fuzzEnvelope mixes the field kinds of the three backends' envelopes:
// strings, ints, a pointer to a nested struct, a []int, an omitempty
// float and the raw array token.
type fuzzEnvelope struct {
	Format   string            `json:"format"`
	Version  int               `json:"version"`
	Part     string            `json:"part"`
	Seed     uint64            `json:"seed"`
	Params   *floatgate.Params `json:"params,omitempty"`
	Geometry nor.Geometry      `json:"geometry"`
	NextPage []int             `json:"nextPage"`
	AgeYears float64           `json:"ageYears,omitempty"`
	Array    json.RawMessage   `json:"array"`
}

// savedFiles returns one saved chip file per backend.
func savedFiles(tb testing.TB) [][]byte {
	tb.Helper()
	var files [][]byte
	for _, open := range []func() (device.Device, error){
		func() (device.Device, error) { return mcu.Open(mcu.PartSmallSim(), 1) },
		func() (device.Device, error) {
			return nand.Open(nand.SmallNAND(), nand.SLCTiming(), floatgate.DefaultParams(), 2)
		},
		func() (device.Device, error) {
			return reram.Open(reram.DefaultGeometry(), reram.OxRAMTiming(), reram.DefaultParams(), 3)
		},
	} {
		dev, err := open()
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dev.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		files = append(files, buf.Bytes())
	}
	return files
}

// envelopeSeeds returns canonical files and near misses of every kind
// the fast path must decline or read exactly.
func envelopeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var seeds [][]byte
	for _, file := range savedFiles(tb) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, file); err != nil {
			tb.Fatal(err)
		}
		c := compact.Bytes()
		k := bytes.Index(c, []byte(`,"array":`))
		head, member := c[1:k], c[k+1:len(c)-1] // members before, the array member
		token := member[len(`"array":`):]
		join := func(parts ...string) []byte {
			var b []byte
			for _, p := range parts {
				b = append(b, p...)
			}
			return b
		}
		seeds = append(seeds,
			file,
			c,
			// Members reordered: the array first.
			join("{", string(member), ",", string(head), "}"),
			// An escaped token: T is the 'T' it starts with.
			join("{", string(head), `,"array":"T`, string(token[2:]), "}"),
			// "array" as an earlier string value, and as a member of an
			// earlier object.
			join(`{"part":"array",`, string(head), ",", string(member), "}"),
			join(`{"geometry":{"array":"QUJD"},`, string(head), ",", string(member), "}"),
			// A duplicate array member, and an "Array" member before and
			// after it.
			join("{", string(head), `,"array":"QUJD",`, string(member), "}"),
			join("{", string(head), `,"Array":"QUJD",`, string(member), "}"),
			join("{", string(head), ",", string(member), `,"Array":"QUJD"}`),
			// Trailing bytes: whitespace, and another value.
			join(string(c), " \n"),
			join(string(c), "{}"),
		)
		// A token holding a tab, a newline or a NUL, which base64
		// decoding would skip or refuse but JSON refuses.
		for _, b := range []string{"\t", "\n", "\x00"} {
			seeds = append(seeds, join("{", string(head), `,"array":"`, b, string(token[1:]), "}"))
		}
	}
	return append(seeds,
		[]byte(`{,"array":"QUJD"}`),
		[]byte(`{"seed":1,"array":"QUJD"}`),
		[]byte(`{"nextPage":[1,null],"seed":"x","array":"QUJD"}`),
		[]byte(`{"params":{"TauBaseMeanUs":1},"params":null,"array":"QUJD"}`),
	)
}

// FuzzChipEnvelope: nor.UnmarshalChipFile decodes like json.Unmarshal.
// Each input goes into a fresh envelope both ways: both fail with the
// same error, or both succeed with equal fields and an equal token.
// Whatever nor.ChipFileLen accepts is valid JSON.
func FuzzChipEnvelope(f *testing.F) {
	for _, seed := range envelopeSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want fuzzEnvelope
		token, gotErr := nor.UnmarshalChipFile(data, &got, &got.Array)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("UnmarshalChipFile error %v, json.Unmarshal error %v", gotErr, wantErr)
		}
		if gotErr == nil {
			if !bytes.Equal(token, want.Array) {
				t.Fatalf("token %q, json.Unmarshal's %q", token, want.Array)
			}
			got.Array, want.Array = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("envelope %+v, json.Unmarshal's %+v", got, want)
			}
		}
		if n, ok := nor.ChipFileLen(data); ok && !json.Valid(data[:n]) {
			t.Fatalf("ChipFileLen accepted %q, which is not JSON", data[:n])
		}
	})
}

// TestChipFileFastPathTaken: a saved file, indented or compacted, takes
// the fast path, whose token aliases the file; the near misses that
// decode at all return a token json.Unmarshal owns.
func TestChipFileFastPathTaken(t *testing.T) {
	for _, file := range savedFiles(t) {
		var compact bytes.Buffer
		if err := json.Compact(&compact, file); err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{file, compact.Bytes()} {
			var env fuzzEnvelope
			token, err := nor.UnmarshalChipFile(data, &env, &env.Array)
			if err != nil {
				t.Fatal(err)
			}
			if k := bytes.Index(data, token); k < 0 || &data[k] != &token[0] {
				t.Error("a canonical file's token does not alias the file")
			}
			if env.Array != nil {
				t.Error("the fast path set the envelope's array member")
			}
			if n, ok := nor.ChipFileLen(data); !ok || n != len(bytes.TrimRight(data, "\n")) {
				t.Errorf("ChipFileLen = %d, %v; want the whole file", n, ok)
			}
		}
	}
}
