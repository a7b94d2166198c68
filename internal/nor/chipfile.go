package nor

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Chip files are the JSON envelopes the mcu, nand and reram backends
// persist a chip as. Every one stores its cell array under "array" as a
// single quoted-base64 token of the AppendBinary encoding; the helpers
// below are that token's codec, shared by all three backends, which own
// only their envelope structs and the checks on them.

// saveState recycles every per-save transient: the binary array
// encoding, the quoted-base64 token (the file's dominant field), and
// the JSON envelope buffer with its pinned encoder, whose internal
// indent scratch only amortizes when the encoder itself is reused.
type saveState struct {
	raw []byte
	b64 []byte
	buf bytes.Buffer
	enc *json.Encoder
}

var savePool = sync.Pool{New: func() any {
	s := &saveState{raw: make([]byte, 0, 4096)}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

// SaveChip writes one chip file to w. envelope receives arr's array
// token and returns the backend's envelope around it, which is encoded
// with a two-space indent. The token aliases pooled scratch, so the
// envelope must not outlive the call.
func SaveChip(w io.Writer, arr *Array, envelope func(array json.RawMessage) any) error {
	s := savePool.Get().(*saveState)
	defer savePool.Put(s)
	raw, err := arr.AppendBinary(s.raw[:0])
	s.raw = raw[:0]
	if err != nil {
		return fmt.Errorf("nor: serializing array: %w", err)
	}
	s.buf.Reset()
	if err := s.enc.Encode(envelope(s.quotedBase64(raw))); err != nil {
		return err
	}
	_, err = w.Write(s.buf.Bytes())
	return err
}

// quotedBase64 renders raw as the JSON string token the chip file
// stores the array under (base64 needs no JSON escaping, so quoting is
// just delimiters), reusing the state's token buffer.
func (s *saveState) quotedBase64(raw []byte) json.RawMessage {
	n := base64.StdEncoding.EncodedLen(len(raw))
	if cap(s.b64) < n+2 {
		s.b64 = make([]byte, n+2)
	}
	out := s.b64[:n+2]
	out[0], out[n+1] = '"', '"'
	base64.StdEncoding.Encode(out[1:n+1], raw)
	return json.RawMessage(out)
}

// ChipArray decodes chip-file array tokens, recycling the binary form
// and the cell array across calls: a run of same-geometry chips reuses
// one cell array. The zero value is ready. A ChipArray is not safe
// for concurrent use, and the array Decode returns is overwritten by the
// next Decode.
type ChipArray struct {
	bin []byte
	arr *Array
}

// Decode turns a chip file's array token into a cell array of geometry
// want, the geometry the rest of the envelope names. The serialized
// header is checked against want before any per-cell state is sized, so
// an untrusted file cannot command an allocation larger than the chip
// it claims to be.
func (c *ChipArray) Decode(token json.RawMessage, want Geometry) (*Array, error) {
	b64, err := chipArrayBytes(token)
	if err != nil {
		return nil, fmt.Errorf("decoding chip file: %w", err)
	}
	bin, err := decodeChipArray(b64, c.bin)
	if err != nil {
		return nil, fmt.Errorf("decoding array payload: %w", err)
	}
	c.bin = bin[:0]
	got, err := ArrayGeometry(bin)
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("chip file array geometry %+v does not match %+v", got, want)
	}
	arr, err := UnmarshalArrayInto(c.arr, bin)
	if err != nil {
		return nil, err
	}
	c.arr = arr
	return arr, nil
}

// chipArrayBytes extracts the base64 text from the array token. The
// fast path slices an escape-free quoted token in place; escapes (never
// written by SaveChip) or a non-string value go through encoding/json,
// so the error matches a string unmarshal's.
func chipArrayBytes(raw json.RawMessage) ([]byte, error) {
	if len(raw) >= 2 && raw[0] == '"' && raw[len(raw)-1] == '"' && bytes.IndexByte(raw, '\\') < 0 {
		return raw[1 : len(raw)-1], nil
	}
	if len(raw) == 0 {
		return nil, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// decodeChipArray base64-decodes the array text into dst's capacity,
// growing it only when the payload outgrows it.
func decodeChipArray(b64 []byte, dst []byte) ([]byte, error) {
	n := base64.StdEncoding.DecodedLen(len(b64))
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	m, err := base64.StdEncoding.Decode(dst, b64)
	if err != nil {
		return nil, err
	}
	return dst[:m], nil
}
