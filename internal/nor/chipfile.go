package nor

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
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

// SaveChip's output has one canonical shape: a JSON object whose last
// member is "array", an escape-free string that is nearly the whole
// file. UnmarshalChipFile and ChipFileLen recognize that shape and give
// encoding/json only the small head before the token, so its
// byte-at-a-time scanner never runs over the token. Anything else goes
// to encoding/json whole: the fast path accepts nothing that
// json.Unmarshal would decode differently or refuse.

// arrayKey is the array member's key as SaveChip writes it.
// encoding/json matches keys case-insensitively, unescapes them, and
// lets the last duplicate win, so only this exact key as the last
// member takes the fast path.
const arrayKey = `"array"`

// maxHeadBrackets bounds the opening brackets in a head ChipFileLen
// accepts. encoding/json refuses input nested over 10000 levels deep,
// so a file it accepts alone could be refused inside a container; a
// head with fewer brackets than this nests too shallow for that.
const maxHeadBrackets = 9000

// headScratch recycles the copies of chip-file heads, each closed with
// a brace, that the fast path hands to encoding/json.
var headScratch = sync.Pool{New: func() any { b := make([]byte, 0, 2048); return &b }}

// UnmarshalChipFile decodes data, one complete chip file, into env, a
// backend's envelope, and returns the array token for ChipArray.Decode.
// array points at env's "array" member; the caller resets *env first,
// and may leave capacity in *array for the fallback to reuse.
//
// A canonical file has only its head decoded, and the token returned
// aliases data. Anything else, or a head encoding/json refuses, is
// decoded whole by json.Unmarshal into the reset envelope, with its
// error, and the token returned is *array. Either way the token, and
// every member of env but *array, are what json.Unmarshal gives; *array
// never aliases data, so a loader that recycles its capacity never
// writes into a caller's buffer.
func UnmarshalChipFile[E any](data []byte, env *E, array *json.RawMessage) (json.RawMessage, error) {
	if n, head, token, ok := splitChipFile(data); ok && skipSpace(data, n) == len(data) {
		reset := *env
		bp := closedHead(data[:head])
		err := json.Unmarshal(*bp, env)
		headScratch.Put(bp)
		if err == nil {
			return token, nil
		}
		*env = reset
	}
	if err := json.Unmarshal(data, env); err != nil {
		return nil, err
	}
	return *array, nil
}

// ChipFileLen reports the length of the canonical chip file at the
// start of data: the bytes json.RawMessage takes for it as an element
// of a JSON array. ok is false when data does not start with one; when
// it is true, data[:n] is valid JSON, and valid still when nested a few
// levels deep in a batch body.
func ChipFileLen(data []byte) (n int, ok bool) {
	n, head, _, ok := splitChipFile(data)
	if !ok || bytes.Count(data[:head], []byte("{"))+bytes.Count(data[:head], []byte("[")) >= maxHeadBrackets {
		return 0, false
	}
	bp := closedHead(data[:head])
	defer headScratch.Put(bp)
	if !json.Valid(*bp) {
		return 0, false
	}
	return n, true
}

// closedHead copies head into recycled scratch and closes it with '}'.
// The caller puts the scratch back to headScratch.
func closedHead(head []byte) *[]byte {
	bp := headScratch.Get().(*[]byte)
	*bp = append(append((*bp)[:0], head...), '}')
	return bp
}

// splitChipFile recognizes the shape of a canonical chip file at the
// start of data: members, a comma, the array member with a string
// value free of backslashes and control bytes, and the closing brace.
// It returns the file's length n, the end of its head (the index of
// that comma) and the quoted token. The shape alone proves little,
// since the first "array" it finds may sit inside an earlier string
// or object: data[:n] is a JSON object whose last member is the token
// exactly when data[:head]+"}" is valid JSON, which the caller checks.
func splitChipFile(data []byte) (n, head int, token []byte, ok bool) {
	k := bytes.Index(data, []byte(arrayKey))
	if k < 0 {
		return 0, 0, nil, false
	}
	head = lastNonSpace(data, k)
	if head < 0 || data[head] != ',' {
		return 0, 0, nil, false
	}
	// "{," is not JSON, though the head it leaves, "{}", is.
	if p := lastNonSpace(data, head); p < 0 || data[p] == '{' {
		return 0, 0, nil, false
	}
	i := skipSpace(data, k+len(arrayKey))
	if i == len(data) || data[i] != ':' {
		return 0, 0, nil, false
	}
	i = skipSpace(data, i+1)
	if i == len(data) || data[i] != '"' {
		return 0, 0, nil, false
	}
	end := bytes.IndexByte(data[i+1:], '"')
	if end < 0 {
		return 0, 0, nil, false
	}
	end += i + 1
	if !plainString(data[i+1 : end]) {
		return 0, 0, nil, false
	}
	j := skipSpace(data, end+1)
	if j == len(data) || data[j] != '}' {
		return 0, 0, nil, false
	}
	return j + 1, head, data[i : end+1], true
}

// plainString reports whether s, the bytes between a string's quotes,
// holds no backslash and no control byte, so that the JSON string is
// valid and decodes to exactly s. It tests a word at a time: a byte
// below n sets its high bit in w-n*ones but not in ^w, and no byte sets
// both when none is below n (n <= 0x80), so (w-n*ones)&^w&highs is
// nonzero exactly when some byte of w is below n. A backslash is the
// zero byte of w^'\\'*ones, below 1.
func plainString(s []byte) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; len(s) >= 8; s = s[8:] {
		w := binary.LittleEndian.Uint64(s)
		x := w ^ ones*'\\'
		if ((w-ones*0x20)&^w|(x-ones)&^x)&highs != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < 0x20 || c == '\\' {
			return false
		}
	}
	return true
}

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i, or len(data).
func skipSpace(data []byte, i int) int {
	for i < len(data) && isSpace(data[i]) {
		i++
	}
	return i
}

// lastNonSpace returns the index of the last non-whitespace byte of
// data before i, or -1.
func lastNonSpace(data []byte, i int) int {
	for i--; i >= 0 && isSpace(data[i]); i-- {
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

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

// Cells reports how many cells the array kept for reuse holds (0 before
// the first Decode).
func (c *ChipArray) Cells() int {
	if c.arr == nil {
		return 0
	}
	return c.arr.geom.TotalCells()
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
