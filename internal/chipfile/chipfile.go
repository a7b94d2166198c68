// Package chipfile loads a chip file of any backend. A chip file
// self-describes its backend in a leading "format" tag; Loader maps
// that tag to the backend's own reusable loader. It is the one format
// dispatcher: the flashmark CLI and the verification service both load
// chips through it, so they accept exactly the same files.
package chipfile

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
	"github.com/flashmark/flashmark/internal/nor"
	"github.com/flashmark/flashmark/internal/reram"
)

// Loader holds one reusable loader per backend, so a stream of chip
// files reloads into recycled arrays. The zero value is ready. A Loader
// is not safe for concurrent use, and the device Load returns aliases
// the loader's storage: the next Load invalidates it.
type Loader struct {
	mcu   mcu.Loader
	nand  nand.Loader
	reram reram.Loader
}

// Load reconstructs the chip in data, one complete chip file. The NAND
// and ReRAM tags go to their backends; every other tag goes to the NOR
// loader, whose error names the unknown format.
func (l *Loader) Load(data []byte) (device.Device, error) {
	format, ok := sniffFormat(data)
	if !ok {
		var head struct {
			Format string `json:"format"`
		}
		if err := json.Unmarshal(data, &head); err != nil {
			return nil, fmt.Errorf("not a chip file: %w", err)
		}
		format = []byte(head.Format)
	}
	if string(format) == nand.ChipFormat {
		a, err := l.nand.Load(data)
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	if string(format) == reram.ChipFormat {
		d, err := l.reram.Load(data)
		if err != nil {
			return nil, err
		}
		return d, nil
	}
	d, err := l.mcu.Load(data)
	if err != nil {
		return nil, err
	}
	return d, nil
}

// Retained reports the most cells, or NAND blocks, one of its backend
// loaders keeps for reuse: what an idle Loader pins.
func (l *Loader) Retained() int {
	return max(l.mcu.Retained(), l.nand.Retained(), l.reram.Retained())
}

// SplitBatch splits a batch body, {"chips":[...]} with every element a
// canonical chip file (nor.ChipFileLen), into its elements without
// running encoding/json's scanner over the tokens. Each element is
// exactly the bytes json.Unmarshal would give its json.RawMessage,
// from its '{' to its matching '}', but aliases body instead of
// copying it, with no spare capacity. ok is false for any other body,
// which the caller decodes with encoding/json; a body SplitBatch
// accepts, json.Unmarshal accepts too.
func SplitBatch(body []byte) (chips []json.RawMessage, ok bool) {
	i := 0
	for _, want := range [...]string{`{`, `"chips"`, `:`, `[`} {
		i = skipSpace(body, i)
		if !bytes.HasPrefix(body[i:], []byte(want)) {
			return nil, false
		}
		i += len(want)
	}
	if i = skipSpace(body, i); i < len(body) && body[i] == ']' {
		i++
	} else {
		for {
			if i == len(body) || body[i] != '{' {
				return nil, false
			}
			n, ok := nor.ChipFileLen(body[i:])
			if !ok {
				return nil, false
			}
			chips = append(chips, body[i:i+n:i+n])
			if i = skipSpace(body, i+n); i == len(body) {
				return nil, false
			}
			if body[i] == ']' {
				i++
				break
			}
			if body[i] != ',' {
				return nil, false
			}
			i = skipSpace(body, i+1)
		}
	}
	if i = skipSpace(body, i); i == len(body) || body[i] != '}' || skipSpace(body, i+1) != len(body) {
		return nil, false
	}
	return chips, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// sniffFormat scans the head of a chip file for the leading
// {"format":"..."} member without parsing the whole file. Every
// backend's Save writes the format member first with no escapes, so the
// scan answers for every saved file; anything else (the member
// elsewhere, escapes, non-objects) reports !ok and Load falls back to a
// full unmarshal for its exact error.
func sniffFormat(raw []byte) ([]byte, bool) {
	i := skipSpace(raw, 0)
	if i >= len(raw) || raw[i] != '{' {
		return nil, false
	}
	i = skipSpace(raw, i+1)
	const key = `"format"`
	if len(raw)-i < len(key) || string(raw[i:i+len(key)]) != key {
		return nil, false
	}
	i = skipSpace(raw, i+len(key))
	if i >= len(raw) || raw[i] != ':' {
		return nil, false
	}
	i = skipSpace(raw, i+1)
	if i >= len(raw) || raw[i] != '"' {
		return nil, false
	}
	i++
	start := i
	for ; i < len(raw); i++ {
		if raw[i] == '\\' {
			return nil, false
		}
		if raw[i] == '"' {
			return raw[start:i], true
		}
	}
	return nil, false
}
