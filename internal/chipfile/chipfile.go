// Package chipfile loads a chip file of any backend. A chip file
// self-describes its backend in a leading "format" tag; Loader maps
// that tag to the backend's own reusable loader. It is the one format
// dispatcher: the flashmark CLI and the verification service both load
// chips through it, so they accept exactly the same files.
package chipfile

import (
	"encoding/json"
	"fmt"

	"github.com/flashmark/flashmark/internal/device"
	"github.com/flashmark/flashmark/internal/mcu"
	"github.com/flashmark/flashmark/internal/nand"
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

// sniffFormat scans the head of a chip file for the leading
// {"format":"..."} member without parsing the whole file. Every
// backend's Save writes the format member first with no escapes, so the
// scan answers for every saved file; anything else (the member
// elsewhere, escapes, non-objects) reports !ok and Load falls back to a
// full unmarshal for its exact error.
func sniffFormat(raw []byte) ([]byte, bool) {
	i := 0
	skipWS := func() {
		for i < len(raw) && (raw[i] == ' ' || raw[i] == '\t' || raw[i] == '\n' || raw[i] == '\r') {
			i++
		}
	}
	skipWS()
	if i >= len(raw) || raw[i] != '{' {
		return nil, false
	}
	i++
	skipWS()
	const key = `"format"`
	if len(raw)-i < len(key) || string(raw[i:i+len(key)]) != key {
		return nil, false
	}
	i += len(key)
	skipWS()
	if i >= len(raw) || raw[i] != ':' {
		return nil, false
	}
	i++
	skipWS()
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
