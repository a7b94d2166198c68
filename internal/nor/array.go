package nor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Analog margin sentinels. A cell's margin is the analog distance (in µs
// of applied erase time) between the cell's state and the read threshold:
// deeply erased cells sit at MarginErased, deeply programmed cells at
// MarginProgrammed, and cells interrupted mid-erase carry a finite margin
// that makes their reads noisy.
const (
	MarginErased     = float32(math.MaxFloat32)
	MarginProgrammed = float32(-math.MaxFloat32)
)

// Array is the mutable state of a NOR flash array: one analog margin and
// one accumulated-wear value per bit cell. It enforces geometry bounds but
// attaches no operation semantics; the flash controller does that.
type Array struct {
	geom   Geometry
	margin []float32 // analog read margin, µs
	wear   []float64 // effective P/E cycles experienced
}

// NewArray allocates a fresh (fully erased, zero-wear) array.
func NewArray(geom Geometry) (*Array, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	a := &Array{
		geom:   geom,
		margin: make([]float32, geom.TotalCells()),
		wear:   make([]float64, geom.TotalCells()),
	}
	for i := range a.margin {
		a.margin[i] = MarginErased
	}
	return a, nil
}

// Geometry returns the array's shape.
func (a *Array) Geometry() Geometry { return a.geom }

func (a *Array) checkCell(cell int) {
	if cell < 0 || cell >= len(a.margin) {
		panic(fmt.Sprintf("nor: cell index %d outside array of %d cells", cell, len(a.margin)))
	}
}

// Margin returns the analog margin of a cell.
func (a *Array) Margin(cell int) float64 {
	a.checkCell(cell)
	return float64(a.margin[cell])
}

// ClampMargin converts an analog margin to its stored float32 form,
// saturating at the sentinels — the exact store semantics of SetMargin,
// exposed so batched writers through CellSpan stay bit-identical to
// per-cell SetMargin calls. The mapping is monotone non-decreasing,
// which is what lets the controller's fast path carry margin *bounds*
// through it.
func ClampMargin(v float64) float32 {
	switch {
	case v >= float64(MarginErased):
		return MarginErased
	case v <= float64(MarginProgrammed):
		return MarginProgrammed
	}
	return float32(v)
}

// SetMargin sets the analog margin of a cell.
func (a *Array) SetMargin(cell int, v float64) {
	a.checkCell(cell)
	a.margin[cell] = ClampMargin(v)
}

// Programmed reports whether the cell's stable digital state is '0'
// (negative margin). Cells with small |margin| are metastable and read
// noisily through the controller; this accessor reports the sign only.
func (a *Array) Programmed(cell int) bool {
	a.checkCell(cell)
	return a.margin[cell] < 0
}

// Wear returns the accumulated effective wear of a cell.
func (a *Array) Wear(cell int) float64 {
	a.checkCell(cell)
	return a.wear[cell]
}

// AddWear adds d effective cycles to a cell. Negative d panics: oxide
// damage is irreversible (the property Flashmark rests on).
func (a *Array) AddWear(cell int, d float64) {
	a.checkCell(cell)
	if d < 0 {
		panic("nor: wear cannot decrease")
	}
	a.wear[cell] += d
}

// CellSpan returns the raw margin and wear storage of one segment as
// contiguous full-capacity slices — the batched physics path iterates a
// whole segment without per-cell bounds checks. Writers must store
// margins through ClampMargin and must never decrease wear; the slices
// alias the array, so per-cell accessors observe writes immediately.
// An out-of-range segment panics (programmer error, like checkCell).
func (a *Array) CellSpan(seg int) (margins []float32, wear []float64) {
	if seg < 0 || seg >= a.geom.TotalSegments() {
		panic(fmt.Sprintf("nor: segment %d outside array of %d segments", seg, a.geom.TotalSegments()))
	}
	cells := a.geom.CellsPerSegment()
	base := seg * cells
	return a.margin[base : base+cells : base+cells], a.wear[base : base+cells : base+cells]
}

// SegmentWearSummary returns the min, mean and max wear across a segment.
func (a *Array) SegmentWearSummary(seg int) (minW, meanW, maxW float64, err error) {
	if seg < 0 || seg >= a.geom.TotalSegments() {
		return 0, 0, 0, fmt.Errorf("nor: segment %d outside array", seg)
	}
	cells := a.geom.CellsPerSegment()
	base := seg * cells
	minW = math.Inf(1)
	for i := 0; i < cells; i++ {
		w := a.wear[base+i]
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
		meanW += w
	}
	meanW /= float64(cells)
	return minW, meanW, maxW, nil
}

// Binary serialization format: a sparse encoding. Fresh cells (margin
// erased, zero wear) dominate real chips, so only non-default cells are
// stored. Layout (little endian):
//
//	magic "NORA", version u16, geometry (4×u32), cell count u64,
//	then per stored cell: index u64, margin f32, wear f64.
const (
	arrayMagic   = "NORA"
	arrayVersion = uint16(1)
)

// AppendBinary serializes the array state into dst (reusing its
// capacity) and returns the extended slice, in the layout above;
// callers that serialize in a loop pass a recycled buffer so the steady
// state allocates nothing.
func (a *Array) AppendBinary(dst []byte) ([]byte, error) {
	dst = append(dst, arrayMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, arrayVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.geom.Banks))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.geom.SegmentsPerBank))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.geom.SegmentBytes))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(a.geom.WordBytes))
	count := uint64(0)
	for i := range a.margin {
		if a.margin[i] != MarginErased || a.wear[i] != 0 {
			count++
		}
	}
	dst = binary.LittleEndian.AppendUint64(dst, count)
	for i := range a.margin {
		if a.margin[i] != MarginErased || a.wear[i] != 0 {
			dst = binary.LittleEndian.AppendUint64(dst, uint64(i))
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(a.margin[i]))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.wear[i]))
		}
	}
	return dst, nil
}

// needBytes checks that n more bytes are available at off, reporting
// the io.ReadFull error contract the former binary.Read decoder had on
// a bytes.Reader — io.EOF on exhausted input, ErrUnexpectedEOF on a
// partial field — so wrapped error messages stay stable.
func needBytes(data []byte, off, n int) error {
	switch {
	case len(data)-off >= n:
		return nil
	case len(data)-off == 0:
		return io.EOF
	}
	return io.ErrUnexpectedEOF
}

// decodeArrayHeader parses the magic, version and geometry prefix of a
// serialized array, returning the geometry and the header length.
func decodeArrayHeader(data []byte) (Geometry, int, error) {
	if len(data) < 4 || string(data[:4]) != arrayMagic {
		return Geometry{}, 0, fmt.Errorf("nor: bad array magic")
	}
	off := 4
	if err := needBytes(data, off, 2); err != nil {
		return Geometry{}, 0, fmt.Errorf("nor: truncated header: %w", err)
	}
	version := binary.LittleEndian.Uint16(data[off:])
	off += 2
	if version != arrayVersion {
		return Geometry{}, 0, fmt.Errorf("nor: unsupported array version %d", version)
	}
	var fields [4]uint32
	for i := range fields {
		if err := needBytes(data, off, 4); err != nil {
			return Geometry{}, 0, fmt.Errorf("nor: truncated geometry: %w", err)
		}
		fields[i] = binary.LittleEndian.Uint32(data[off:])
		off += 4
	}
	return Geometry{
		Banks: int(fields[0]), SegmentsPerBank: int(fields[1]),
		SegmentBytes: int(fields[2]), WordBytes: int(fields[3]),
	}, off, nil
}

// ArrayGeometry reads just the serialized array's geometry header without
// building the array. Loaders that know the geometry they expect (e.g. a
// chip file naming a catalog part) use it to reject mismatched or
// oversized arrays before UnmarshalArrayInto commits the full per-cell
// allocation — untrusted input must not command allocations the header
// alone can rule out.
func ArrayGeometry(data []byte) (Geometry, error) {
	geom, _, err := decodeArrayHeader(data)
	if err != nil {
		return Geometry{}, err
	}
	if err := geom.Validate(); err != nil {
		return Geometry{}, err
	}
	return geom, nil
}

// Reset returns every cell to the pristine fresh-chip state (margin
// erased, zero wear) in place, preserving the allocated storage — the
// in-place counterpart of NewArray for device arenas and reloading
// loaders.
func (a *Array) Reset() {
	for i := range a.margin {
		a.margin[i] = MarginErased
	}
	clear(a.wear)
}

// UnmarshalArrayInto reconstructs an array from AppendBinary output,
// reusing dst's cell storage when dst's geometry matches the serialized
// geometry (dst's previous contents are discarded); otherwise — and
// when dst is nil — a fresh array is allocated. On error a reused dst
// is left partially filled; callers must not read it before the next
// successful load. The decode walks the bytes directly (no reflective
// binary.Read), which is what makes a warm reload allocation-free.
func UnmarshalArrayInto(dst *Array, data []byte) (*Array, error) {
	geom, off, err := decodeArrayHeader(data)
	if err != nil {
		return nil, err
	}
	var a *Array
	if dst != nil && dst.geom == geom {
		dst.Reset()
		a = dst
	} else {
		a, err = NewArray(geom)
		if err != nil {
			return nil, err
		}
	}
	if err := needBytes(data, off, 8); err != nil {
		return nil, fmt.Errorf("nor: truncated cell count: %w", err)
	}
	count := binary.LittleEndian.Uint64(data[off:])
	off += 8
	if count > uint64(geom.TotalCells()) {
		return nil, fmt.Errorf("nor: cell count %d exceeds array size %d", count, geom.TotalCells())
	}
	for n := uint64(0); n < count; n++ {
		if err := needBytes(data, off, 8); err != nil {
			return nil, fmt.Errorf("nor: truncated cell record: %w", err)
		}
		idx := binary.LittleEndian.Uint64(data[off:])
		off += 8
		if idx >= uint64(geom.TotalCells()) {
			return nil, fmt.Errorf("nor: cell index %d outside array", idx)
		}
		if err := needBytes(data, off, 4); err != nil {
			return nil, fmt.Errorf("nor: truncated margin: %w", err)
		}
		m := math.Float32frombits(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if err := needBytes(data, off, 8); err != nil {
			return nil, fmt.Errorf("nor: truncated wear: %w", err)
		}
		w := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		// The margin sentinels are finite, and every operation keeps
		// margins and wear finite: a NaN or infinite value is no cell
		// state (and a NaN margin would read as a deferral tag).
		if math.IsNaN(float64(m)) || math.IsInf(float64(m), 0) {
			return nil, fmt.Errorf("nor: non-finite margin %v in serialized cell %d", m, idx)
		}
		if w < 0 {
			return nil, fmt.Errorf("nor: negative wear %v in serialized cell %d", w, idx)
		}
		if math.IsNaN(w) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("nor: non-finite wear %v in serialized cell %d", w, idx)
		}
		a.margin[idx] = m
		a.wear[idx] = w
	}
	return a, nil
}
