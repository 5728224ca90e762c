// Package netcdf implements the NetCDF classic binary format (CDF-1, and
// CDF-2's 64-bit offsets) from scratch: a header parser, hyperslab reads,
// and a writer, sufficient to serve as the AQL system's data driver for
// "legacy" scientific data (section 4.1 of the paper, "I/O and the NetCDF
// Interface").
//
// The format implemented here follows the classic file format specification
// (Rew, Davis & Emmerson, NetCDF User's Guide):
//
//	file    := magic numrecs dim_list gatt_list var_list data
//	magic   := 'C' 'D' 'F' version          (version 1 or 2)
//	lists   := tag count entries | ABSENT   (ABSENT = two zero words)
//	dim     := name length                  (length 0 marks the record dim)
//	attr    := name nc_type nelems values   (values padded to 4 bytes)
//	var     := name ndims dimids vatt_list nc_type vsize begin
//
// Fixed-size variable data lives at each variable's begin offset in row-major
// order; record variables are interleaved per record. All values are
// big-endian; names and values are padded to 4-byte boundaries.
//
// The package keeps no I/O counters of its own. A range read counts its slab
// read and bytes, and a RetryingReaderAt its faults and retries, in the
// trace.Collector that the read's context carries; a read without one (header
// parsing, Slab, ReadSlab, ReadAll) counts nowhere.
package netcdf

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
)

// Type is a NetCDF external data type.
type Type int32

// The six classic external types.
const (
	Byte   Type = 1 // NC_BYTE: 8-bit signed
	Char   Type = 2 // NC_CHAR: 8-bit character
	Short  Type = 3 // NC_SHORT: 16-bit signed
	Int    Type = 4 // NC_INT: 32-bit signed
	Float  Type = 5 // NC_FLOAT: 32-bit IEEE
	Double Type = 6 // NC_DOUBLE: 64-bit IEEE
)

// Size returns the external size of the type in bytes.
func (t Type) Size() int {
	switch t {
	case Byte, Char:
		return 1
	case Short:
		return 2
	case Int, Float:
		return 4
	case Double:
		return 8
	}
	return 0
}

// String returns the CDL name of the type.
func (t Type) String() string {
	switch t {
	case Byte:
		return "byte"
	case Char:
		return "char"
	case Short:
		return "short"
	case Int:
		return "int"
	case Float:
		return "float"
	case Double:
		return "double"
	}
	return fmt.Sprintf("type(%d)", int32(t))
}

// list tags in the header.
const (
	tagDimension = 0x0A
	tagVariable  = 0x0B
	tagAttribute = 0x0C
)

// Dim is a named dimension. Len == 0 marks the record (unlimited)
// dimension; its effective length is File.NumRecs.
type Dim struct {
	Name string
	Len  int
}

// Attr is a (name, typed values) attribute. Values holds []int8, []int16,
// []int32, []float32, []float64 or, for Char, a string.
type Attr struct {
	Name   string
	Type   Type
	Values any
}

// Var is a variable: a typed multidimensional array over dimensions.
type Var struct {
	Name  string
	Type  Type
	Dims  []int // indices into File.Dims, outermost first
	Attrs []Attr

	vsize int64 // per the spec: external size, padded (per record if record var)
	begin int64 // byte offset of the variable's data
}

// File is a parsed NetCDF file.
type File struct {
	Version    int // 1 (classic) or 2 (64-bit offset)
	NumRecs    int
	Dims       []Dim
	GlobalAttr []Attr
	Vars       []Var

	r       io.ReaderAt
	closer  io.Closer
	recSize int64 // bytes per record across all record variables
	recDim  int   // index of the record dimension, -1 if none
	fsize   int64 // total size of the data source, -1 if unknown
}

// Open opens and parses a NetCDF file on disk.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("netcdf: %w", err)
	}
	nc, err := Read(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	nc.closer = f
	return nc, nil
}

// Read parses a NetCDF header from r. Variable data is read lazily through
// r on each slab request.
//
// When the total size of r is discoverable (os.File, bytes.Reader,
// io.SectionReader, the reader wrappers of this package, or anything
// implementing Size() int64 or Stat()), every header-declared count,
// offset and record count is validated against it before any allocation,
// so a truncated or corrupt file is rejected with a descriptive error
// rather than a panic or a multi-gigabyte allocation.
func Read(r io.ReaderAt) (*File, error) {
	p := &headerParser{r: r, size: readerSize(r)}
	return p.parse()
}

// readerSize reports the total byte size of r, or -1 if undiscoverable.
func readerSize(r io.ReaderAt) int64 {
	switch v := r.(type) {
	case interface{ Size() int64 }:
		return v.Size()
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil {
			return fi.Size()
		}
	}
	return -1
}

// Close releases the underlying file, if Open created it.
func (f *File) Close() error {
	if f.closer != nil {
		return f.closer.Close()
	}
	return nil
}

// Var returns the named variable.
func (f *File) Var(name string) (*Var, error) {
	for i := range f.Vars {
		if f.Vars[i].Name == name {
			return &f.Vars[i], nil
		}
	}
	return nil, fmt.Errorf("netcdf: no variable %q", name)
}

// Shape returns the lengths of the variable's dimensions, with the record
// dimension resolved to the current record count.
func (f *File) Shape(v *Var) []int {
	shape := make([]int, len(v.Dims))
	for i, d := range v.Dims {
		if d == f.recDim {
			shape[i] = f.NumRecs
		} else {
			shape[i] = f.Dims[d].Len
		}
	}
	return shape
}

// isRecord reports whether v uses the record dimension (necessarily first).
func (f *File) isRecord(v *Var) bool {
	return len(v.Dims) > 0 && v.Dims[0] == f.recDim && f.recDim >= 0
}

// --- header parsing -------------------------------------------------------

type headerParser struct {
	r    io.ReaderAt
	off  int64
	size int64 // total data-source size, -1 if unknown
}

func (p *headerParser) errf(format string, args ...any) error {
	return fmt.Errorf("netcdf: offset %d: %s", p.off, fmt.Sprintf(format, args...))
}

func (p *headerParser) bytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, p.errf("negative read length %d", n)
	}
	// Validate against the file size BEFORE allocating: a corrupt header
	// can declare a count whose value block would be gigabytes; without
	// this check the allocation happens before the read fails at EOF.
	if p.size >= 0 && p.off+int64(n) > p.size {
		return nil, p.errf("truncated file: need %d bytes, only %d remain", n, p.size-p.off)
	}
	buf := make([]byte, n)
	if _, err := p.r.ReadAt(buf, p.off); err != nil {
		return nil, p.errf("read %d bytes: %v", n, err)
	}
	p.off += int64(n)
	return buf, nil
}

func (p *headerParser) u32() (uint32, error) {
	b, err := p.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (p *headerParser) i32() (int32, error) {
	u, err := p.u32()
	return int32(u), err
}

func (p *headerParser) i64() (int64, error) {
	b, err := p.bytes(8)
	if err != nil {
		return 0, err
	}
	return int64(binary.BigEndian.Uint64(b)), nil
}

// name reads a length-prefixed, 4-byte-padded name.
func (p *headerParser) name() (string, error) {
	n, err := p.i32()
	if err != nil {
		return "", err
	}
	if n < 0 || n > 1<<20 {
		return "", p.errf("implausible name length %d", n)
	}
	b, err := p.bytes(int(pad4(int64(n))))
	if err != nil {
		return "", err
	}
	return string(b[:n]), nil
}

func pad4(n int64) int64 {
	if r := n % 4; r != 0 {
		return n + 4 - r
	}
	return n
}

func (p *headerParser) parse() (*File, error) {
	magic, err := p.bytes(4)
	if err != nil {
		return nil, err
	}
	if magic[0] != 'C' || magic[1] != 'D' || magic[2] != 'F' {
		return nil, p.errf("not a NetCDF classic file (magic %q)", magic[:3])
	}
	version := int(magic[3])
	if version != 1 && version != 2 {
		return nil, p.errf("unsupported NetCDF version %d (only classic and 64-bit offset)", version)
	}
	numRecsU, err := p.u32()
	if err != nil {
		return nil, err
	}
	numRecs := int(int32(numRecsU))
	if numRecsU == 0xFFFFFFFF {
		// STREAMING sentinel; record count must be derived from file size.
		numRecs = -1
	}
	f := &File{Version: version, NumRecs: numRecs, recDim: -1, r: p.r, fsize: p.size}

	// dim_list
	dims, err := p.list(tagDimension)
	if err != nil {
		return nil, err
	}
	for i := 0; i < dims; i++ {
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		length, err := p.i32()
		if err != nil {
			return nil, err
		}
		if length < 0 {
			return nil, p.errf("negative dimension length %d", length)
		}
		if length == 0 {
			if f.recDim >= 0 {
				return nil, p.errf("multiple record dimensions")
			}
			f.recDim = i
		}
		f.Dims = append(f.Dims, Dim{Name: name, Len: int(length)})
	}

	// gatt_list
	gatts, err := p.attrs()
	if err != nil {
		return nil, err
	}
	f.GlobalAttr = gatts

	// var_list
	nvars, err := p.list(tagVariable)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nvars; i++ {
		v, err := p.variable(f)
		if err != nil {
			return nil, err
		}
		f.Vars = append(f.Vars, v)
	}

	// Record size: the sum of record variables' vsizes (with the
	// single-record-variable special case where vsize may be unpadded).
	for i := range f.Vars {
		if f.isRecord(&f.Vars[i]) {
			f.recSize += f.Vars[i].vsize
		}
	}
	if numRecs == -1 {
		return nil, p.errf("streaming record counts are not supported")
	}
	// The record data must physically fit in the file; division avoids
	// overflow for absurd header values. This rejects the corrupt-numrecs
	// OOM class: shapes derived from NumRecs size later allocations.
	if p.size >= 0 && f.recSize > 0 && int64(numRecs) > p.size/f.recSize {
		return nil, p.errf("record count %d needs %d bytes per record but file has only %d bytes",
			numRecs, f.recSize, p.size)
	}
	return f, nil
}

// list reads a list header (tag + count), allowing the ABSENT form.
func (p *headerParser) list(wantTag int32) (int, error) {
	tag, err := p.i32()
	if err != nil {
		return 0, err
	}
	count, err := p.i32()
	if err != nil {
		return 0, err
	}
	if tag == 0 && count == 0 {
		return 0, nil // ABSENT
	}
	if tag != wantTag {
		return 0, p.errf("expected list tag %#x, got %#x", wantTag, tag)
	}
	if count < 0 || count > 1<<20 {
		return 0, p.errf("implausible list count %d", count)
	}
	// Every list entry (dimension, attribute, variable) occupies at least 8
	// bytes in the header, so a count the file cannot physically hold is
	// rejected before any per-entry allocation.
	if p.size >= 0 && int64(count)*8 > p.size {
		return 0, p.errf("list count %d exceeds file size %d", count, p.size)
	}
	return int(count), nil
}

func (p *headerParser) attrs() ([]Attr, error) {
	n, err := p.list(tagAttribute)
	if err != nil {
		return nil, err
	}
	var attrs []Attr
	for i := 0; i < n; i++ {
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		typI, err := p.i32()
		if err != nil {
			return nil, err
		}
		typ := Type(typI)
		if typ.Size() == 0 {
			return nil, p.errf("attribute %q: bad type %d", name, typI)
		}
		count, err := p.i32()
		if err != nil {
			return nil, err
		}
		if count < 0 || count > 1<<24 {
			return nil, p.errf("attribute %q: implausible count %d", name, count)
		}
		if p.size >= 0 && int64(count)*int64(typ.Size()) > p.size {
			return nil, p.errf("attribute %q: %d values of %s exceed file size %d",
				name, count, typ, p.size)
		}
		raw, err := p.bytes(int(pad4(int64(count) * int64(typ.Size()))))
		if err != nil {
			return nil, err
		}
		vals, err := decodeValues(typ, raw, int(count))
		if err != nil {
			return nil, p.errf("attribute %q: %v", name, err)
		}
		attrs = append(attrs, Attr{Name: name, Type: typ, Values: vals})
	}
	return attrs, nil
}

func (p *headerParser) variable(f *File) (Var, error) {
	name, err := p.name()
	if err != nil {
		return Var{}, err
	}
	ndims, err := p.i32()
	if err != nil {
		return Var{}, err
	}
	if ndims < 0 || int(ndims) > len(f.Dims) {
		return Var{}, p.errf("variable %q: bad rank %d", name, ndims)
	}
	dims := make([]int, ndims)
	for j := range dims {
		d, err := p.i32()
		if err != nil {
			return Var{}, err
		}
		if d < 0 || int(d) >= len(f.Dims) {
			return Var{}, p.errf("variable %q: bad dimension id %d", name, d)
		}
		dims[j] = int(d)
		if int(d) == f.recDim && j != 0 {
			return Var{}, p.errf("variable %q: record dimension must be outermost", name)
		}
	}
	attrs, err := p.attrs()
	if err != nil {
		return Var{}, err
	}
	typI, err := p.i32()
	if err != nil {
		return Var{}, err
	}
	typ := Type(typI)
	if typ.Size() == 0 {
		return Var{}, p.errf("variable %q: bad type %d", name, typI)
	}
	vsize, err := p.i32()
	if err != nil {
		return Var{}, err
	}
	var begin int64
	if f.Version == 1 {
		b, err := p.i32()
		if err != nil {
			return Var{}, err
		}
		begin = int64(b)
	} else {
		begin, err = p.i64()
		if err != nil {
			return Var{}, err
		}
	}
	if begin < 0 || (p.size >= 0 && begin > p.size) {
		return Var{}, p.errf("variable %q: data offset %d beyond file size %d", name, begin, p.size)
	}
	vs := int64(uint32(vsize))
	if p.size >= 0 && vs > p.size {
		return Var{}, p.errf("variable %q: vsize %d exceeds file size %d", name, vs, p.size)
	}
	return Var{Name: name, Type: typ, Dims: dims, Attrs: attrs,
		vsize: vs, begin: begin}, nil
}

// decodeValues converts big-endian external data into a Go slice (or string
// for Char).
func decodeValues(typ Type, raw []byte, count int) (any, error) {
	if count*typ.Size() > len(raw) {
		return nil, fmt.Errorf("short value block: %d values of %s in %d bytes", count, typ, len(raw))
	}
	switch typ {
	case Char:
		return string(raw[:count]), nil
	case Byte:
		out := make([]int8, count)
		for i := range out {
			out[i] = int8(raw[i])
		}
		return out, nil
	case Short:
		out := make([]int16, count)
		for i := range out {
			out[i] = int16(binary.BigEndian.Uint16(raw[2*i:]))
		}
		return out, nil
	case Int:
		out := make([]int32, count)
		for i := range out {
			out[i] = int32(binary.BigEndian.Uint32(raw[4*i:]))
		}
		return out, nil
	case Float:
		out := make([]float32, count)
		for i := range out {
			out[i] = math.Float32frombits(binary.BigEndian.Uint32(raw[4*i:]))
		}
		return out, nil
	case Double:
		out := make([]float64, count)
		for i := range out {
			out[i] = math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:]))
		}
		return out, nil
	}
	return nil, fmt.Errorf("bad type %d", typ)
}
