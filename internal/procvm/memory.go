package procvm

import (
	"encoding/binary"
	"fmt"
)

// Perm is a bitset of region permissions.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// String renders the permissions rwx-style.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Lazy backing: regions larger than the chunk size hold a sparse
// chunk table instead of one eager allocation, and a chunk
// materializes only when first written. A fleet of processes maps
// megabytes of text and stack per process, but the exploit path
// touches a few hundred bytes of stack and the text bytes are never
// written at all — eager backing made address spaces the dominant
// memory cost of large-fleet runs.
const (
	lazyChunkShift = 16 // 64 KiB chunks
	lazyChunkSize  = 1 << lazyChunkShift
)

// zeroChunk is the read source for unmaterialized chunks.
var zeroChunk [lazyChunkSize]byte

// Region is one contiguous mapping in an address space.
type Region struct {
	Name   string
	Base   uint64
	Size   uint64
	Perm   Perm
	data   []byte   // eager backing (regions <= one chunk)
	chunks [][]byte // sparse backing (larger regions); nil entry = all zeros
}

// Contains reports whether addr falls inside the region.
func (r *Region) Contains(addr uint64) bool {
	return addr >= r.Base && addr < r.Base+r.Size
}

// End reports the first address past the region.
func (r *Region) End() uint64 { return r.Base + r.Size }

// AddressSpace is a set of non-overlapping regions.
type AddressSpace struct {
	regions []*Region
}

// Map adds a region. Overlapping an existing region is a programming
// error and panics.
func (as *AddressSpace) Map(name string, base, size uint64, perm Perm) *Region {
	for _, r := range as.regions {
		if base < r.End() && r.Base < base+size {
			panic(fmt.Sprintf("procvm: mapping %q overlaps %q", name, r.Name))
		}
	}
	reg := &Region{Name: name, Base: base, Size: size, Perm: perm}
	if size > lazyChunkSize {
		reg.chunks = make([][]byte, (size+lazyChunkSize-1)>>lazyChunkShift)
	} else {
		reg.data = make([]byte, size)
	}
	as.regions = append(as.regions, reg)
	return reg
}

// chunkLen reports the byte length of chunk ci (the last chunk of a
// region may be short).
func (r *Region) chunkLen(ci uint64) uint64 {
	start := ci << lazyChunkShift
	if rem := r.Size - start; rem < lazyChunkSize {
		return rem
	}
	return lazyChunkSize
}

// writeAt copies b into the region starting at off, materializing
// lazy chunks as it goes, and reports how many bytes fit.
func (r *Region) writeAt(off uint64, b []byte) int {
	if r.data != nil {
		return copy(r.data[off:], b)
	}
	total := 0
	for len(b) > 0 && off < r.Size {
		ci := off >> lazyChunkShift
		co := off & (lazyChunkSize - 1)
		if r.chunks[ci] == nil {
			r.chunks[ci] = make([]byte, r.chunkLen(ci))
		}
		n := copy(r.chunks[ci][co:], b)
		total += n
		b = b[n:]
		off += uint64(n)
	}
	return total
}

// appendRead appends n bytes starting at off to dst; unmaterialized
// chunks read as zeros.
func (r *Region) appendRead(dst []byte, off uint64, n int) []byte {
	if r.data != nil {
		return append(dst, r.data[off:off+uint64(n)]...)
	}
	for n > 0 {
		ci := off >> lazyChunkShift
		co := off & (lazyChunkSize - 1)
		avail := r.chunkLen(ci) - co
		take := uint64(n)
		if take > avail {
			take = avail
		}
		src := zeroChunk[:lazyChunkSize]
		if c := r.chunks[ci]; c != nil {
			src = c
		}
		dst = append(dst, src[co:co+take]...)
		n -= int(take)
		off += take
	}
	return dst
}

// RegionAt returns the region containing addr, or nil.
func (as *AddressSpace) RegionAt(addr uint64) *Region {
	for _, r := range as.regions {
		if r.Contains(addr) {
			return r
		}
	}
	return nil
}

// Regions returns the mappings in map order (a copy).
func (as *AddressSpace) Regions() []*Region {
	out := make([]*Region, len(as.regions))
	copy(out, as.regions)
	return out
}

// Write copies b into memory at addr, enforcing write permission and
// region bounds. This is the primitive the vulnerable memcpy uses, so
// its semantics define what an overflow can and cannot reach.
func (as *AddressSpace) Write(addr uint64, b []byte) *Fault {
	for len(b) > 0 {
		r := as.RegionAt(addr)
		if r == nil {
			return &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		if r.Perm&PermWrite == 0 {
			return &Fault{Kind: FaultPerm, Addr: addr}
		}
		off := addr - r.Base
		n := r.writeAt(off, b)
		b = b[n:]
		addr += uint64(n)
	}
	return nil
}

// Read copies n bytes starting at addr, enforcing read permission.
func (as *AddressSpace) Read(addr uint64, n int) ([]byte, *Fault) {
	out := make([]byte, 0, n)
	for n > 0 {
		r := as.RegionAt(addr)
		if r == nil {
			return nil, &Fault{Kind: FaultUnmapped, Addr: addr}
		}
		if r.Perm&PermRead == 0 {
			return nil, &Fault{Kind: FaultPerm, Addr: addr}
		}
		off := addr - r.Base
		avail := int(r.Size - off)
		take := n
		if take > avail {
			take = avail
		}
		out = r.appendRead(out, off, take)
		n -= take
		addr += uint64(take)
	}
	return out, nil
}

// ReadU64 reads a little-endian 64-bit word.
func (as *AddressSpace) ReadU64(addr uint64) (uint64, *Fault) {
	b, f := as.Read(addr, 8)
	if f != nil {
		return 0, f
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 writes a little-endian 64-bit word.
func (as *AddressSpace) WriteU64(addr, v uint64) *Fault {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return as.Write(addr, b[:])
}

// ReadCString reads a NUL-terminated string of at most max bytes.
func (as *AddressSpace) ReadCString(addr uint64, max int) (string, *Fault) {
	var out []byte
	for i := 0; i < max; i++ {
		b, f := as.Read(addr+uint64(i), 1)
		if f != nil {
			return "", f
		}
		if b[0] == 0 {
			return string(out), nil
		}
		out = append(out, b[0])
	}
	return string(out), nil
}
