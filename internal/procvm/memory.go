package procvm

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
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

// Sparse backing: a region holds only the 4 KiB pages that have been
// written, sorted by page index, and every other byte reads as zero. A
// fleet of processes maps megabytes of text and stack per process, but
// the exploit path touches a few hundred bytes of stack and the text
// bytes are never written at all — eager backing made address spaces
// the dominant memory cost of large-fleet runs.
const (
	pageShift = 12 // 4 KiB pages
	pageSize  = 1 << pageShift
)

// zeroPage is the read source for unwritten pages.
var zeroPage [pageSize]byte

// page is one written page of a region.
type page struct {
	idx  uint64 // page index within the region
	data []byte // pageLen(idx) bytes
}

// Region is one contiguous mapping in an address space.
type Region struct {
	Name  string
	Base  uint64
	Size  uint64
	Perm  Perm
	pages []page // written pages, sorted by idx
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
	as.regions = append(as.regions, reg)
	return reg
}

// pageLen reports the byte length of page pi (the last page of a
// region may be short).
func (r *Region) pageLen(pi uint64) uint64 {
	return min(pageSize, r.Size-(pi<<pageShift))
}

// findPage binary-searches the written pages for page pi, reporting
// its position, or the position it would be inserted at.
func (r *Region) findPage(pi uint64) (int, bool) {
	return slices.BinarySearchFunc(r.pages, pi, func(p page, pi uint64) int {
		return cmp.Compare(p.idx, pi)
	})
}

// writeAt copies b into the region starting at off, materializing
// pages as it goes, and reports how many bytes fit.
func (r *Region) writeAt(off uint64, b []byte) int {
	total := 0
	for len(b) > 0 && off < r.Size {
		pi := off >> pageShift
		i, ok := r.findPage(pi)
		if !ok {
			r.pages = slices.Insert(r.pages, i, page{idx: pi, data: make([]byte, r.pageLen(pi))})
		}
		n := copy(r.pages[i].data[off&(pageSize-1):], b)
		total += n
		b = b[n:]
		off += uint64(n)
	}
	return total
}

// appendRead appends n bytes starting at off to dst; unwritten pages
// read as zeros.
func (r *Region) appendRead(dst []byte, off uint64, n int) []byte {
	for n > 0 {
		pi := off >> pageShift
		po := off & (pageSize - 1)
		take := min(uint64(n), r.pageLen(pi)-po)
		src := zeroPage[:]
		if i, ok := r.findPage(pi); ok {
			src = r.pages[i].data
		}
		dst = append(dst, src[po:po+take]...)
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
