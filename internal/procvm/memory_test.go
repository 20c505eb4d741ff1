package procvm

import (
	"bytes"
	"testing"
)

func TestSparsePagesMaterializeOnWrite(t *testing.T) {
	as := &AddressSpace{}
	const base, size = 0x10000, 3*pageSize + 100 // last page is short
	r := as.Map("stack", base, size, PermRead|PermWrite)
	if len(r.pages) != 0 {
		t.Fatalf("fresh region holds %d pages, want 0", len(r.pages))
	}

	// One byte materializes exactly one page.
	if f := as.Write(base+pageSize+5, []byte{0xaa}); f != nil {
		t.Fatal(f)
	}
	if len(r.pages) != 1 || r.pages[0].idx != 1 {
		t.Fatalf("after a 1-byte write: pages %+v, want just page 1", r.pages)
	}

	// A write straddling a page boundary materializes both sides.
	if f := as.Write(base+pageSize-2, []byte{1, 2, 3, 4}); f != nil {
		t.Fatal(f)
	}
	if len(r.pages) != 2 || r.pages[0].idx != 0 || r.pages[1].idx != 1 {
		t.Fatalf("after a straddling write: %d pages, want pages 0 and 1", len(r.pages))
	}

	// A read spanning two written pages and an unwritten one.
	got, f := as.Read(base+pageSize-4, pageSize+8)
	if f != nil {
		t.Fatal(f)
	}
	want := make([]byte, pageSize+8)
	copy(want[2:], []byte{1, 2, 3, 4})
	want[4+5] = 0xaa
	if !bytes.Equal(got, want) {
		t.Fatal("read across written and unwritten pages returned the wrong bytes")
	}
	if b, _ := as.Read(base+2*pageSize, 16); !bytes.Equal(b, make([]byte, 16)) {
		t.Fatal("unwritten page must read as zeros")
	}

	// The short last page truncates at the region end: the bytes that
	// fit land, the rest faults as unmapped.
	end := uint64(base + size)
	f = as.Write(end-3, []byte{7, 8, 9, 10, 11})
	if f == nil || f.Kind != FaultUnmapped || f.Addr != end {
		t.Fatalf("write past the region end: fault = %v", f)
	}
	if last := r.pages[len(r.pages)-1]; last.idx != 3 || len(last.data) != 100 {
		t.Fatalf("last page idx %d len %d, want idx 3 len 100", last.idx, len(last.data))
	}
	if b, f := as.Read(end-3, 3); f != nil || !bytes.Equal(b, []byte{7, 8, 9}) {
		t.Fatalf("tail bytes = %v (fault %v), want [7 8 9]", b, f)
	}
	if _, f := as.Read(end-1, 2); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("read past the region end: fault = %v", f)
	}
}
