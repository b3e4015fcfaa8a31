package model

import (
	"testing"
	"unsafe"
)

func TestAlignedVec(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		v := AlignedVec(n)
		if len(v) != n {
			t.Fatalf("AlignedVec(%d) has len %d", n, len(v))
		}
		if n == 0 {
			continue
		}
		if addr := uintptr(unsafe.Pointer(&v[0])); addr%cacheLine != 0 {
			t.Errorf("AlignedVec(%d) starts at %#x, not 64-byte aligned", n, addr)
		}
		if cap(v) != n {
			t.Errorf("AlignedVec(%d) cap %d leaks slack past the logical vector", n, cap(v))
		}
	}
}
