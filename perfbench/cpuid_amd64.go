package main

import (
	"encoding/binary"
	"strings"
)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// cpuModel reads the processor brand string and the SIMD features that
// matter to the BLAS kernels straight from CPUID, so the host block needs
// no file outside the checkout.
func cpuModel() (model string, simd []string) {
	maxExt, _, _, _ := cpuid(0x80000000, 0)
	if maxExt >= 0x80000004 {
		var b [48]byte
		for i := uint32(0); i < 3; i++ {
			a, bx, c, d := cpuid(0x80000002+i, 0)
			for j, r := range []uint32{a, bx, c, d} {
				binary.LittleEndian.PutUint32(b[16*i+4*uint32(j):], r)
			}
		}
		model = strings.TrimSpace(strings.TrimRight(string(b[:]), "\x00"))
	}
	maxStd, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxStd >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	for _, f := range []struct {
		name string
		on   bool
	}{
		{"sse4.2", ecx1&(1<<20) != 0},
		{"avx", ecx1&(1<<28) != 0},
		{"fma", ecx1&(1<<12) != 0},
		{"avx2", ebx7&(1<<5) != 0},
		{"avx512f", ebx7&(1<<16) != 0},
	} {
		if f.on {
			simd = append(simd, f.name)
		}
	}
	return model, simd
}
