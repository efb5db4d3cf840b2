//go:build !amd64

package main

// cpuModel has no portable source outside amd64's CPUID; the host block
// then carries GOARCH alone.
func cpuModel() (model string, simd []string) { return "", nil }
