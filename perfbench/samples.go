package main

// A measuring phase records one stepSample per step. Kept in a growing Go
// slice, the samples would raise the live heap as a run goes on, and with
// it the garbage collector's heap target: a workload whose own live heap
// is small (short's is under 1 MB) then collects less and less often and
// its qps climbs through the run, by a fifth over 30 s. The samples are
// therefore kept in anonymous memory mappings, which the collector neither
// scans nor counts, so the engine's collections are paced as they would
// be without the benchmark.

import (
	"fmt"
	"syscall"
	"unsafe"
)

// firstSamples is the capacity of a sample list's first mapping.
const firstSamples = 1 << 16

// appendSample appends x to a sample list made by appendSample, moving the
// list to a mapping twice the size when it is full. A nil list starts one.
// If no memory can be mapped, it returns s unchanged and the error.
func appendSample(s []stepSample, x stepSample) ([]stepSample, error) {
	if len(s) == cap(s) {
		grown, err := mapSamples(max(2*cap(s), firstSamples))
		if err != nil {
			return s, err
		}
		grown = grown[:len(s)]
		copy(grown, s)
		freeSamples(s)
		s = grown
	}
	return append(s, x), nil
}

// mapSamples returns an empty sample list of capacity n outside the Go
// heap.
func mapSamples(n int) ([]stepSample, error) {
	size := n * int(unsafe.Sizeof(stepSample{}))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping %d bytes for samples: %w", size, err)
	}
	return unsafe.Slice((*stepSample)(unsafe.Pointer(unsafe.SliceData(mem))), n)[:0], nil
}

// freeSamples unmaps a sample list made by appendSample. It must not be
// used afterwards. Unmapping a whole mapping fails only if s was not made
// by appendSample.
func freeSamples(s []stepSample) {
	if cap(s) == 0 {
		return
	}
	mem := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s[:cap(s)]))), cap(s)*int(unsafe.Sizeof(stepSample{})))
	if err := syscall.Munmap(mem); err != nil {
		panic(fmt.Sprintf("perfbench: unmapping samples: %v", err))
	}
}
