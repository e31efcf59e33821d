package main

import (
	"fmt"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"rrnorm/internal/stats"
)

// Timing on a shared host. Wall-clock time on a virtual machine includes the
// time the hypervisor gives the vCPU to other guests (steal). Steal comes and
// goes: the same pass on the same seed can take 1.5–2× longer a few minutes
// later. The process's CPU time leaves steal out, so the benchmark times
// passes and set-ups in CPU time. What steal leaves behind — a clock speed or
// a cache shared with other guests — still moves CPU time by 5–10%. So every
// run also times a calibration kernel that uses none of rrnorm's code, a
// sort and a float parse loop, and scales CPU times by refCalibCPU ÷ the
// kernel's CPU time. The scaled times read as CPU seconds on the host the
// benchmark was sized on. main.go says which kernel probes go with which
// times. The measured wall and CPU times are printed beside them.

// refCalibCPU is about the kernel's CPU time, in seconds, on the host the
// benchmark was sized on (2 vCPUs, Intel Xeon, go1.24): 0.09–0.11 s there.
const refCalibCPU = 0.1

// timing is an interval's wall-clock and CPU time, in seconds.
type timing struct{ wall, cpu float64 }

// cpuTime is the process's user and system CPU time so far, in seconds,
// summed over its threads. Steal is not charged to it.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// measure runs f and returns its wall-clock and CPU time.
func measure(f func()) timing {
	t0, c0 := time.Now(), cpuTime()
	f()
	return timing{time.Since(t0).Seconds(), cpuTime() - c0}
}

const (
	calibFloats = 1 << 16 // floats sorted per round
	calibSorts  = 6
	calibParse  = 1 << 14 // float strings parsed per round
	calibParses = 16
	// probeReps is how many kernel runs make one probe: one run is short
	// enough that a moment's interference can double it.
	probeReps = 3
)

// calibrator holds the kernel's inputs, built once, untimed. They live
// outside the Go heap, so the collector's pacing during the workload does
// not depend on them.
type calibrator struct {
	floats, scratch []float64
	text            []byte  // the float strings, back to back
	ends            []int32 // end offset of each string in text
}

// offHeap returns n zeroed values of T in anonymous memory outside the Go
// heap; it is never freed.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("perfbench: calibration buffer: %v", err))
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

func newCalibrator() *calibrator {
	rng := stats.NewRNG(7)
	c := &calibrator{floats: offHeap[float64](calibFloats), scratch: offHeap[float64](calibFloats), ends: offHeap[int32](calibParse)}
	for i := range c.floats {
		c.floats[i] = rng.Float64()
	}
	var text []byte
	for i := range c.ends {
		text = strconv.AppendFloat(text, rng.ExpFloat64()*100, 'g', -1, 64)
		c.ends[i] = int32(len(text))
	}
	c.text = offHeap[byte](len(text))
	copy(c.text, text)
	return c
}

// probe returns the median CPU time of probeReps kernel runs, in seconds.
func (c *calibrator) probe() float64 {
	var s stats.Sample
	for i := 0; i < probeReps; i++ {
		s.Add(measure(c.kernel).cpu)
	}
	return s.Quantile(0.5)
}

// calibSink keeps the kernel's results live.
var calibSink float64

func (c *calibrator) kernel() {
	for r := 0; r < calibSorts; r++ {
		copy(c.scratch, c.floats)
		slices.Sort(c.scratch)
	}
	var s float64
	for r := 0; r < calibParses; r++ {
		start := int32(0)
		for _, end := range c.ends {
			v, _ := strconv.ParseFloat(unsafe.String(&c.text[start], end-start), 64)
			s += v
			start = end
		}
	}
	calibSink += s + c.scratch[0]
}
