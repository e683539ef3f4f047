package main

import (
	"math/rand"
	"syscall"
	"unsafe"
)

// The host probe is a fixed reference workload, part of the benchmark and
// never of the program, that the benchmark runs while the program is idle:
// before every set-up and after the window. It exercises what the
// program's operations spend their CPU time on — fresh pages faulted in,
// dependent loads through memory the host's other tenants share, and
// arithmetic — in three parts of roughly equal cost.
//
// On a shared host the CPU time of the same code moves with the other
// tenants' load (by half within minutes on the two-CPU machine the
// benchmark was calibrated on), and the probe's CPU time moves with it.
// The end-to-end timings are therefore reported at the reference host
// speed: the measured CPU time times probeRefMs over the run's median
// probe time. A change to the program does not change the probe.
const (
	probeFaultBytes = 64 << 20 // faulted in and released per probe
	probeRingBytes  = 64 << 20 // the pointer-chase ring, larger than a core's own caches
	probeSteps      = 1 << 18  // dependent loads per probe
	probeMuls       = 24 << 20 // multiply-adds per probe

	// probesAfter is the number of probes after the window; one more
	// runs before each set-up.
	probesAfter = 5

	// probeRefMs is the probe's median CPU time on the calibration host in
	// a quiet period: the reference host speed.
	probeRefMs = 100.0
)

// hostProbe holds the chase ring, outside the Go heap, and the probe
// times of one run.
type hostProbe struct {
	ring []int32
	ms   samples
}

// newHostProbe maps and fills the ring: Sattolo's shuffle, from a fixed
// seed, makes next-pointers that visit every slot in one cycle.
func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeRingBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	ring := unsafe.Slice((*int32)(unsafe.Pointer(&mem[0])), probeRingBytes/4)
	for i := range ring {
		ring[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := len(ring) - 1; i > 0; i-- {
		j := rng.Intn(i)
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &hostProbe{ring: ring}, nil
}

// run times one probe in CPU time of this process, which runs nothing
// else meanwhile.
func (p *hostProbe) run() error {
	c0 := selfCPU()
	mem, err := syscall.Mmap(-1, 0, probeFaultBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < len(mem); i += 4096 {
		mem[i] = 1
	}
	if err := syscall.Munmap(mem); err != nil {
		return err
	}
	j := int32(0)
	for i := 0; i < probeSteps; i++ {
		j = p.ring[j]
	}
	x := uint64(j)
	for i := 0; i < probeMuls; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	probeSink = x
	p.ms = append(p.ms, ms(selfCPU()-c0))
	return nil
}

// probeSink keeps the probe's loops from being optimized away.
var probeSink uint64

// scale is the factor that brings this run's CPU times to the reference
// host speed.
func (p *hostProbe) scale() float64 {
	return probeRefMs / p.ms.median()
}

func (p *hostProbe) close() error {
	return syscall.Munmap(unsafe.Slice((*byte)(unsafe.Pointer(&p.ring[0])), probeRingBytes))
}
