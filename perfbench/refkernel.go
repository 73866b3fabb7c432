package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"clustercolor/internal/parwork"
)

// The reference kernel is the benchmark's yardstick for how fast the host
// runs at the moment: fixed work of the same kind as the decomposition's
// sketch waves, scattered reads of a table much larger than a core's L2 cache
// folded with max and shifts, on one goroutine per unit of parallelism. On a
// host whose cores, caches and memory are shared with other guests, the CPU
// time of the same Color call drifts by a quarter over minutes; the kernel's
// CPU time drifts with it, so their ratio holds still. The kernel is the
// benchmark's own code, so no change to the library moves it.
const (
	refTableBytes = 32 << 20
	refGathers    = 2_000_000 // per goroutine
)

type refKernel struct {
	mem   []byte
	table []uint64
	sink  uint64
}

// newRefKernel maps the table outside the Go heap, so it changes neither the
// garbage collector's pacing nor the heap of any measured call, and fills it.
// Its pages stay resident until close, so they add exactly refTableBytes to
// the process's peak RSS.
func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refTableBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map reference table: %w", err)
	}
	k := &refKernel{mem: mem, table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), refTableBytes/8)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.table {
		x = xorshift(x)
		k.table[i] = x
	}
	return k, nil
}

func (k *refKernel) close() error { return syscall.Munmap(k.mem) }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// run does the kernel's fixed work once and returns the CPU time it took.
func (k *refKernel) run() time.Duration {
	p := parwork.Parallelism()
	folds := make([]uint64, p)
	c0 := cpuTime()
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mask := uint64(len(k.table) - 1)
			x, acc := uint64(g+1), uint64(0)
			for i := 0; i < refGathers; i++ {
				x = xorshift(x)
				v := k.table[x&mask]
				acc = max(acc, v^x) + v>>7
			}
			folds[g] = acc
		}(g)
	}
	wg.Wait()
	d := cpuTime() - c0
	for _, f := range folds {
		k.sink ^= f
	}
	return d
}

// sample appends the CPU seconds of refRepeats runs of the kernel to xs.
func (k *refKernel) sample(xs []float64) []float64 {
	for i := 0; i < refRepeats; i++ {
		xs = append(xs, k.run().Seconds())
	}
	return xs
}
