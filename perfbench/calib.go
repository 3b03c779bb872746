package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host whose speed for
// the same code moves by up to a factor of two over minutes, in CPU
// time per op as well as in wall time, while a run of a minute sees
// only a part of that drift. Each window of a phase therefore starts
// with a calibration: a fixed, allocation-free kernel of benchmark
// code run on every core at once, timed in the CPU time of its own
// thread, so that it measures how fast the host executes instructions
// and not how the guest's scheduler shares the cores. A window's times
// are scaled by calibRef/calibration (its rates by the inverse), so
// the end-to-end metrics read as on a host that runs the kernel in
// calibRef. The kernel is the benchmark's own code, so a change to the
// program moves the scaled metrics as it moves the raw ones; it
// allocates nothing, so the program's heap and garbage collector do
// not slow it.

// calibRef is the reference host's kernel time, the fixed scale the
// metrics are reported at. On the machine NOTES.md describes, the
// kernel took 27–35 ms per lane in the runs recorded there.
const calibRef = 24 * time.Millisecond

// Sizes of the kernel's parts. The table holds tableKeys keys at half
// load and, like the keys, fits in a core's private caches.
const (
	sortKeys    = 1 << 16
	parallelALU = 1 << 22 // rounds of four independent xorshift chains
	tableSlots  = 1 << 17 // uint64 slots: 1 MiB
	tableKeys   = tableSlots / 2
	probes      = 1 << 19
)

// calibrator holds the kernel's inputs, one lane per core.
type calibrator struct {
	lanes []*calibLane
}

type calibLane struct {
	table []uint64 // open addressing, 0 marks an empty slot
	keys  []uint32 // the unsorted keys
	work  []uint32
	sink  uint64
}

// newCalibrator maps the lanes' inputs outside the Go heap, so that
// they neither count in peak_heap_mb nor give the collector work.
func newCalibrator(cores int) (*calibrator, error) {
	c := &calibrator{}
	for l := 0; l < cores; l++ {
		mem, err := syscall.Mmap(-1, 0, 8*tableSlots+4*2*sortKeys, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping the calibration inputs: %w", err)
		}
		// The mapping is page-aligned, so the table, first, is aligned
		// for uint64.
		keys := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[8*tableSlots])), 2*sortKeys)
		lane := &calibLane{
			table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), tableSlots),
			keys:  keys[:sortKeys],
			work:  keys[sortKeys:],
		}
		rng := rand.New(rand.NewSource(int64(l + 1)))
		for i := range lane.keys {
			lane.keys[i] = rng.Uint32()
		}
		for k := uint64(0); k < tableKeys; k++ {
			key := tableKey(2 * k) // even k only, so that some probes miss
			h := hashSlot(key)
			for lane.table[h%tableSlots] != 0 {
				h++
			}
			lane.table[h%tableSlots] = key
		}
		c.lanes = append(c.lanes, lane)
	}
	return c, nil
}

func tableKey(k uint64) uint64 { return k*0x9E3779B97F4A7C15>>24 | 1 }

func hashSlot(key uint64) uint64 { return key * 0xff51afd7ed558ccd >> 20 }

// speed runs the kernel on every lane at once and returns calibRef
// over the mean lane time: 1 on the reference host, below 1 when the
// host runs slow.
func (c *calibrator) speed() float64 {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		total time.Duration
	)
	for _, l := range c.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := l.run()
			mu.Lock()
			total += d
			mu.Unlock()
		}()
	}
	wg.Wait()
	mean := total / time.Duration(len(c.lanes))
	return float64(calibRef) / float64(mean)
}

// run is the kernel: a sort, four independent chains of integer
// arithmetic, and probes of a hash table. All three keep a core's
// execution units busy rather than wait on one result at a time, as
// the program does; a single dependent chain, or loads from main
// memory, slowed about half as much as the program when the host did.
// It returns the CPU time its thread spent on them.
func (l *calibLane) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()

	copy(l.work, l.keys)
	slices.Sort(l.work)

	a, b, c, d := l.sink|1, l.sink|3, l.sink|5, l.sink|7
	for k := 0; k < parallelALU; k++ {
		a ^= a << 13
		b ^= b << 13
		c ^= c << 13
		d ^= d << 13
		a ^= a >> 7
		b ^= b >> 7
		c ^= c >> 7
		d ^= d >> 7
		a ^= a << 17
		b ^= b << 17
		c ^= c << 17
		d ^= d << 17
	}

	var hits uint64
	for k := uint64(0); k < probes; k++ {
		key := tableKey(k)
		for h := hashSlot(key); ; h++ {
			v := l.table[h%tableSlots]
			if v == key {
				hits++
			}
			if v == key || v == 0 {
				break
			}
		}
	}

	l.sink = uint64(l.work[sortKeys/2]) + a ^ b ^ c ^ d + hits
	return threadCPU() - start
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID, the CPU time of the
// calling thread; a paravirtualised guest leaves the time stolen by
// its host out of it.
const clockThreadCPUTime = 3

func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		fatalf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", errno)
	}
	return time.Duration(ts.Nano())
}
