package experiments

import (
	"runtime"
	"testing"
	"unsafe"

	"trafficreshape/internal/trace"
)

// TestWarmCellAllocBytes pins the grid cell's steady state: once a
// scratch has grown to a cell, evaluating the cell again allocates
// fewer bytes than one copy of its test trace, so no partition copies
// the trace into fresh memory. The cell runs on an explicit scratch,
// not the pool, so the garbage collector's timing cannot hand it a
// cold one.
func TestWarmCellAllocBytes(t *testing.T) {
	ds := quickDataset(t)
	var sc cellScratch
	for _, name := range []string{"Original", "RA", "OR", "OR+split", "OR+morph", "OR-I5"} {
		s := mustNamed(ds, name)
		for _, app := range trace.Apps {
			evalCell(&sc, ds, s, app)
			traceBytes := uint64(ds.Test[app].Len()) * uint64(unsafe.Sizeof(trace.Packet{}))
			if got := bytesPerRun(3, func() { evalCell(&sc, ds, s, app) }); got >= traceBytes {
				t.Errorf("%s/%v: a warm cell allocates %d bytes, its test trace is %d", name, app, got, traceBytes)
			}
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap bytes
// one call of f allocates.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}
