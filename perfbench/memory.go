package main

import (
	"runtime/metrics"
	"time"
)

// liveHeapMetric is the heap the latest garbage collection marked live.
// Its peak over a run is the benchmark's memory figure: MemStats.HeapSys
// grows in coarse steps whose timing depends on the collector's pacing, and
// read 11.9 or 16.1 MB on otherwise alike serve-mixed runs.
const liveHeapMetric = "/gc/heap/live:bytes"

// heapSampleEvery is how often the live heap is read; collections on these
// workloads are tens of milliseconds apart.
const heapSampleEvery = 5 * time.Millisecond

// heapPeak samples the live heap on its own goroutine until end is called.
type heapPeak struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		s := []metrics.Sample{{Name: liveHeapMetric}}
		var peak uint64
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 {
				peak = max(peak, s[0].Value.Uint64())
			}
			select {
			case <-h.stop:
				h.peak <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapPeak) end() uint64 {
	close(h.stop)
	return <-h.peak
}
