package main

// fleet-cold: the evaluation grid through a coordinator and in-process
// workers over loopback TCP, every cell evaluated on a worker. The
// workers' result caches hold one entry, so a grid is not answered from
// the previous grid's results. A fleet that evaluates is the common
// case: three plain `experiments -quick -dist-workers 2` runs answered
// 24 to 27 of their 182 grid cells from cache (13-15 %). Cold, the
// cost-ordered queue, batching and the workers' evaluation all run.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"time"

	"trafficreshape/internal/dist"
	"trafficreshape/internal/experiments"
	"trafficreshape/internal/ml"
	"trafficreshape/internal/trace"
)

// wireCounters count traffic through the fleet's connections. The
// coordinator's side defines direction: out is coordinator to workers.
type wireCounters struct {
	bytesOut, bytesIn atomic.Int64
	writes, reads     atomic.Int64
	writeNs           atomic.Int64
}

type wireSnap struct{ bytesOut, bytesIn, writes, reads, writeNs float64 }

func (w *wireCounters) snap() wireSnap {
	return wireSnap{float64(w.bytesOut.Load()), float64(w.bytesIn.Load()),
		float64(w.writes.Load()), float64(w.reads.Load()), float64(w.writeNs.Load())}
}

// wrap returns a NetOptions.Wrap counting every Read and Write on a
// connection; coord marks the coordinator's end, whose bytes are
// counted.
func (w *wireCounters) wrap(coord bool) func(net.Conn) net.Conn {
	return func(c net.Conn) net.Conn { return &countConn{Conn: c, w: w, coord: coord} }
}

type countConn struct {
	net.Conn
	w     *wireCounters
	coord bool
}

func (c *countConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.w.writeNs.Add(int64(time.Since(t0)))
	c.w.writes.Add(1)
	if c.coord {
		c.w.bytesOut.Add(int64(n))
	}
	return n, err
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.w.reads.Add(1)
		if c.coord {
			c.w.bytesIn.Add(int64(n))
		}
	}
	return n, err
}

// fleet is a coordinator plus its in-process workers.
type fleet struct {
	co   *dist.Coordinator
	eng  *experiments.Engine // the driving engine with the fleet as backend
	done []chan error
}

// fleetWorkers is the worker count: two, as a small fleet, but never
// more connections than CPUs.
func fleetWorkers(nproc int) int {
	if nproc < 2 {
		return 1
	}
	return 2
}

// startFleet starts a coordinator on loopback and its workers on
// default slots, dataset caches and trace stores, with a one-entry
// result cache, and waits for them to join. wire, when set, counts both
// ends' traffic.
func startFleet(eng *experiments.Engine, workers int, wire *wireCounters) (*fleet, error) {
	opt := dist.CoordinatorOptions{Pool: eng.Pool()}
	wopt := dist.WorkerOptions{Caches: dist.CacheOptions{Results: 1}}
	if wire != nil {
		opt.Net.Wrap = wire.wrap(true)
		wopt.Net.Wrap = wire.wrap(false)
	}
	co, err := dist.NewCoordinator("", opt)
	if err != nil {
		return nil, err
	}
	f := &fleet{co: co, eng: eng.WithBackend(co)}
	for i := 0; i < workers; i++ {
		ch := make(chan error, 1)
		go func() { ch <- dist.Serve(co.Addr(), wopt) }()
		f.done = append(f.done, ch)
	}
	if err := co.WaitWorkers(workers, 30*time.Second); err != nil {
		return nil, errors.Join(err, f.close())
	}
	return f, nil
}

// close shuts the coordinator down and waits for every worker to end.
func (f *fleet) close() error {
	err := f.co.Close()
	for _, ch := range f.done {
		if e := <-ch; e != nil && err == nil {
			err = e
		}
	}
	return err
}

// startWarmFleet starts a fleet and sends it one grid, so every worker
// has built the dataset before anything is measured.
func startWarmFleet(eng *experiments.Engine, workers int, wire *wireCounters, ds *experiments.Dataset, schemes []experiments.Scheme) (*fleet, error) {
	f, err := startFleet(eng, workers, wire)
	if err != nil {
		return nil, err
	}
	f.eng.EvalSchemes(ds, schemes)
	return f, nil
}

func fleetCold(r *run) error {
	eng := experiments.NewEngine(r.nproc)
	workers := fleetWorkers(r.nproc)
	var ds *experiments.Dataset
	var schemes []experiments.Scheme
	var f *fleet
	if err := r.setup(func(int) error {
		if f != nil {
			if err := f.close(); err != nil {
				return err
			}
			f = nil
		}
		var err error
		if ds, schemes, err = gridSetup(r, eng); err != nil {
			return err
		}
		f, err = startWarmFleet(eng, workers, nil, ds, schemes)
		return err
	}); err != nil {
		if f != nil {
			_ = f.close() // the set-up error is the one worth reporting
		}
		return err
	}
	cells := len(schemes) * trace.NumApps
	var ref []*ml.Confusion
	var wire *wireCounters
	op := func(i int, traced bool) (float64, func()) {
		var got []*ml.Confusion
		var w0 wireSnap
		var s0 dist.StatsSnapshot
		if traced {
			w0, s0 = wire.snap(), f.co.Stats()
		}
		call := func(int) { got = f.eng.EvalSchemes(ds, schemes) }
		if traced {
			r.tr.do("experiments.EvalSchemes", -1, i, call)
			addWire(r, w0, wire.snap())
			addStats(r, s0, f.co.Stats())
		} else {
			call(0)
		}
		return float64(cells), func() {
			if !reflect.DeepEqual(got, ref) {
				r.fail(int64(cells), "grid %d differs from the serial engine's", i)
			}
		}
	}
	// measureFleet runs one phase and counts every cell the fleet did not
	// answer, by falling back to local evaluation or reassigning, as
	// failed.
	measureFleet := func(measure func(opFunc), traced bool) {
		s0 := f.co.Stats()
		measure(func(i int) (float64, func()) { return op(i, traced) })
		s1 := f.co.Stats()
		if fallback := (s1.LocalCells - s0.LocalCells) + (s1.Reassigned - s0.Reassigned); fallback > 0 {
			r.fail(int64(fallback), "%d cells fell back to local evaluation or were reassigned", fallback)
		}
	}
	measureFleet(r.measurePlain, false)
	if err := f.close(); err != nil {
		return err
	}
	ref, err := referenceGrid(r, ds)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	r.runChecks()
	if !r.traced {
		return nil
	}
	// The traced fleet counts its connections' traffic, so it is a
	// fleet of its own, set up and warmed outside any measurement.
	wire = &wireCounters{}
	if f, err = startWarmFleet(eng, workers, wire, ds, schemes); err != nil {
		return err
	}
	measureFleet(r.measureTraced, true)
	for i := range r.tgroups {
		decomposeFleet(r, f, ds, schemes, i)
	}
	if err := f.close(); err != nil {
		return err
	}
	r.runChecks()
	if _, err := replayBuild(r, datasetConfig(r.seed)); err != nil {
		return err
	}
	tot := r.tr.totals()
	buildLayers(r, tot)
	fleetLayers(r, tot)
	return nil
}

// addWire accumulates a wire counter delta.
func addWire(r *run, a, b wireSnap) {
	r.counts["wire.bytes_out"] += b.bytesOut - a.bytesOut
	r.counts["wire.bytes_in"] += b.bytesIn - a.bytesIn
	r.counts["wire.writes"] += b.writes - a.writes
	r.counts["wire.reads"] += b.reads - a.reads
	r.counts["wire.write_ns"] += b.writeNs - a.writeNs
}

// addStats accumulates the coordinator's counter deltas.
func addStats(r *run, a, b dist.StatsSnapshot) {
	r.counts["dist.remote"] += float64(b.RemoteCells - a.RemoteCells)
	r.counts["dist.cache_hits"] += float64(b.RemoteCacheHits - a.RemoteCacheHits)
	r.counts["dist.batches"] += float64(b.BatchesSent - a.BatchesSent)
	r.counts["dist.batched_cells"] += float64(b.BatchedCells - a.BatchedCells)
	r.counts["dist.local_cells"] += float64(b.LocalCells - a.LocalCells)
	r.counts["dist.reassigned"] += float64(b.Reassigned - a.Reassigned)
	r.counts["dist.timed_out"] += float64(b.TimedOut - a.TimedOut)
	r.counts["dist.late_duplicates"] += float64(b.LateDuplicates - a.LateDuplicates)
	if float64(b.MaxQueueDepth) > r.counts["dist.max_queue_depth"] {
		r.counts["dist.max_queue_depth"] = float64(b.MaxQueueDepth)
	}
}

// decomposeFleet times one EvalGrid call on the coordinator, then
// encodes one grid's requests and results into protocol frames and
// decodes them again, each step in its own span.
func decomposeFleet(r *run, f *fleet, ds *experiments.Dataset, schemes []experiments.Scheme, req int) {
	var cells [][]*ml.Confusion
	r.tr.do("dist.EvalGrid", -1, req, func(int) { cells = f.co.EvalGrid(ds, schemes) })

	apps := trace.Apps
	reqs := make([]dist.CellRequest, len(cells))
	results := make([]dist.CellResult, len(cells))
	for i := range cells {
		name, _ := schemes[i/len(apps)].WireName()
		reqs[i] = dist.CellRequest{ID: uint64(i + 1), Cfg: ds.Cfg, Scheme: name, App: apps[i%len(apps)]}
		fams := make([]ml.Confusion, len(cells[i]))
		for k, c := range cells[i] {
			fams[k] = *c
		}
		results[i] = dist.CellResult{ID: uint64(i + 1), Families: fams}
	}
	// Frames carry as many cells as a worker has slots, as dispatch
	// sizes them when every slot is free.
	batch := r.nproc
	var frames bytes.Buffer
	var err error
	r.tr.do("dist.encode", -1, req, func(int) {
		for lo := 0; lo < len(reqs) && err == nil; lo += batch {
			hi := min(lo+batch, len(reqs))
			if err = dist.EncodeCellBatch(&frames, reqs[lo:hi]); err == nil {
				err = dist.EncodeResultBatch(&frames, results[lo:hi])
			}
		}
	})
	if err != nil {
		r.fail(int64(len(cells)), "encoding grid %d: %v", req, err)
		return
	}
	var nreq, nres int
	r.tr.do("dist.decode", -1, req, func(int) {
		rd := bytes.NewReader(frames.Bytes())
		for {
			msg, err := dist.ReadMessage(rd)
			if err != nil {
				if !errors.Is(err, io.EOF) {
					r.fail(int64(len(cells)), "decoding grid %d: %v", req, err)
				}
				return
			}
			nreq += len(msg.Batch)
			nres += len(msg.Results)
		}
	})
	if nreq != len(cells) || nres != len(cells) {
		r.fail(int64(len(cells)), "grid %d: decoded %d requests and %d results, want %d", req, nreq, nres, len(cells))
	}
	r.counts["codec.cells"] += float64(len(cells))
}

// fleetLayers reports the dist layer from spans, wire counters and the
// coordinator's statistics.
func fleetLayers(r *run, tot map[string]*layerTotals) {
	c := r.counts
	cells := c["dist.remote"] + c["dist.local_cells"]
	grids := float64(0)
	if lt := tot["experiments.EvalSchemes"]; lt != nil {
		grids = float64(lt.count)
	}
	r.layer["dist.eval_grid_ms"] = meanSpan(tot, "dist.EvalGrid", time.Millisecond)
	if lt := tot["dist.encode"]; lt != nil {
		r.layer["dist.encode_us_per_cell"] = ratio(float64(lt.cpu)/1e3, c["codec.cells"])
	}
	if lt := tot["dist.decode"]; lt != nil {
		r.layer["dist.decode_us_per_cell"] = ratio(float64(lt.cpu)/1e3, c["codec.cells"])
	}
	r.layer["dist.wire_bytes_out_per_cell"] = ratio(c["wire.bytes_out"], cells)
	r.layer["dist.wire_bytes_in_per_cell"] = ratio(c["wire.bytes_in"], cells)
	r.layer["dist.conn_writes_per_cell"] = ratio(c["wire.writes"], cells)
	r.layer["dist.conn_reads_per_cell"] = ratio(c["wire.reads"], cells)
	r.layer["dist.conn_write_us_per_cell"] = ratio(c["wire.write_ns"]/1e3, cells)
	r.layer["dist.batches_per_grid"] = ratio(c["dist.batches"], grids)
	r.layer["dist.mean_batch_cells"] = ratio(c["dist.batched_cells"], c["dist.batches"])
	r.layer["dist.max_queue_depth"] = c["dist.max_queue_depth"]
	r.layer["dist.cache_hit_ratio"] = ratio(c["dist.cache_hits"], c["dist.remote"])
	for _, k := range []string{"local_cells", "reassigned", "timed_out", "late_duplicates"} {
		r.layer["dist."+k] = c["dist."+k]
	}
}
