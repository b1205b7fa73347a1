package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
	"distperm/pkg/dpserver"
)

// selfSumTolerance bounds how far the mean client, dpserver and engine self
// times may sum away from the mean client latency, as a share of it.
const selfSumTolerance = 0.02

// perLayer fills in the per-layer metrics of a traced run: spans and marks
// from the server, counters from /v1/stats, the load generator's own
// figures, and a direct single-threaded replay into the sisap kernels.
func (r *run) perLayer(rep *report, pts []metric.Point, src *opSource) error {
	put := func(name, unit string, v float64) { rep.Metrics[name] = metricValue{v, unit} }
	f, err := os.Open(r.traceOut())
	if err != nil {
		return err
	}
	var tf traceFile
	err = json.NewDecoder(f).Decode(&tf)
	f.Close()
	if err != nil {
		return fmt.Errorf("reading the server trace: %w", err)
	}
	if len(tf.Marks) != 2 {
		return fmt.Errorf("server trace has %d marks, want 2", len(tf.Marks))
	}
	on, off := tf.Marks[0], tf.Marks[1]
	if err := r.saveTrace(tf); err != nil {
		return err
	}

	// Spans, indexed: handler spans by ID, engine-side spans by the
	// handler spans they served.
	handlers := map[string]span{}
	children := map[string][]span{}
	var calls, writes []float64
	batch := 0
	for _, s := range tf.Spans {
		switch s.Name {
		case "dpserver.handler":
			handlers[s.ID] = s
		case "engine.call", "mutable.write":
			if s.Name == "engine.call" {
				calls = append(calls, float64(s.End-s.Start)/1e6)
				batch += s.Batch
			} else {
				writes = append(writes, float64(s.End-s.Start)/1e6)
			}
			for _, h := range s.Served {
				children[h] = append(children[h], s)
			}
		}
	}
	put("engine.call_p50_ms", "ms", quantile(calls, 0.50))
	put("engine.call_p99_ms", "ms", quantile(calls, 0.99))
	service := histQuantile(histDelta(on.Latency, off.Latency), 0.5) * 1e3
	put("engine.service_p50_ms", "ms", service)
	put("engine.wait_p50_ms", "ms", quantile(calls, 0.50)-service)
	put("engine.queries_per_call", "count", ratio(float64(batch), float64(len(calls))))
	put("engine.busy_frac", "ratio", ratio(off.Busy-on.Busy, float64(off.Samples-on.Samples)))
	put("mutable.write_p50_ms", "ms", quantile(writes, 0.50))

	// Per query request: the handler, its pre- and post-backend parts, and
	// the self times of client, dpserver and engine by span coverage.
	var hdl, pre, post, bytes, selfC, selfD, selfE, client []float64
	unlinked := 0
	for _, s := range r.d.phase(phaseOpenTraced) {
		if s.op.kind != opQuery || !s.ok {
			continue
		}
		h, ok := handlers[fmt.Sprint("hc", s.seq)]
		if !ok {
			unlinked++
			continue
		}
		c := interval{s.sent.UnixNano(), s.done.UnixNano()}
		hv := interval{h.Start, h.End}
		var evs []interval
		for _, e := range children[h.ID] {
			evs = append(evs, interval{e.Start, e.End})
		}
		eu := union(evs)
		hdl = append(hdl, float64(hv.len())/1e6)
		bytes = append(bytes, float64(h.Bytes))
		if len(eu) > 0 {
			pre = append(pre, float64(eu[0].lo-hv.lo)/1e6)
			post = append(post, float64(hv.hi-eu[len(eu)-1].hi)/1e6)
		}
		client = append(client, float64(c.len())/1e6)
		selfC = append(selfC, float64(c.len()-covered(c, []interval{hv}))/1e6)
		selfD = append(selfD, float64(hv.len()-covered(hv, eu))/1e6)
		selfE = append(selfE, float64(total(eu))/1e6)
	}
	put("dpserver.handler_p50_ms", "ms", quantile(hdl, 0.50))
	put("dpserver.handler_p99_ms", "ms", quantile(hdl, 0.99))
	put("dpserver.pre_backend_p50_ms", "ms", quantile(pre, 0.50))
	put("dpserver.post_backend_p50_ms", "ms", quantile(post, 0.50))
	put("dpserver.resp_bytes_per_query", "B", mean(bytes))
	put("client.self_ms", "ms", mean(selfC))
	put("dpserver.self_ms", "ms", mean(selfD))
	put("engine.self_ms", "ms", mean(selfE))
	sumErr := ratio(mean(selfC)+mean(selfD)+mean(selfE)-mean(client), mean(client))
	put("trace.self_sum_err", "ratio", sumErr)
	// A trace whose spans do not link up or nest cannot attribute latency
	// to layers, so it fails the run.
	if unlinked > 0 || len(client) == 0 {
		r.logf("FAILED: %d of %d traced open-loop queries have no handler span", unlinked, unlinked+len(client))
		rep.Correct = false
	}
	if math.Abs(sumErr) > selfSumTolerance {
		r.logf("FAILED: self times sum %.2g%% away from client latency, outside ±%.0f%%", 100*sumErr, 100*selfSumTolerance)
		rep.Correct = false
	}

	// Tracing overhead: the traced phases against the untraced ones.
	put("trace.overhead_p50_ms", "ms", r.roundP50(phaseOpenTraced)-r.roundP50(phaseOpen))
	put("trace.overhead_throughput_frac", "ratio", 1-r.throughput(phaseClosedTraced)/r.throughput(phaseClosed))

	// Counters over the traced phases, from /v1/stats.
	s0, s1 := r.stats[fmt.Sprint("start", phaseClosedTraced)], r.stats[fmt.Sprint("end", phaseOpenTraced)]
	sv0, sv1 := s0.Server, s1.Server
	put("engine.evals_per_query", "count", ratio(float64(s1.Engine.DistanceEvals-s0.Engine.DistanceEvals),
		float64(s1.Engine.Queries-s0.Engine.Queries)))
	put("dpserver.batch_mean", "count", ratio(float64(sv1.CoalescedQueries-sv0.CoalescedQueries),
		float64(sv1.CoalescedBatches-sv0.CoalescedBatches)))
	put("dpserver.cache_hit_ratio", "ratio", ratio(float64(sv1.CacheHits-sv0.CacheHits),
		float64(sv1.CacheHits-sv0.CacheHits+sv1.CacheMisses-sv0.CacheMisses)))
	put("dpserver.cache_invalidations_per_write", "ratio", ratio(float64(sv1.CacheInvalidations-sv0.CacheInvalidations),
		float64(sv1.Inserts-sv0.Inserts+sv1.Deletes-sv0.Deletes)))
	r.mutableLayers(put, s0, s1, on, off)

	// The load generator's own validity figures.
	var lag []float64
	for _, s := range r.d.phase(phaseOpen) {
		lag = append(lag, ms(s.sent.Sub(s.due)))
	}
	put("loadgen.lag_p99_ms", "ms", quantile(lag, 0.99))
	put("loadgen.query_p99_ms", "ms", quantile(latenciesMS(r.d.phase(phaseOpen), opQuery), 0.99))
	put("loadgen.throughput_ops", "1/s", r.throughput(phaseClosed))
	put("loadgen.cpu_s", "s", r.cpu)
	wl := latenciesMS(r.d.phase(phaseOpen), opInsert, opDelete)
	put("loadgen.write_p50_ms", "ms", quantile(wl, 0.50))
	put("loadgen.write_p95_ms", "ms", quantile(wl, 0.95))

	return r.replay(put, pts, src)
}

// saveTrace writes the run's spans, the load generator's client.request
// spans beside the server's, to .bench_build/traces/<workload>-<seed>.json.
func (r *run) saveTrace(tf traceFile) error {
	for _, s := range r.d.phase(-1) {
		if s.phase == phaseClosedTraced || s.phase == phaseOpenTraced {
			tf.Spans = append(tf.Spans, span{ID: fmt.Sprint("c", s.seq), Name: "client.request",
				Start: s.sent.UnixNano(), End: s.done.UnixNano()})
		}
	}
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.w.name, r.seed)))
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(tf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// mutableLayers fills in the mutable and wal metrics (0 on read-only
// workloads): rebuilds over the whole measured run, the rest over the
// traced phases.
func (r *run) mutableLayers(put func(string, string, float64), s0, s1 dpserver.StatsResponse, on, off mark) {
	names := []string{"mutable.rebuilds", "mutable.rebuild_s", "mutable.pending_mean",
		"wal.bytes_per_write", "wal.fsync_p50_ms", "wal.fsyncs_per_s"}
	units := []string{"count", "s", "count", "B", "ms", "1/s"}
	vals := make([]float64, len(names))
	if m0, m1 := r.stats[fmt.Sprint("start", phaseClosed)].Mutation, s1.Mutation; m0 != nil && m1 != nil {
		vals[0] = float64(m1.Rebuilds - m0.Rebuilds)
		vals[1] = ratio(off.RebuildSecs-on.RebuildSecs, float64(off.Rebuilds-on.Rebuilds))
		if off.Rebuilds == on.Rebuilds {
			vals[1] = time.Duration(m1.LastRebuildNanos).Seconds()
		}
		vals[2] = ratio(off.Pending-on.Pending, float64(off.Samples-on.Samples))
	}
	if w0, w1 := s0.WAL, s1.WAL; w0 != nil && w1 != nil && on.WAL != nil && off.WAL != nil {
		vals[3] = ratio(float64(w1.AppendedBytes-w0.AppendedBytes), float64(w1.AppendedRecords-w0.AppendedRecords))
		vals[4] = histQuantile(histDelta(on.WAL.Fsync, off.WAL.Fsync), 0.5) * 1e3
		var traced time.Duration
		for _, d := range append(r.elapsed[phaseClosedTraced], r.elapsed[phaseOpenTraced]...) {
			traced += d
		}
		vals[5] = float64(w1.Syncs-w0.Syncs) / traced.Seconds()
	}
	for i, n := range names {
		put(n, units[i], vals[i])
	}
}

// replayQueries is how many of the workload's queries the direct replay
// sends into each kernel.
const replayQueries = 24

// replay measures the sisap layer directly: single-threaded, the server
// stopped, the workload's first pool queries straight into the kernels over
// the same data, with the LinearScan and VP-tree baselines beside them.
func (r *run) replay(put func(string, string, float64), pts []metric.Point, src *opSource) error {
	qs := make([]metric.Point, replayQueries)
	for i := range qs {
		qs[i] = src.pool[i]
	}
	db := sisap.NewDB(metric.L2{}, pts)
	start := time.Now()
	px, err := buildIndex(db)
	if err != nil {
		return err
	}
	put("sisap.build_s", "s", time.Since(start).Seconds())
	put("sisap.distinct_rows", "count", float64(px.DistinctPermutations()))
	// The mmap open is timed on every workload; where the served index is
	// the mapped one, the replay runs over it.
	frozen := r.frozen
	if frozen == "" {
		frozen = filepath.Join(r.work, "replay.frozen")
		if err := saveFrozen(frozen, px); err != nil {
			return err
		}
	}
	start = time.Now()
	store, err := distperm.Load(frozen, distperm.LoadOptions{Mmap: true})
	if err != nil {
		return err
	}
	put("sisap.open_ms", "ms", ms(time.Since(start)))
	defer store.Close()
	if r.frozen != "" {
		px = store.Index.(*distperm.PermIndex)
	}

	timeEach := func(f func(q metric.Point) int) (p50us float64, evals float64, secs float64) {
		var ts []float64
		n := 0
		for _, q := range qs {
			t := time.Now()
			n += f(q)
			d := time.Since(t)
			ts = append(ts, float64(d)/1e3)
			secs += d.Seconds()
		}
		return quantile(ts, 0.5), float64(n), secs
	}
	p50, evals, secs := timeEach(func(q metric.Point) int { _, st := px.KNN(q, knnK); return st.DistanceEvals })
	put("sisap.knn_p50_us", "us", p50)
	put("metric.ns_per_eval", "ns", secs*1e9/evals)

	px.KNNApprox(qs[0], knnK, nprobe) // builds the prefix-bucket directory
	var cands, probed float64
	p50, _, _ = timeEach(func(q metric.Point) int {
		_, st := px.KNNApprox(q, knnK, nprobe)
		cands += float64(st.Candidates) / float64(len(pts))
		probed += float64(st.ProbedBuckets)
		return st.DistanceEvals
	})
	put("sisap.approx_p50_us", "us", p50)
	put("sisap.candidate_fraction", "ratio", cands/replayQueries)
	put("sisap.probed_buckets", "count", probed/replayQueries)

	ls := sisap.NewLinearScan(db)
	p50, _, _ = timeEach(func(q metric.Point) int { _, st := ls.KNN(q, knnK); return st.DistanceEvals })
	put("sisap.linear_p50_us", "us", p50)
	vp := sisap.NewVPTree(db, rand.New(rand.NewSource(siteSeed)))
	p50, evals, _ = timeEach(func(q metric.Point) int { _, st := vp.KNN(q, knnK); return st.DistanceEvals })
	put("sisap.vptree_p50_us", "us", p50)
	put("sisap.vptree_evals_per_query", "count", evals/replayQueries)
	return nil
}
