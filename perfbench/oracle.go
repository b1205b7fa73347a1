package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"distperm/internal/metric"
	"distperm/internal/sisap"
	"distperm/pkg/distperm"
)

// oracle checks every answer against exact truth computed by LinearScan
// over the workload's own copy of the data.
type oracle struct {
	w    workload
	base []metric.Point
	pool []metric.Vector
	ls   *sisap.LinearScan
	l2   metric.L2

	// The write history of a mutable run, from the acknowledged samples.
	inserts map[int]*sample // granted ID → insert
	byPoint map[string]int  // point key → granted ID
	deletes map[int]*sample // deleted base ID → delete
	// top holds each pool query's nearest base points, deepest first
	// checked; a read whose answer reaches past it falls back to a scan.
	top map[int][]distperm.Result
}

// topDepth is how many nearest base points are kept per pool query on the
// mutable workload: deletes remove about one in a hundred base points per
// run, so the list almost always still covers the answer.
const topDepth = 64

func newOracle(w workload, base []metric.Point, pool []metric.Vector) *oracle {
	return &oracle{w: w, base: base, pool: pool,
		ls: sisap.NewLinearScan(sisap.NewDB(metric.L2{}, base))}
}

// parallel runs f(i) for i in [0, n) on NumCPU goroutines.
func parallel(n int, f func(i int)) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := i
				i++
				next.Unlock()
				if j >= n {
					return
				}
				f(j)
			}
		}()
	}
	wg.Wait()
}

// check fills in ok and recall for every sample.
func (o *oracle) check(samples []*sample) {
	for _, s := range samples {
		s.ok = s.err == nil
	}
	if o.w.mutable {
		o.indexWrites(samples)
	}
	var reads []*sample
	for _, s := range samples {
		if s.op.kind == opQuery && s.ok {
			reads = append(reads, s)
		}
	}
	// Exact truth per pool query over the base points, computed once.
	depth := knnK
	if o.w.mutable {
		depth = topDepth
	}
	truth := make([][]distperm.Result, len(o.pool))
	parallel(len(o.pool), func(i int) { truth[i], _ = o.ls.KNN(o.pool[i], depth) })
	if o.w.mutable {
		o.top = make(map[int][]distperm.Result, len(truth))
		for i, t := range truth {
			o.top[i] = t
		}
	}
	first := make(map[int][]distperm.Result) // approx answers must repeat per pool query
	var firstMu sync.Mutex
	parallel(len(reads), func(i int) {
		s := reads[i]
		if o.w.mutable {
			s.ok, s.recall = o.checkLive(s)
			return
		}
		s.ok = o.wellFormed(s.op.point, s.results, func(int) bool { return true })
		s.recall = recall(s.results, truth[s.op.pool])
		firstMu.Lock()
		if f, seen := first[s.op.pool]; !seen {
			first[s.op.pool] = s.results
		} else if !sameResults(f, s.results) {
			s.ok = false
		}
		firstMu.Unlock()
	})
}

// sameResults reports byte-identical answers: IDs and distances, in order.
func sameResults(a, b []distperm.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recall is the share of truth's first knnK IDs that got answers.
func recall(got, truth []distperm.Result) float64 {
	truth = truth[:min(knnK, len(truth))]
	hit := 0
	for _, t := range truth {
		for _, g := range got {
			if g.ID == t.ID {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(truth))
}

// less orders results by (distance, ID), the order answers are returned in.
func less(a, b distperm.Result) bool {
	return a.Distance < b.Distance || (a.Distance == b.Distance && a.ID < b.ID)
}

// wellFormed checks an answer's shape: knnK results in strictly increasing
// (distance, ID) order, each naming a point that may be live and carrying
// its exact distance to q.
func (o *oracle) wellFormed(q metric.Vector, rs []distperm.Result, possible func(id int) bool) bool {
	if len(rs) != knnK {
		return false
	}
	for i, r := range rs {
		if i > 0 && !less(rs[i-1], r) {
			return false
		}
		p := o.point(r.ID)
		if p == nil || !possible(r.ID) || o.l2.Distance(q, p) != r.Distance {
			return false
		}
	}
	return true
}

// point returns the point with global ID id, nil if there is none.
func (o *oracle) point(id int) metric.Point {
	if id >= 0 && id < len(o.base) {
		return o.base[id]
	}
	if s, ok := o.inserts[id]; ok {
		return s.op.point
	}
	return nil
}

// indexWrites records the run's acknowledged writes. A write that failed,
// or an insert granted an ID twice, fails its sample.
func (o *oracle) indexWrites(samples []*sample) {
	o.inserts = make(map[int]*sample)
	o.byPoint = make(map[string]int)
	o.deletes = make(map[int]*sample)
	for _, s := range samples {
		if !s.ok {
			continue
		}
		switch s.op.kind {
		case opInsert:
			if _, dup := o.inserts[s.gid]; dup || s.gid < len(o.base) {
				s.ok = false
				continue
			}
			o.inserts[s.gid] = s
			o.byPoint[pointKey(s.op.point)] = s.gid
		case opDelete:
			o.deletes[s.op.del] = s
		}
	}
}

// checkLive checks an exact read on the mutable workload. A write
// acknowledged before the read was sent must be visible to it, and one sent
// after its reply arrived must not be; writes in flight may go either way.
// The answer passes if it is well formed over the possibly-live points and
// omits no definitely-live point that ranks before its last result. With no
// write in flight the two sets agree, and only the byte-identical exact
// answer over the live points passes. Recall is the share of those ranks
// the answer filled correctly.
func (o *oracle) checkLive(s *sample) (bool, float64) {
	definite := func(id int) bool {
		if id < len(o.base) {
			d, gone := o.deletes[id]
			return !gone || !d.sent.Before(s.done)
		}
		ins, ok := o.inserts[id]
		return ok && ins.done.Before(s.sent)
	}
	possible := func(id int) bool {
		if id < len(o.base) {
			d, gone := o.deletes[id]
			return !gone || !d.done.Before(s.sent)
		}
		ins, ok := o.inserts[id]
		return ok && ins.sent.Before(s.done)
	}
	q := s.op.point
	ok := o.wellFormed(q, s.results, possible)
	if s.phase == phaseCheck {
		// A read-your-writes probe: the inserted point is its own nearest
		// neighbour.
		gid, known := o.byPoint[pointKey(q)]
		ok = ok && known && s.results[0].ID == gid && s.results[0].Distance == 0
	}
	if len(s.results) == 0 {
		return false, 0
	}
	last := s.results[len(s.results)-1]
	in := make(map[int]bool, len(s.results))
	for _, r := range s.results {
		in[r.ID] = true
	}
	missing := 0
	consider := func(r distperm.Result) {
		if less(r, last) && definite(r.ID) && !in[r.ID] {
			missing++
		}
	}
	top, has := o.top[s.op.pool]
	if has && s.op.pool >= 0 && len(top) == topDepth && less(last, top[len(top)-1]) {
		for _, r := range top {
			consider(r)
		}
	} else {
		for id, p := range o.base {
			consider(distperm.Result{ID: id, Distance: o.l2.Distance(q, p)})
		}
	}
	for id, ins := range o.inserts {
		consider(distperm.Result{ID: id, Distance: o.l2.Distance(q, ins.op.point)})
	}
	ok = ok && missing == 0
	return ok, max(0, 1-float64(missing)/float64(knnK))
}

// describe summarises the failed samples for the log.
func describe(samples []*sample) string {
	n, firstErr := 0, ""
	for _, s := range samples {
		if s.ok {
			continue
		}
		n++
		if firstErr == "" {
			if s.err != nil {
				firstErr = fmt.Sprintf("%s #%d: %v", s.op.kind, s.seq, s.err)
			} else {
				firstErr = fmt.Sprintf("%s #%d (sent %s): wrong answer %v",
					s.op.kind, s.seq, s.sent.Format(time.StampMicro), s.results)
			}
		}
	}
	if n == 0 {
		return "every answer checked"
	}
	return fmt.Sprintf("%d failed; first: %s", n, firstErr)
}
