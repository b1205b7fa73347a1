package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distperm/pkg/distperm"
	"distperm/pkg/obs"
)

// span is one timed call at a layer boundary. Times are Unix nanoseconds,
// comparable between the load generator and the server on one host.
type span struct {
	ID     string `json:"id"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	// Batch is an engine call's query count; Served lists the handler
	// spans whose requests it answered (more than one where the coalescer
	// merged requests).
	Batch  int      `json:"batch,omitempty"`
	Served []string `json:"served,omitempty"`
	// Bytes is the response body size of a handler span.
	Bytes int `json:"bytes,omitempty"`
}

// Request headers the traced load generator sets: the client span's ID
// (dpserver echoes X-Request-ID) and a key naming the request's point or
// deleted ID, by which engine calls are linked back to the requests they
// served.
const (
	hdrRequestID = "X-Request-ID"
	hdrKey       = "X-Bench-Key"
)

// pointKey names a vector by an FNV-1a hash of its coordinates' bits; JSON
// round-trips float64 exactly, so client and server compute the same key.
func pointKey(p distperm.Point) string {
	v, ok := p.(distperm.Vector)
	if !ok {
		return ""
	}
	h := fnv.New64a()
	var b [8]byte
	for _, x := range v {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return "p" + strconv.FormatUint(h.Sum64(), 16)
}

func deleteKey(id int) string { return "d" + strconv.Itoa(id) }

// engineSurface is everything dpserver discovers on *distperm.Engine and
// *distperm.MutableEngine by type assertion, apart from the write path.
type engineSurface interface {
	KNNBatch(qs []distperm.Point, k int) ([][]distperm.Result, error)
	RangeBatch(qs []distperm.Point, r float64) ([][]distperm.Result, error)
	KNNApproxBatch(qs []distperm.Point, k, nprobe int) ([][]distperm.Result, []distperm.ApproxStats, error)
	ApproxBuckets() int
	Stats() distperm.EngineStats
	LatencySnapshot() obs.HistogramSnapshot
	BusyWorkers() int
	Workers() int
	Close()
}

// mark is the server's in-process counter state at a phase boundary the
// load generator asked for: what /v1/stats does not carry.
type mark struct {
	Name     string                  `json:"name"`
	Latency  obs.HistogramSnapshot   `json:"latency"`
	WAL      *distperm.WALStats      `json:"wal,omitempty"`
	Mutation *distperm.MutationStats `json:"mutation,omitempty"`
	// Busy/Pending sum the sampled BusyWorkers/Workers and PendingWrites
	// over Samples samples; RebuildSecs sums LastRebuild over the Rebuilds
	// rebuilds the sampler saw complete.
	Samples     int     `json:"samples"`
	Busy        float64 `json:"busy"`
	Pending     float64 `json:"pending"`
	Rebuilds    int     `json:"rebuilds"`
	RebuildSecs float64 `json:"rebuild_secs"`
}

// traceFile is what a traced server writes when it shuts down.
type traceFile struct {
	Spans []span `json:"spans"`
	Marks []mark `json:"marks"`
}

// tracer records the server-side spans of a traced run. Spans are kept in
// memory and written out at shutdown. Recording is switched on and off by
// the load generator (POST /bench/mark?trace=1), so one server measures an
// untraced and a traced phase under the same placement.
type tracer struct {
	on  atomic.Bool
	eng engineSurface
	mut interface {
		MutationStats() distperm.MutationStats
		WALStats() distperm.WALStats
	}

	mu      sync.Mutex
	spans   []span
	waiting map[string][]string // request key → handler spans waiting on it
	seq     int
	marks   []mark
	acc     mark // sampler accumulators, copied into each mark
	lastReb int64

	stop chan struct{}
	done chan struct{}
}

func newTracer() *tracer {
	return &tracer{waiting: make(map[string][]string)}
}

// attach points the tracer at the serving engine and starts the sampler,
// which stops in finish.
func (t *tracer) attach(eng engineSurface, mut *distperm.MutableEngine) {
	t.eng = eng
	if mut != nil {
		t.mut = mut
		t.lastReb = mut.MutationStats().Rebuilds
	}
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go t.sample()
}

// sample reads the engine's busy workers and the write backlog every 2 ms
// while recording is on.
func (t *tracer) sample() {
	defer close(t.done)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		if !t.on.Load() {
			continue
		}
		busy := float64(t.eng.BusyWorkers()) / float64(t.eng.Workers())
		var ms distperm.MutationStats
		if t.mut != nil {
			ms = t.mut.MutationStats()
		}
		t.mu.Lock()
		t.acc.Samples++
		t.acc.Busy += busy
		t.acc.Pending += float64(ms.PendingWrites)
		if ms.Rebuilds > t.lastReb {
			t.acc.Rebuilds += int(ms.Rebuilds - t.lastReb)
			t.acc.RebuildSecs += float64(ms.Rebuilds-t.lastReb) * ms.LastRebuild.Seconds()
			t.lastReb = ms.Rebuilds
		}
		t.mu.Unlock()
	}
}

// finish stops the sampler and writes every span and mark to path.
func (t *tracer) finish(path string) error {
	if t.stop != nil {
		close(t.stop)
		<-t.done
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{Spans: t.spans, Marks: t.marks})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// handleMark records a mark and sets recording to the trace parameter.
func (t *tracer) handleMark(w http.ResponseWriter, r *http.Request) {
	m := mark{Name: r.URL.Query().Get("name"), Latency: t.eng.LatencySnapshot()}
	if t.mut != nil {
		ws, ms := t.mut.WALStats(), t.mut.MutationStats()
		m.WAL, m.Mutation = &ws, &ms
	}
	t.mu.Lock()
	m.Samples, m.Busy, m.Pending = t.acc.Samples, t.acc.Busy, t.acc.Pending
	m.Rebuilds, m.RebuildSecs = t.acc.Rebuilds, t.acc.RebuildSecs
	t.marks = append(t.marks, m)
	t.mu.Unlock()
	t.on.Store(r.URL.Query().Get("trace") == "1")
	w.WriteHeader(http.StatusNoContent)
}

// countingWriter counts the response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += n
	return n, err
}

// handler wraps next with the dpserver.handler span: from the request
// reaching the server's handler chain to the response being written.
func (t *tracer) handler(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /bench/mark", t.handleMark)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		parent := r.Header.Get(hdrRequestID)
		if !t.on.Load() || parent == "" {
			next.ServeHTTP(w, r)
			return
		}
		id, key := "h"+parent, r.Header.Get(hdrKey)
		if key != "" {
			t.mu.Lock()
			t.waiting[key] = append(t.waiting[key], id)
			t.mu.Unlock()
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now().UnixNano()
		next.ServeHTTP(cw, r)
		end := time.Now().UnixNano()
		t.mu.Lock()
		if key != "" {
			t.unwait(key, id)
		}
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: "dpserver.handler",
			Start: start, End: end, Bytes: cw.n})
		t.mu.Unlock()
	})
	return mux
}

// unwait drops id from the handlers waiting on key; t.mu is held.
func (t *tracer) unwait(key, id string) {
	ids := t.waiting[key]
	for i, h := range ids {
		if h == id {
			ids = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(ids) == 0 {
		delete(t.waiting, key)
	} else {
		t.waiting[key] = ids
	}
}

// record adds a span named name over [start, now) caused by the requests
// waiting on keys. It is a no-op while recording is off.
func (t *tracer) record(name string, start time.Time, keys []string) {
	if !t.on.Load() {
		return
	}
	end := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	s := span{ID: "e" + strconv.Itoa(t.seq), Name: name, Start: start.UnixNano(), End: end, Batch: len(keys)}
	for _, k := range keys {
		if ids := t.waiting[k]; len(ids) > 0 {
			s.Served = append(s.Served, ids[0])
		}
	}
	if len(s.Served) > 0 {
		s.Parent = s.Served[0]
	}
	t.spans = append(t.spans, s)
}

func pointKeys(qs []distperm.Point) []string {
	keys := make([]string, len(qs))
	for i, q := range qs {
		keys[i] = pointKey(q)
	}
	return keys
}

// tracedEngine decorates a read-only engine with engine.call spans. It
// forwards every capability dpserver type-asserts on the engine.
type tracedEngine struct {
	engineSurface
	t *tracer
}

func (e *tracedEngine) KNNBatch(qs []distperm.Point, k int) ([][]distperm.Result, error) {
	start := time.Now()
	out, err := e.engineSurface.KNNBatch(qs, k)
	e.t.record("engine.call", start, pointKeys(qs))
	return out, err
}

func (e *tracedEngine) RangeBatch(qs []distperm.Point, r float64) ([][]distperm.Result, error) {
	start := time.Now()
	out, err := e.engineSurface.RangeBatch(qs, r)
	e.t.record("engine.call", start, pointKeys(qs))
	return out, err
}

func (e *tracedEngine) KNNApproxBatch(qs []distperm.Point, k, np int) ([][]distperm.Result, []distperm.ApproxStats, error) {
	start := time.Now()
	out, sts, err := e.engineSurface.KNNApproxBatch(qs, k, np)
	e.t.record("engine.call", start, pointKeys(qs))
	return out, sts, err
}

// tracedMutable adds the write path to tracedEngine: mutable.write spans
// around Insert and Delete, which include the write-ahead-log append.
type tracedMutable struct {
	tracedEngine
	me *distperm.MutableEngine
}

func (m *tracedMutable) Insert(p distperm.Point) (int, error) {
	start := time.Now()
	id, err := m.me.Insert(p)
	m.t.record("mutable.write", start, []string{pointKey(p)})
	return id, err
}

func (m *tracedMutable) Delete(id int) error {
	start := time.Now()
	err := m.me.Delete(id)
	m.t.record("mutable.write", start, []string{deleteKey(id)})
	return err
}

func (m *tracedMutable) MutationStats() distperm.MutationStats { return m.me.MutationStats() }
func (m *tracedMutable) WALStats() distperm.WALStats           { return m.me.WALStats() }
