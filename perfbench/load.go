package main

import (
	"context"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"distperm/pkg/distperm"
	"distperm/pkg/dpserver/client"
)

// Phases of a run. Warm-up and checks are sent and verified but not timed.
const (
	phaseWarm = iota
	phaseClosed
	phaseOpen
	phaseClosedTraced
	phaseOpenTraced
	phaseCheck
)

// sample is one operation as the load generator saw it.
type sample struct {
	seq   int
	phase int
	round int
	op    op
	// due is when the schedule meant to send it (open loop; the send time
	// otherwise), sent when it was sent and done when the reply arrived.
	due, sent, done time.Time
	results         []distperm.Result
	gid             int // ID granted to an insert
	err             error
	// ok and recall are filled in by the oracle.
	ok     bool
	recall float64
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }

// tag carries a traced request's span ID and link key to the transport.
type tag struct{ id, key string }

type tagKey struct{}

// tagTransport sets the tracing headers of a tagged request.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if tg, ok := r.Context().Value(tagKey{}).(tag); ok {
		r = r.Clone(r.Context())
		r.Header.Set(hdrRequestID, tg.id)
		if tg.key != "" {
			r.Header.Set(hdrKey, tg.key)
		}
	}
	return t.base.RoundTrip(r)
}

// generator is the load generator: nproc senders, each with one connection.
type generator struct {
	w       workload
	src     *opSource
	clients []*client.Client
	tagged  atomic.Bool
	// round is stamped on every sample; it changes only between loops.
	round int

	seq     atomic.Int64
	mu      sync.Mutex
	samples []*sample
}

func newGenerator(w workload, src *opSource, base string) *generator {
	d := &generator{w: w, src: src}
	for i := 0; i < runtime.NumCPU(); i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		d.clients = append(d.clients, &client.Client{Base: base,
			HTTPClient: &http.Client{Transport: tagTransport{base: tr}, Timeout: 60 * time.Second}})
	}
	return d
}

func (d *generator) close() {
	for _, c := range d.clients {
		c.HTTPClient.Transport.(tagTransport).base.(*http.Transport).CloseIdleConnections()
	}
}

// send performs o through c, timing it from due, and records the sample.
func (d *generator) send(c *client.Client, phase int, o op, due time.Time) *sample {
	s := &sample{seq: int(d.seq.Add(1)), phase: phase, round: d.round, op: o, due: due}
	ctx := context.Background()
	if d.tagged.Load() {
		key := pointKey(o.point)
		if o.kind == opDelete {
			key = deleteKey(o.del)
		}
		ctx = context.WithValue(ctx, tagKey{}, tag{id: "c" + strconv.Itoa(s.seq), key: key})
	}
	s.sent = time.Now()
	if due.IsZero() {
		s.due = s.sent
	}
	switch o.kind {
	case opQuery:
		if d.w.approx {
			s.results, _, s.err = c.KNNApprox(ctx, o.point, knnK, nprobe)
		} else {
			s.results, s.err = c.KNN(ctx, o.point, knnK)
		}
	case opInsert:
		s.gid, s.err = c.Insert(ctx, o.point)
	case opDelete:
		s.err = c.Delete(ctx, o.del)
	}
	s.done = time.Now()
	d.mu.Lock()
	d.samples = append(d.samples, s)
	d.mu.Unlock()
	return s
}

// closedLoop runs one caller per sender, each sending its next operation
// when the previous reply arrives, for dur. It returns the elapsed time.
func (d *generator) closedLoop(phase int, dur time.Duration) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				d.send(c, phase, d.src.next(), time.Time{})
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// slot is one scheduled open-loop operation.
type slot struct {
	op  op
	due time.Time
}

// openLoop sends rate·dur operations on a fixed schedule, one every 1/rate
// seconds. Senders take the next due slot as they free up, so a stall
// delays later sends, and every latency is timed from the slot's due time.
// Writes have a connection of their own where there is one to spare: a
// write held up on the log then delays the writes behind it, not the reads,
// as independent readers and writers would see it. It returns the elapsed
// time.
func (d *generator) openLoop(phase int, dur time.Duration, rate float64) time.Duration {
	ops := make([]op, int(rate*dur.Seconds()))
	for i := range ops {
		ops[i] = d.src.next()
	}
	reads, writes := make(chan slot, len(ops)), make(chan slot, len(ops)) // sized to the schedule
	readers, writers := d.clients, d.clients[:0]
	if d.w.writeFrac > 0 && len(d.clients) > 1 {
		readers, writers = d.clients[1:], d.clients[:1]
	}
	begin := time.Now()
	start := begin.Add(5 * time.Millisecond)
	for i, o := range ops {
		s := slot{op: o, due: start.Add(time.Duration(float64(i) / rate * float64(time.Second)))}
		if o.kind != opQuery && len(writers) > 0 {
			writes <- s
		} else {
			reads <- s
		}
	}
	close(reads)
	close(writes)
	var wg sync.WaitGroup
	serve := func(c *client.Client, q chan slot) {
		defer wg.Done()
		for s := range q {
			if w := time.Until(s.due); w > 0 {
				time.Sleep(w)
			}
			d.send(c, phase, s.op, s.due)
		}
	}
	for _, c := range readers {
		wg.Add(1)
		go serve(c, reads)
	}
	for _, c := range writers {
		wg.Add(1)
		go serve(c, writes)
	}
	wg.Wait()
	return time.Since(begin)
}

// phase returns the samples of one phase, or every sample for p < 0.
func (d *generator) phase(p int) []*sample {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []*sample
	for _, s := range d.samples {
		if p < 0 || s.phase == p {
			out = append(out, s)
		}
	}
	return out
}
