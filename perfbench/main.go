// Command perfbench is the repository benchmark. It generates a workload
// from a seed, starts the distance-permutation server in its own process,
// drives it over loopback HTTP from nproc connections, checks every answer
// against a LinearScan oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON line. README.md describes
// the workloads and metrics; run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload mixed-rw --seed 1 --seconds 55 --trace 0
//	bash perfbench/run.sh --steady 10 --workload all --seconds 55
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"distperm/pkg/dpserver"
	"distperm/pkg/dpserver/client"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: approx-mmap, mixed-rw (all: every one, --steady only)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report the per-layer metrics from a traced run")
	steady := fs.Int("steady", 0, "run each workload this many times with seeds seed, seed+1, ... and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		return steadyMain(*name, *seed, *seconds, *steady)
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q (%v), seconds %g, trace %d\n", *name, err, *seconds, *trace)
		return 2
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	r := &run{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, bin: bin}
	rep, err := r.execute()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// run is one benchmark run of one workload.
type run struct {
	w       workload
	seed    int64
	seconds float64
	traced  bool
	bin     string

	work   string // scratch directory for inputs and the log
	frozen string // frozen container path (approx-mmap)
	setups []float64
	srv    *serverProc
	d      *generator
	stats  map[string]dpserver.StatsResponse
	info   dpserver.IndexInfo
	rss    float64
	// elapsed is each measured phase's length per round; cpu the load
	// generator's CPU seconds over the measured phases.
	elapsed map[int][]time.Duration
	cpu     float64
}

// setupStarts is how many times a run starts the server to measure set-up:
// the median of nine steadies a figure of a fraction of a second.
const setupStarts = 9

func (r *run) logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed %d: %s\n", r.w.name, r.seed, fmt.Sprintf(format, a...))
}

func (r *run) execute() (*report, error) {
	r.work = filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", r.w.name, r.seed, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.work)
	defer func() {
		if r.srv != nil {
			r.srv.stop()
		}
	}()

	pts := genPoints(r.w)
	src := newOpSource(r.w, pts, r.seed)
	var inputs []string
	if r.w.frozen {
		r.frozen = filepath.Join(r.work, "index.frozen")
		if err := writeFrozen(r.frozen, pts); err != nil {
			return nil, err
		}
		inputs = append(inputs, "--frozen", r.frozen)
	} else {
		path := filepath.Join(r.work, "points.bin")
		if err := writePoints(path, pts); err != nil {
			return nil, err
		}
		inputs = append(inputs, "--points", path)
	}
	// Nothing of the input generation may run on into set-up: the inputs
	// are on disk (synced as they were written) and the heap is collected.
	runtime.GC()
	if err := r.setUp(inputs); err != nil {
		return nil, err
	}
	r.d = newGenerator(r.w, src, r.srv.url)
	defer r.d.close()
	if err := r.drive(); err != nil {
		return nil, err
	}
	rss, err := r.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.rss = rss
	clean := r.srv.stop()
	r.srv = nil
	if !clean {
		return nil, errors.New("server did not shut down cleanly")
	}

	samples := r.d.phase(-1)
	or := newOracle(r.w, pts, src.pool)
	or.check(samples)
	rep := &report{Correct: true, Attempted: len(samples), Metrics: map[string]metricValue{}}
	for _, s := range samples {
		if !s.ok {
			rep.Failed++
		}
	}
	r.logf("%d operations, %s", len(samples), describe(samples))
	if rep.Failed > 0 {
		rep.Correct = false
	}
	if err := r.checkEnd(or); err != nil {
		r.logf("FAILED: %v", err)
		rep.Correct = false
	}
	if r.traced {
		if err := r.perLayer(rep, pts, src); err != nil {
			return nil, err
		}
	} else {
		r.endToEnd(rep)
	}
	return rep, nil
}

// setUp starts the server setupStarts times (once when traced), timing
// each start to its first ready answer, and keeps the last one running.
func (r *run) setUp(inputs []string) error {
	starts := setupStarts
	if r.traced {
		starts = 1
	}
	for i := 0; i < starts; i++ {
		args := append([]string(nil), inputs...)
		if r.w.mutable {
			args = append(args, "--wal", filepath.Join(r.work, "wal"+strconv.Itoa(i)),
				"--rebuild-threshold", strconv.Itoa(r.w.rebuildThreshold))
		}
		if r.traced {
			args = append(args, "--trace-out", r.traceOut())
		}
		p, d, err := startServer(r.bin, args...)
		if err != nil {
			return err
		}
		r.setups = append(r.setups, d.Seconds())
		if i == starts-1 {
			r.srv = p
		} else if !p.stop() {
			return errors.New("server did not shut down cleanly")
		}
	}
	r.logf("set-up %v s", r.setups)
	return nil
}

func (r *run) traceOut() string {
	return filepath.Join(r.work, "trace.json")
}

// rounds is how many times a run alternates its closed and open loops.
// The host's speed drifts within a run, so both loops are sampled across
// the whole run and the run reports the median round.
const rounds = 10

// drive sends the workload. A run spends a sixth of its seconds in the
// closed loop and the rest in the open loop, in rounds; a traced run then
// does the same again at half length with tracing on. The open loop gives
// the latency figures, so it has most of the time; the closed loop's
// bursts of concurrent requests and writes, spread over the run, let the
// server's peak memory reach the same high-water mark from run to run.
func (r *run) drive() error {
	ctx := context.Background()
	cl := client.New(r.srv.url)
	r.stats = map[string]dpserver.StatsResponse{}
	r.elapsed = map[int][]time.Duration{}
	snap := func(name string) error {
		st, err := cl.Stats(ctx)
		r.stats[name] = st
		return err
	}
	info, err := cl.IndexInfo(ctx)
	if err != nil {
		return err
	}
	r.info = info

	r.d.closedLoop(phaseWarm, time.Second)
	total := time.Duration(r.seconds * float64(time.Second))
	closed, open := total/6/rounds, (total-total/6)/rounds
	phases := [][2]int{{phaseClosed, phaseOpen}}
	if r.traced {
		phases = append(phases, [2]int{phaseClosedTraced, phaseOpenTraced})
	}
	cpu0 := cpuSeconds()
	for i, ph := range phases {
		if i == 1 {
			closed, open = closed/2, open/2
			if err := r.mark("on", true); err != nil {
				return err
			}
			r.d.tagged.Store(true)
		}
		if err := snap(fmt.Sprint("start", ph[0])); err != nil {
			return err
		}
		for k := 0; k < rounds; k++ {
			r.d.round = k
			r.elapsed[ph[0]] = append(r.elapsed[ph[0]], r.d.closedLoop(ph[0], closed))
			r.elapsed[ph[1]] = append(r.elapsed[ph[1]], r.d.openLoop(ph[1], open, r.w.rate))
		}
		if err := snap(fmt.Sprint("end", ph[1])); err != nil {
			return err
		}
		if i == 1 {
			r.d.tagged.Store(false)
			if err := r.mark("off", false); err != nil {
				return err
			}
		}
	}
	r.cpu = cpuSeconds() - cpu0
	if r.w.mutable {
		// Read-your-writes probes: acknowledged inserts come back as their
		// own nearest neighbours.
		probes := 0
		for _, s := range r.d.phase(-1) {
			if s.op.kind == opInsert && s.err == nil && probes < 32 {
				r.d.send(r.d.clients[0], phaseCheck, op{kind: opQuery, pool: -1, point: s.op.point}, time.Time{})
				probes++
			}
		}
	}
	return snap("final")
}

// mark records a server-side mark and switches its tracing on or off.
func (r *run) mark(name string, on bool) error {
	trace := "0"
	if on {
		trace = "1"
	}
	resp, err := http.Post(r.srv.url+"/bench/mark?name="+name+"&trace="+trace, "", nil)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("mark %s: status %d", name, resp.StatusCode)
	}
	return nil
}

// checkEnd checks the run's end state: on the mutable workload the live
// count matches the acknowledged writes and at least two background
// rebuilds ran.
func (r *run) checkEnd(or *oracle) error {
	if !r.w.mutable {
		return nil
	}
	end := r.stats["final"].Mutation
	if end == nil {
		return errors.New("mutable server reported no write path")
	}
	if want := r.w.n + len(or.inserts) - len(or.deletes); end.LiveN != want {
		return fmt.Errorf("live_n %d, want base %d + inserts %d - deletes %d = %d",
			end.LiveN, r.w.n, len(or.inserts), len(or.deletes), want)
	}
	if reb := end.Rebuilds - r.stats[fmt.Sprint("start", phaseClosed)].Mutation.Rebuilds; reb < 2 {
		return fmt.Errorf("%d background rebuilds in the measured phases, want at least 2", reb)
	}
	return nil
}

// endToEnd fills in the end-to-end metrics of an untraced run.
func (r *run) endToEnd(rep *report) {
	open := r.d.phase(phaseOpen)
	put := func(name, unit string, v float64) { rep.Metrics[name] = metricValue{v, unit} }
	put("setup_s", "s", quantile(append([]float64(nil), r.setups...), 0.5))
	q := latenciesMS(open, opQuery)
	put("query_p50_ms", "ms", r.roundP50(phaseOpen))
	put("ok_frac", "ratio", 1-float64(rep.Failed)/float64(rep.Attempted))
	put("recall_at_10", "ratio", meanRecall(r.d.phase(-1)))
	s0, s1 := r.stats[fmt.Sprint("start", phaseClosed)], r.stats[fmt.Sprint("end", phaseOpen)]
	put("evals_per_query", "count", ratio(float64(s1.Engine.DistanceEvals-s0.Engine.DistanceEvals),
		float64(s1.Engine.Queries-s0.Engine.Queries)))
	put("index_bytes_per_point", "B", float64(r.info.Bits)/8/float64(r.info.N))
	put("server_rss_mb", "MiB", r.rss)
	r.logf("closed-loop throughput %.4g ops/s; open-loop queries: %d, latency p50 %.3g p90 %.3g p95 %.3g p99 %.3g max %.3g ms",
		r.throughput(phaseClosed), len(q), quantile(q, 0.5), quantile(q, 0.9), quantile(q, 0.95), quantile(q, 0.99), quantile(q, 1))
}

// throughput is the median over rounds of the closed loop's correct
// operations per second.
func (r *run) throughput(phase int) float64 {
	per := make([]float64, rounds)
	for _, s := range r.d.phase(phase) {
		if s.ok {
			per[s.round]++
		}
	}
	for k, d := range r.elapsed[phase] {
		per[k] /= d.Seconds()
	}
	return quantile(per, 0.5)
}

// roundP50 is the median over rounds of the open loop's query p50, so a
// slow spell of the host in part of a run does not decide the run's figure.
func (r *run) roundP50(phase int) float64 {
	per := make([][]*sample, rounds)
	for _, s := range r.d.phase(phase) {
		per[s.round] = append(per[s.round], s)
	}
	p50s := make([]float64, rounds)
	for k, ss := range per {
		p50s[k] = quantile(latenciesMS(ss, opQuery), 0.5)
	}
	return quantile(p50s, 0.5)
}

func meanRecall(ss []*sample) float64 {
	var rs []float64
	for _, s := range ss {
		if s.op.kind == opQuery {
			rs = append(rs, s.recall)
		}
	}
	return mean(rs)
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
