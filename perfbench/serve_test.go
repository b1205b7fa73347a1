package main

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"distperm/pkg/distperm"
	"distperm/pkg/dpserver/client"
)

// smallInputs writes a workload's inputs at a test-sized n and returns the
// serve configuration for them plus the operation source.
func smallInputs(t *testing.T, w workload, dir string) (serveConfig, *opSource) {
	t.Helper()
	w.n = 3000
	pts := genPoints(w)
	var cfg serveConfig
	if w.frozen {
		cfg.frozen = filepath.Join(dir, "index.frozen")
		if err := writeFrozen(cfg.frozen, pts); err != nil {
			t.Fatal(err)
		}
	} else {
		cfg.points = filepath.Join(dir, "points.bin")
		if err := writePoints(cfg.points, pts); err != nil {
			t.Fatal(err)
		}
	}
	if w.mutable {
		cfg.rebuildThreshold = 16
	}
	return cfg, newOpSource(w, pts, 7)
}

// reply is one operation's outcome, compared across servers.
type reply struct {
	results []distperm.Result
	gid     int
	failed  bool
}

func do(ctx context.Context, c *client.Client, w workload, o op) reply {
	var r reply
	var err error
	switch o.kind {
	case opQuery:
		if w.approx {
			r.results, _, err = c.KNNApprox(ctx, o.point, knnK, nprobe)
		} else {
			r.results, err = c.KNN(ctx, o.point, knnK)
		}
	case opInsert:
		r.gid, err = c.Insert(ctx, o.point)
	case opDelete:
		err = c.Delete(ctx, o.del)
	}
	r.failed = err != nil
	return r
}

func familyNames(t *testing.T, c *client.Client) []string {
	t.Helper()
	fams, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTracedServerMatches checks, on each workload's first operations, that
// the traced server answers exactly as the untraced one and exports the
// same /metrics families, and that its spans link back to the requests.
func TestTracedServerMatches(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg, src := smallInputs(t, w, dir)
			var ops []op
			for i := 0; i < 40; i++ {
				ops = append(ops, src.next())
			}

			plainCfg, tracedCfg := cfg, cfg
			if w.mutable {
				plainCfg.walDir, tracedCfg.walDir = filepath.Join(dir, "wal-plain"), filepath.Join(dir, "wal-traced")
			}
			plain, err := buildServing(plainCfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr := newTracer()
			traced, err := buildServing(tracedCfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			tr.on.Store(true)
			ps, ts := httptest.NewServer(plain.srv), httptest.NewServer(tr.handler(traced.srv))
			defer func() {
				ps.Close()
				ts.Close()
				plain.srv.Close()
				traced.srv.Close()
				plain.cleanup()
				traced.cleanup()
				if err := tr.finish(filepath.Join(dir, "trace.json")); err != nil {
					t.Error(err)
				}
			}()
			pc, tc := client.New(ps.URL), client.New(ts.URL)
			tc.HTTPClient = ts.Client()
			tc.HTTPClient.Transport = tagTransport{base: tc.HTTPClient.Transport}

			for i, o := range ops {
				key := pointKey(o.point)
				if o.kind == opDelete {
					key = deleteKey(o.del)
				}
				ctx := context.WithValue(context.Background(), tagKey{}, tag{id: "c" + strconv.Itoa(i), key: key})
				want, got := do(context.Background(), pc, w, o), do(ctx, tc, w, o)
				if want.failed || got.failed || want.gid != got.gid || !sameResults(want.results, got.results) {
					t.Fatalf("op %d (%s): traced %+v, untraced %+v", i, o.kind, got, want)
				}
			}
			if p, q := familyNames(t, pc), familyNames(t, tc); !equalStrings(p, q) {
				t.Errorf("/metrics families differ:\nuntraced %v\ntraced   %v", p, q)
			}

			tr.mu.Lock()
			defer tr.mu.Unlock()
			handlers, linked := 0, 0
			for _, s := range tr.spans {
				switch {
				case s.Name == "dpserver.handler":
					handlers++
				case len(s.Served) > 0:
					linked++
				}
			}
			if handlers != len(ops) || linked == 0 {
				t.Errorf("%d handler spans for %d requests, %d engine-side spans linked to them", handlers, len(ops), linked)
			}
		})
	}
}

func equalStrings(a, b []string) bool {
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

// TestOracleRejectsWrongAnswers checks that, on each workload, the oracle
// fails an answer off by one distance bit or one ID, and passes the true
// one.
func TestOracleRejectsWrongAnswers(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.n = 2000
			pts := genPoints(w)
			src := newOpSource(w, pts, 3)
			or := newOracle(w, pts, src.pool)
			q := op{kind: opQuery, pool: 0, point: src.pool[0]}
			truth, _ := or.ls.KNN(q.point, knnK)
			bent := append([]distperm.Result(nil), truth...)
			bent[3].Distance = math.Nextafter(bent[3].Distance, math.Inf(1))
			swapped := append([]distperm.Result(nil), truth...)
			swapped[9].ID = truth[9].ID + 1
			samples := []*sample{{op: q, results: truth}, {op: q, results: bent}, {op: q, results: swapped}}
			or.check(samples)
			if !samples[0].ok || samples[1].ok || samples[2].ok {
				t.Errorf("oracle verdicts true/bent/swapped = %v/%v/%v, want true/false/false",
					samples[0].ok, samples[1].ok, samples[2].ok)
			}
		})
	}
}
