package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"sync"

	"distperm/internal/dataset"
	"distperm/internal/metric"
	"distperm/pkg/distperm"
)

// Fixed shape of every workload: 6-d vectors under L2, a distance-permutation
// index over 12 sites, 10-NN queries, approximate queries at nprobe 4.
const (
	dim      = 6
	sites    = 12
	knnK     = 10
	nprobe   = 4
	querySig = 0.01 // σ of the Gaussian perturbation turning a database point into a query
	clusters = 32
	clusSig  = 0.05
)

// workload is one traffic mix; README.md records why each was chosen.
type workload struct {
	name string
	// data is the generator ("uniform" or "clustered") and n its size.
	data string
	n    int
	// frozen serves a frozen container opened with mmap; mutable serves
	// through a MutableEngine with a write-ahead log.
	frozen, mutable bool
	// approx sends approximate queries at nprobe instead of exact ones.
	approx bool
	// pool is how many fixed queries the queries are drawn from,
	// Zipf-skewed with exponent zipf when zipf > 0, uniformly otherwise.
	pool int
	zipf float64
	// writeFrac of the operations are writes, half inserts of fresh points
	// and half deletes of live base points.
	writeFrac float64
	// rate is the open loop's offered load in operations per second.
	rate float64
	// rebuildThreshold is the pending-write count that triggers a
	// background rebuild (mutable only).
	rebuildThreshold int
}

var workloads = []workload{
	{name: "approx-mmap", data: "clustered", n: 200_000, frozen: true, approx: true, pool: 1024, rate: 60},
	{name: "mixed-rw", data: "uniform", n: 50_000, mutable: true, pool: 512, zipf: 1.1,
		writeFrac: 0.2, rate: 40, rebuildThreshold: 75},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// The database, its index sites and the query pools are the same on every
// run, like a published ANN benchmark's data and query sets: the run seed
// draws which pool queries are sent in which order, and the writes. Counts
// that depend on the data (distinct rows, index size, approximate
// candidates) then vary only with the drawn operations.
const (
	dataSeed = 1
	siteSeed = 7936
)

// genPoints generates the workload's database.
func genPoints(w workload) []metric.Point {
	rng := rand.New(rand.NewSource(dataSeed))
	if w.data == "clustered" {
		return dataset.ClusteredVectors(rng, w.n, dim, clusters, clusSig)
	}
	return dataset.UniformVectors(rng, w.n, dim)
}

// perturb returns a database point moved by N(0, querySig²) per coordinate:
// a query that follows the data distribution.
func perturb(rng *rand.Rand, base metric.Point) metric.Vector {
	b := base.(metric.Vector)
	q := make(metric.Vector, len(b))
	for j, v := range b {
		q[j] = v + querySig*rng.NormFloat64()
	}
	return q
}

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"query", "insert", "delete"}[k]
}

// op is one request the load generator sends.
type op struct {
	kind opKind
	// pool is the query's pool index, -1 for a write or a read-your-writes
	// probe.
	pool int
	// point is the query or the inserted point.
	point metric.Vector
	// del is the base ID a delete removes.
	del int
}

// opSource deals the workload's operation sequence, drawn from the run
// seed. The i-th operation depends only on the seed and i, whichever sender
// takes it.
type opSource struct {
	w    workload
	pool []metric.Vector

	mu      sync.Mutex
	rng     *rand.Rand
	zipf    *rand.Zipf
	delPerm []int
	dels    int
}

func newOpSource(w workload, points []metric.Point, seed int64) *opSource {
	s := &opSource{w: w, rng: rand.New(rand.NewSource(seed))}
	fixed := rand.New(rand.NewSource(dataSeed + 1))
	for i := 0; i < w.pool; i++ {
		s.pool = append(s.pool, perturb(fixed, points[fixed.Intn(len(points))]))
	}
	if w.zipf > 0 {
		s.zipf = rand.NewZipf(s.rng, w.zipf, 1, uint64(w.pool-1))
	}
	if w.writeFrac > 0 {
		s.delPerm = s.rng.Perm(len(points))
	}
	return s
}

func (s *opSource) next() op {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w.writeFrac > 0 && s.rng.Float64() < s.w.writeFrac {
		if s.rng.Intn(2) == 0 {
			p := make(metric.Vector, dim)
			for j := range p {
				p[j] = s.rng.Float64()
			}
			return op{kind: opInsert, pool: -1, point: p}
		}
		id := s.delPerm[s.dels]
		s.dels++
		return op{kind: opDelete, pool: -1, del: id}
	}
	var i int
	if s.zipf != nil {
		i = int(s.zipf.Uint64())
	} else {
		i = s.rng.Intn(s.w.pool)
	}
	return op{kind: opQuery, pool: i, point: s.pool[i]}
}

// writePoints stores points as a little-endian header (n, d) followed by
// n·d float64 coordinates, synced to disk.
func writePoints(path string, pts []metric.Point) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	d := len(pts[0].(metric.Vector))
	err = binary.Write(bw, binary.LittleEndian, [2]uint32{uint32(len(pts)), uint32(d)})
	buf := make([]byte, 8*d)
	for _, p := range pts {
		if err != nil {
			break
		}
		for j, v := range p.(metric.Vector) {
			binary.LittleEndian.PutUint64(buf[8*j:], math.Float64bits(v))
		}
		_, err = bw.Write(buf)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readPoints loads a writePoints file, one allocation per point as the
// dataset generators make them.
func readPoints(path string) ([]distperm.Point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [2]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	n, d := int(hdr[0]), int(hdr[1])
	pts := make([]distperm.Point, n)
	buf := make([]byte, 8*d)
	for i := range pts {
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		v := make(metric.Vector, d)
		for j := range v {
			v[j] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
		}
		pts[i] = v
	}
	return pts, nil
}

// buildIndex builds the workload's distance-permutation index over db the
// way the server does.
func buildIndex(db *distperm.DB) (*distperm.PermIndex, error) {
	idx, err := distperm.Build(db, distperm.Spec{Index: "distperm", K: sites, Seed: siteSeed})
	if err != nil {
		return nil, err
	}
	return idx.(*distperm.PermIndex), nil
}

// writeFrozen builds the index over pts and writes its frozen container,
// embedding the points, to path.
func writeFrozen(path string, pts []metric.Point) error {
	db, err := distperm.NewDB(metric.L2{}, pts)
	if err != nil {
		return err
	}
	px, err := buildIndex(db)
	if err != nil {
		return err
	}
	return saveFrozen(path, px)
}

// saveFrozen writes px's frozen container, embedding its points, to path
// and syncs it to disk.
func saveFrozen(path string, px *distperm.PermIndex) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = distperm.WriteFrozenIndex(f, px)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
