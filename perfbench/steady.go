package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyMain runs each workload runs times, with seeds seed, seed+1, ...,
// as separate processes, and prints every end-to-end metric's median,
// quartiles and spread — the distance between the quartiles as a share of
// the median — against the metric's bound from BENCHMARK.json.
func steadyMain(name string, seed int64, seconds float64, runs int) int {
	var spec benchSpec
	b, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: reading BENCHMARK.json: %v\n", err)
		return 1
	}
	var ws []workload
	if name == "all" {
		ws = workloads
	} else {
		w, err := workloadByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ws = []workload{w}
	}
	bin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	status := 0
	for _, w := range ws {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(bin, "--workload", w.name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if err == nil {
				err = json.Unmarshal([]byte(lines[len(lines)-1]), &rep)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				return 1
			}
			fmt.Printf("%s seed %d: correct=%v attempted=%d failed=%d\n", w.name, s, rep.Correct, rep.Attempted, rep.Failed)
			if !rep.Correct {
				status = 1
			}
			for k, v := range rep.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		var tab bytes.Buffer
		fmt.Fprintf(&tab, "%-22s %12s %12s %12s %8s %6s  %-26s %s\n", w.name, "q1", "median", "q3", "spread", "bound", "verdict", "runs")
		for _, m := range spec.EndToEnd {
			q := quartiles(values[m.Name])
			spread := ratio(q[2]-q[0], q[1])
			verdict := "steady (< bound/3)"
			switch {
			case spread > m.Bound:
				verdict = "OVER BOUND"
			case spread >= m.Bound/3:
				verdict = "within bound"
			}
			runs := make([]string, len(values[m.Name]))
			for i, v := range values[m.Name] {
				runs[i] = strconv.FormatFloat(v, 'g', 4, 64)
			}
			fmt.Fprintf(&tab, "%-22s %12.6g %12.6g %12.6g %8.4f %6.3g  %-26s %s\n",
				m.Name, q[0], q[1], q[2], spread, m.Bound, verdict, strings.Join(runs, " "))
		}
		fmt.Print(tab.String())
	}
	return status
}
