package main

// A/A mode: the same binary measured against itself. Every workload runs on
// N seeds twice, each run in a fresh process, and the two sets are compared
// the way a change is compared with its parent: per metric, the spread of a
// set across seeds (distance between the quartiles over the median) and the
// move of the second set's median against the first, both held against the
// bound BENCHMARK.json fixes. Work counts must match exactly, seed by seed.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads back.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []manifestMetric        `json:"end_to_end"`
	PerLayer  []manifestMetric        `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readManifest finds BENCHMARK.json from the repository root or from this
// directory.
func readManifest() (*manifest, error) {
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild measures one (workload, seed) in a fresh process and waits for it.
func runChild(self string, cfg config, workload string, seed int) (*resultLine, error) {
	size := "full"
	if cfg.tiny {
		size = "tiny"
	}
	out, err := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-size", size).Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(v, n=4) does (exclusive method).
func quartiles(samples []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		pos := p*float64(len(v)+1) - 1
		lo := int(pos)
		switch {
		case pos <= 0:
			return v[0]
		case lo+1 >= len(v):
			return v[len(v)-1]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func runAA(n int, cfg config) int {
	man, err := readManifest()
	if err != nil {
		fatal(err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	if n < 2 {
		fatal(fmt.Errorf("-aa needs at least 2 seeds"))
	}
	bad := 0
	fmt.Printf("A/A: %d seeds, two sets, %gs per run, host %+v\n", n, cfg.seconds, hostInfo())
	fmt.Printf("%-15s %-12s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "spread A", "spread B", "B vs A", "bound", "verdict")
	for _, def := range workloadDefs {
		if cfg.workload != "" && cfg.workload != "all" && cfg.workload != def.name {
			continue
		}
		// The sets are interleaved seed by seed, so that drift of the host
		// falls on both alike.
		sets := [2][]*resultLine{}
		for seed := 1; seed <= n; seed++ {
			for s := range sets {
				res, err := runChild(self, cfg, def.name, seed)
				if err != nil {
					fatal(err)
				}
				if !res.Correct {
					fmt.Printf("%-15s seed %d: %d of %d operations failed\n", def.name, seed, res.Failed, res.Attempted)
					bad++
				}
				sets[s] = append(sets[s], res)
			}
		}
		for _, m := range man.EndToEnd {
			var a, b []float64
			exact := true
			for i := range sets[0] {
				x, y := sets[0][i].Metrics[m.Name].Value, sets[1][i].Metrics[m.Name].Value
				a, b = append(a, x), append(b, y)
				exact = exact && x == y
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			spreadA, spreadB, move := ratio(a3-a1, a2), ratio(b3-b1, b2), ratio(b2-a2, a2)
			if m.Better == "higher" {
				move = -move
			}
			// setup_s is held to its bound by its median only.
			spread := max(spreadA, spreadB)
			if m.Name == "setup_s" {
				spread = 0
			}
			verdict, failed := "steady", true
			switch {
			case strings.HasSuffix(m.Name, "_work") && !exact:
				verdict = "NOT EXACT"
			case move > m.Bound:
				verdict = "MOVED"
			case spread > m.Bound:
				verdict = "TOO WIDE"
			case spread > m.Bound/3:
				verdict, failed = "wide", false
			default:
				failed = false
			}
			if failed {
				bad++
			}
			fmt.Printf("%-15s %-12s %14.6g %14.6g %8.2f%% %8.2f%% %+8.2f%% %6.1f%%  %s\n",
				def.name, m.Name, a2, b2, 100*spreadA, 100*spreadB, 100*move, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("A/A: %d findings\n", bad)
		return 1
	}
	fmt.Println("A/A: every metric within its bound, every work count exact")
	return 0
}
