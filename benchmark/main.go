// Command phloem-benchmark is the repository's one benchmark: it drives the
// four things users do with Phloem (compile a kernel, autotune it, simulate
// it, run it natively) through the layers' public functions, checks every
// output against the plain-Go references, and prints every metric by name.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	jsonPath string
}

func main() {
	var cfg config
	var trace, aa int
	var size, cpuProfile, memProfile string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 12, "how long the timed loop measures")
	flag.IntVar(&trace, "trace", 0, "1: traced run, prints the per-layer metrics; 0: end-to-end metrics")
	flag.StringVar(&size, "size", "full", "input size: full, or tiny for the smoke test")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the full report here (and spans to <file>.trace.json on a traced run)")
	flag.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the run")
	flag.StringVar(&memProfile, "memprofile", "", "write an allocation profile at exit")
	flag.IntVar(&aa, "aa", 0, "A/A mode: run every workload on this many seeds twice and compare the two sets")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.tiny = size == "tiny"
	if flag.NArg() > 0 || (size != "full" && size != "tiny") || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if aa > 0 {
		os.Exit(runAA(aa, cfg))
	}
	if cfg.workload == "" {
		flag.Usage()
		os.Exit(2)
	}

	// The only concurrency is what the program under test creates; two
	// processors let a pipelined program overlap without measuring the
	// scheduler of a larger host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	defs := workloadDefs
	if cfg.workload != "all" {
		def, ok := findWorkload(cfg.workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (have %s)", cfg.workload, workloadNames()))
		}
		defs = []workloadDef{def}
	}
	for _, def := range defs {
		rep, err := runWorkload(def, cfg)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", def.name, err))
		}
		if cfg.jsonPath != "" {
			path := cfg.jsonPath
			if len(defs) > 1 {
				path = def.name + "." + path
			}
			if err := rep.write(path); err != nil {
				fatal(err)
			}
		}
		// The result line is the last line of a workload's output.
		fmt.Println(rep.resultLine())
	}

	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phloem-benchmark:", err)
	os.Exit(2)
}

// host describes where a run was measured.
type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// report is everything one run of one workload measured.
type report struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Traced      bool    `json:"traced"`
	Size        string  `json:"size"`
	Host        host    `json:"host"`
	Fingerprint string  `json:"fingerprint"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	// Metrics are the declared metrics of this kind of run: end-to-end when
	// untraced, per-layer when traced.
	Metrics []summary `json:"metrics"`
	// Derived are printed but never gated: ratios of two gated metrics, and
	// on a traced run the self time of every span name.
	Derived []summary `json:"derived"`
	// Samples are the per-operation times behind pipe_ms and serial_ms.
	Samples map[string][]float64 `json:"samples"`

	tracer *tracer
}

func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range r.Metrics {
		metrics[m.Name] = value{m.Median, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics})
	if err != nil {
		fatal(err)
	}
	return string(line)
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if r.tracer != nil {
		return r.tracer.writeChrome(path + ".trace.json")
	}
	return nil
}
