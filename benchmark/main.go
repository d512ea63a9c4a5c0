// Command benchmark is dpn's one benchmark harness: four verified
// workloads measured end to end, and a ladder that times each module's
// public API in the same process. See README.md.
//
//	bash benchmark/run.sh                      every workload, untraced then traced
//	bash benchmark/run.sh -workload bulk-wire  one workload, one run
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

const defaultSeed = 2003

func main() {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all four, untraced then traced)")
		seed    = flag.Int64("seed", defaultSeed, "seed the inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long one run measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
		out     = flag.String("out", outDir, "directory for spans, traces, reports and scratch files")
		compare = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	// One OS process, at most four of its cores: the load generator must
	// not outgrow the box the program runs on.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	outDir = *out
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	opt := runOptions{seed: *seed, seconds: *seconds, trace: *trace != 0, div: 1}

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		rep, err := runOne(w, opt)
		if err != nil {
			fatal(err)
		}
		res, err := rep.result()
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		// A run that measured exits 0 even if jobs failed: the result line
		// says so (correct, failed). Only the all-workloads command below
		// turns a failure into a non-zero exit.
		fmt.Println(string(line))
		return
	}

	// Every workload untraced for the end-to-end numbers, then traced for
	// the per-layer numbers; one document with every metric by name. Each
	// run is a process of its own, exactly the run -workload makes, so
	// that no workload measures the heap the one before it left behind.
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	doc := document{Seed: *seed, Env: currentEnv(), EndToEnd: endToEnd, PerLayer: perLayer()}
	failed := false
	for _, mode := range []string{"e2e", "layers"} {
		for _, w := range workloads() {
			trace := "0"
			if mode == "layers" {
				trace = "1"
			}
			cmd := exec.Command(self, "-workload", w.name(), "-seed", fmt.Sprint(*seed),
				"-seconds", fmt.Sprint(*seconds), "-trace", trace, "-out", outDir)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fatal(fmt.Errorf("%s (%s): %w", w.name(), mode, err))
			}
			rep, err := readReport(filepath.Join(outDir, w.name()+"."+mode+".json"))
			if err != nil {
				fatal(err)
			}
			doc.Runs = append(doc.Runs, rep)
			failed = failed || rep.Failed > 0
		}
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", b)
	if failed {
		os.Exit(1)
	}
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// document is what a run of every workload prints: the input of
// -compare.
type document struct {
	Seed     int64       `json:"seed"`
	Env      env         `json:"env"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
	Runs     []*report   `json:"runs"`
	// Claim is what gain the change under test claims. This harness
	// defines the metrics; it claims none.
	Claim *string `json:"claim"`
}

func findWorkload(name string) workload {
	for _, w := range workloads() {
		if w.name() == name {
			return w
		}
	}
	return nil
}

// runOne runs one workload once, untraced or traced, and leaves its
// full report in the output directory.
func runOne(w workload, opt runOptions) (*report, error) {
	run := runUntraced
	if opt.trace {
		run = runTraced
	}
	rep, err := run(w, opt)
	if rep != nil {
		mode := "e2e"
		if opt.trace {
			mode = "layers"
		}
		if b, jerr := json.MarshalIndent(rep, "", "  "); jerr == nil {
			_ = os.WriteFile(filepath.Join(outDir, w.name()+"."+mode+".json"), b, 0o644) // the report is also returned
		}
		for _, f := range rep.Failures {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name(), f)
		}
		for _, n := range rep.Notes {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name(), n)
		}
	}
	return rep, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
