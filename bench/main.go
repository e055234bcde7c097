// Command bench is the repository's one benchmark: four workloads, six
// bounded end-to-end metrics plus fail_share, and a per-layer table from
// a separate traced run. README.md in this directory documents the
// workloads, the metric catalogue and the predictions; BENCHMARK.json at
// the repository root names the same things for the driver.
//
//	go run ./bench -all -seed 1                 # every workload, untraced then traced
//	go run ./bench -workload steady -trace 0    # one run, as the driver invokes it
//	go run ./bench -compare a.json b.json       # A/A or A/B over two result files
//	go run ./bench -selftest                    # corrupted oracle: must exit non-zero
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"paramdbt/internal/obs"
)

// procStart stands in for "child-process start": the first set-up's
// clock starts here, so runtime start-up and package init are in it.
var procStart = time.Now()

const outDir = "bench/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// machine is the fingerprint every result carries; numbers from
// different fingerprints are not comparable.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// runRecord is one run of one workload, untraced (the end-to-end
// metrics) or traced (the per-layer metrics).
type runRecord struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     int                    `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	FailShare float64                `json:"fail_share"`
	Samples   int                    `json:"samples"` // timed ops
	Groups    int                    `json:"groups"`  // passes (serve: 100-request slices) the medians are over
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]metricValue `json:"info,omitempty"` // printed, never compared
	Machine   machine                `json:"machine"`
}

// runUntraced measures the end-to-end metrics: obs off, no hooks, no
// spans.
func runUntraced(name string, seed int64, b budget, sz sizing, selftest bool, started time.Time) (*runRecord, error) {
	if obs.On() {
		return nil, fmt.Errorf("obs is enabled: end-to-end metrics are measured with telemetry off")
	}
	rec := &runRecord{Workload: name, Seed: seed, Metrics: map[string]metricValue{}, Info: map[string]metricValue{}, Machine: thisMachine()}
	var fx *fixture
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if fx != nil {
			fx.close()
		}
		t0 := time.Now()
		if i == 0 {
			t0 = started
		}
		var err error
		if fx, err = setup(name, seed, sz, setupOpts{selftest: selftest}, nil); err != nil {
			return nil, err
		}
		_, _, failed := warmup(fx, false)
		setups = append(setups, time.Since(t0).Seconds())
		rec.Failed += failed
		rec.Attempted += len(fx.progs)
	}
	defer fx.close()

	// Start every window from a collected heap, so the GC's pacing in the
	// window does not depend on how much set-up garbage happens to be left.
	runtime.GC()
	window := time.Now()
	var ops []opResult
	var groups []group
	if name == "serve" {
		ops = servePass(fx, fx.serve, b.passes, window.Add(time.Duration(b.seconds*float64(time.Second))), nil, 0, window)
		groups = serveSlices(ops)
	} else {
		b.loop(1, func(i int) {
			rs := enginePass(fx, productCfg, nil, i*len(fx.progs), window)
			ops = append(ops, rs...)
			groups = append(groups, passGroup(rs))
		})
	}

	rec.Samples, rec.Groups = len(ops), len(groups)
	rec.Attempted += len(ops)
	rec.Failed += countFailed(ops)
	rec.FailShare = float64(rec.Failed) / float64(rec.Attempted)
	values := summarize(groups)
	values["setup_s"] = median(setups)
	values["peak_rss_mb"] = peakRSSMB()
	for _, m := range endToEnd {
		rec.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	if name == "serve" {
		rec.Info["op_ms_p99"] = metricValue{quantile(latenciesMs(ops), 0.99), "ms"}
	}
	return rec, nil
}

// runPerLayer is the traced run boiled down to the per-layer catalogue.
func runPerLayer(name string, seed int64, b budget, sz sizing) (*runRecord, *tracedRun, error) {
	run, err := runTraced(name, seed, b, sz)
	if err != nil {
		return nil, nil, err
	}
	rec := &runRecord{Workload: name, Seed: seed, Trace: 1, Attempted: run.ops, Failed: run.failed,
		FailShare: float64(run.failed) / float64(run.ops), Samples: len(run.arms[1].ops),
		Metrics: map[string]metricValue{}, Machine: thisMachine()}
	values := run.metrics()
	for _, m := range perLayer {
		rec.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return rec, run, nil
}

// print writes one "workload metric value unit" line per metric, in
// catalogue order, and the driver's result object as the last line.
func (rec *runRecord) print() {
	names := make([]string, 0, len(rec.Metrics))
	if rec.Trace == 0 {
		for _, m := range endToEnd {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range perLayer {
			names = append(names, m.Name)
		}
	}
	for _, n := range names {
		v := rec.Metrics[n]
		note := ""
		if n == "op_ms_p50" || n == "op_ms_p90" {
			note = fmt.Sprintf(" (%d ops in %d groups)", rec.Samples, rec.Groups)
		}
		fmt.Printf("%s %s %.6g %s%s\n", rec.Workload, n, v.Value, v.Unit, note)
	}
	info := make([]string, 0, len(rec.Info))
	for n := range rec.Info {
		info = append(info, n)
	}
	sort.Strings(info)
	for _, n := range info {
		fmt.Printf("%s %s %.6g %s (information, not a metric)\n", rec.Workload, n, rec.Info[n].Value, rec.Info[n].Unit)
	}
	fmt.Printf("%s %s %.6g failed/attempted (%d/%d)\n", rec.Workload, failShare, rec.FailShare, rec.Failed, rec.Attempted)
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(last))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func recordPath(workload string, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, trace))
}

// runOne is one process's work: one workload, untraced or traced. It
// returns the process exit code.
func runOne(name string, seed int64, b budget, trace int, selftest bool) int {
	var rec *runRecord
	var err error
	if trace == 0 {
		rec, err = runUntraced(name, seed, b, productSizing, selftest, procStart)
	} else {
		var run *tracedRun
		if rec, run, err = runPerLayer(name, seed, b, productSizing); err == nil {
			err = writeJSON(filepath.Join(outDir, "trace-"+name+".json"), struct {
				Workload string                `json:"workload"`
				Seed     int64                 `json:"seed"`
				Totals   map[string]spanTotals `json:"totals"`
				Spans    []span                `json:"spans"`
			}{name, seed, run.tr.totals(), run.tr.spans})
		}
	}
	if err == nil {
		err = writeJSON(recordPath(name, trace), rec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	rec.print()
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// result is bench/out/result.json: every run of one -all invocation.
type result struct {
	Rev     string       `json:"git_rev"`
	Seed    int64        `json:"seed"`
	Machine machine      `json:"machine"`
	Runs    []*runRecord `json:"runs"`
}

func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runAll runs every workload in a child process of its own, `repeat`
// times untraced and once traced, and collects the children's records.
func runAll(seed int64, b budget, repeat int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := result{Rev: gitRev(), Seed: seed, Machine: thisMachine()}
	code := 0
	for _, w := range workloads {
		for i := 0; i <= repeat; i++ {
			trace := 0
			if i == repeat {
				trace = 1
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(b.seconds), "-passes", fmt.Sprint(b.passes), "-trace", fmt.Sprint(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%d: %v\n", w.Name, trace, err)
				code = 1
			}
			var rec runRecord
			if raw, err := os.ReadFile(recordPath(w.Name, trace)); err == nil && json.Unmarshal(raw, &rec) == nil {
				res.Runs = append(res.Runs, &rec)
			}
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return code
}

func main() {
	workload := flag.String("workload", "", "run one workload: steady, cold, validate or serve")
	seed := flag.Int64("seed", 1, "seed for program generation (cold, validate) and program order")
	seconds := flag.Float64("seconds", runSeconds, "measure whole passes for this long")
	passes := flag.Int("passes", 0, "measure exactly this many passes instead of -seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, obs off; 1: per-layer metrics, obs on and bench spans")
	all := flag.Bool("all", false, "run every workload, untraced then traced, one child process each; write "+outDir+"/result.json")
	repeat := flag.Int("repeat", 1, "with -all: untraced runs per workload (4 or more let -compare judge the spread)")
	compare := flag.Bool("compare", false, "compare two result.json files given as arguments")
	selftest := flag.Bool("selftest", false, "corrupt one expected value; the run must report fail_share > 0 and exit non-zero")
	flag.Parse()

	b := budget{passes: *passes, seconds: *seconds}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *selftest:
		// cold is the quickest workload to set up; two passes are plenty
		// to see the corrupted expectation fail.
		os.Exit(runOne("cold", *seed, budget{passes: 2}, 0, true))
	case *all:
		os.Exit(runAll(*seed, b, *repeat))
	case *workload != "":
		os.Exit(runOne(*workload, *seed, b, *trace, false))
	}
	flag.Usage()
	os.Exit(2)
}
