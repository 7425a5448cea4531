// Command bench is the repository's benchmark: seven workloads over the
// Gremlin data and control planes, the same end-to-end metrics on each,
// and a per-layer ladder from a traced run. README.md in this
// directory says what each workload and metric is for.
//
//	go run ./bench                      every workload, end to end
//	go run ./bench -trace               every workload traced, plus the ladder rungs
//	go run ./bench -workload hop_small  one workload; last line is the result JSON
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

const (
	// defaultSeconds is the measured phase of one workload; BENCHMARK.json
	// freezes the same figure as run_seconds.
	defaultSeconds = 10
	// maxWarmup is the unmeasured lead-in; short runs shrink it with them.
	maxWarmup = 2 * time.Second
	// defaultOutDir receives trace files and scratch data. It is inside the
	// checkout and listed in .gitignore.
	defaultOutDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// normalizeArgs lets -trace be given both bare (a mode switch, as the
// README shows) and with a separate 0/1 value (as the acceptance driver
// passes it): "-trace 1" becomes "-trace=1" before the flag package,
// which would stop parsing at the stray value, sees it.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload (default: all, each in its own process)")
		seed     = fs.Int64("seed", 1, "seed for topology, arrival schedule, request classes and payload bytes")
		seconds  = fs.Float64("seconds", defaultSeconds, "measured seconds per workload")
		traced   = fs.Bool("trace", false, "traced run: per-layer metrics, span files, ladder rungs")
		jsonPath = fs.String("json", "", "append each workload's full result to this file (read by -compare)")
		outDir   = fs.String("out", defaultOutDir, "directory for trace files and scratch data")
		compare  = fs.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		load1    = fs.Float64("load1", -1, "1-minute load average before the whole run began (set by the all-workloads parent)")
	)
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare A.json B.json")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	measure := time.Duration(*seconds * float64(time.Second))
	cfg := runConfig{
		seed:    *seed,
		measure: measure,
		warmup:  min(maxWarmup, measure/5),
		trace:   *traced,
		setups:  setupRounds,
		outDir:  *outDir,
		rung:    rungSlice,
		load1:   *load1,
	}
	if cfg.trace {
		cfg.setups = 1
	}
	if *name == "" {
		return runAll(cfg, *jsonPath, stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	res, err := runOne(w, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if *jsonPath != "" {
		if err := appendResult(*jsonPath, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printResultLine(stdout, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runOne runs a single workload in this process, with a scratch
// directory that is gone when it returns.
func runOne(w *workload, cfg runConfig, stdout io.Writer) (*result, error) {
	dir, err := makeWorkDir(cfg.outDir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	return runWorkload(w, cfg, stdout)
}

// resultLine is the last line of a single-workload run's standard
// output: exactly these four keys, and under metrics exactly the
// BENCHMARK.json end_to_end names (untraced) or per_layer names (traced).
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResultLine(out io.Writer, r *result) error {
	line := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	if r.Traced {
		line.Metrics = r.Metrics
	} else {
		for _, def := range endToEnd {
			if def.contract {
				line.Metrics[def.name] = r.Metrics[def.name]
			}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}

// runAll runs every workload, each in a fresh process so heap, pools and
// file descriptors never carry over from one to the next.
func runAll(cfg runConfig, jsonPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	collect := jsonPath
	if collect == "" {
		dir, err := makeWorkDir(cfg.outDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		defer os.RemoveAll(dir)
		collect = dir + "/results.json"
	}
	before, _ := readResults(collect)
	load1 := loadAverage()
	failed := 0
	for _, w := range workloads {
		args := []string{
			"-workload", w.name,
			"-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.measure.Seconds()),
			fmt.Sprintf("-trace=%t", cfg.trace),
			"-out", cfg.outDir,
			"-json", collect,
			"-load1", fmt.Sprint(load1),
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			var ee *exec.ExitError
			if !errors.As(err, &ee) {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			}
			failed++
		}
	}
	all, err := readResults(collect)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	printSummary(stdout, all[len(before):], failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// printSummary closes an all-workloads run with one JSON object. This
// benchmark measures; it claims nothing, and says so.
func printSummary(out io.Writer, rs []result, failed int) {
	type row struct {
		Workload string            `json:"workload"`
		Correct  bool              `json:"correct"`
		Noisy    bool              `json:"noisy,omitempty"`
		Metrics  map[string]metric `json:"metrics"`
	}
	summary := struct {
		Workloads []row `json:"workloads"`
		Failed    int   `json:"workloadsFailed"`
		Claim     any   `json:"claim"`
	}{Failed: failed}
	for _, r := range rs {
		summary.Workloads = append(summary.Workloads, row{r.Workload, r.Correct, r.Env.Noisy, r.Metrics})
	}
	b, _ := json.MarshalIndent(summary, "", " ")
	fmt.Fprintf(out, "\n%s\n", b)
}

func readResults(path string) ([]result, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// appendResult adds r to the JSON array in path, creating it if needed,
// so alternating runs can build two result sets side by side.
func appendResult(path string, r *result) error {
	rs, err := readResults(path)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(append(rs, *r), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
