// Command benchmark is the repo's benchmark: four fixed-work workloads over
// one canonical, seed-generated set list, six end-to-end metrics per
// workload, and a traced run that times every layer from outside. See
// README.md next to this file for what each number means.
//
//	go run -C benchmark .                      # all workloads, end-to-end metrics
//	go run -C benchmark . -trace 1             # per-layer metrics and the waterfall
//	go run -C benchmark . -workload serve_zipf # one workload, as the driver runs it
//	go run -C benchmark . -noise 5             # run-to-run spread against the bounds
//	go run -C benchmark . -quick               # smoke run on a toy input
//
// Linux only: CPU and memory come from /proc.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics, the same six for every workload,
// with the share of the parent's median by which each may get worse. The
// bounds are as wide as the host is noisy, not as the program is: see the
// noise floor in README.md. BENCHMARK.json is checked against this table by a
// test.
var endToEnd = []struct {
	name, unit string
	higher     bool // better when higher
	bound      float64
}{
	{"setup_s", "s", false, 0.25},
	{"op_p50_ms", "ms", false, 0.25},
	{"op_tail_ms", "ms", false, 0.25},
	{"ops_per_s", "1/s", true, 0.25},
	{"cpu_ms_per_op", "ms", false, 0.25},
	{"peak_rss_mb", "MB", false, 0.15},
}

// options are the orchestrator's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 1 = the traced run
	spans    string
	noise    int
	quick    bool

	binDir, workRoot string
}

func main() {
	if len(os.Args) > 1 && strings.HasPrefix(os.Args[1], "_") {
		if err := childMain(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all of them)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the orders, key sequences, probe sets and mutations drawn on the canonical KB")
	flag.Float64Var(&o.seconds, "seconds", 15, "measuring time per workload")
	flag.IntVar(&o.trace, "trace", 0, "1 = the traced run: per-layer metrics, no end-to-end metrics")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this file as JSON")
	flag.IntVar(&o.noise, "noise", 0, "run everything N times and compare the spread of each metric with its bound")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: toy input, one short pass, numbers are meaningless")
	flag.Parse()
	if err := orchestrate(&o); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// moduleDir finds this module's directory from the working directory, which
// is either the repo root (the driver, run.sh) or the module itself
// (go run -C benchmark).
func moduleDir() (string, error) {
	for _, dir := range []string{".", "benchmark"} {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.Contains(string(b), "module github.com/remi-kb/remi/benchmark\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("run from the repo root or from benchmark/: no go.mod of the benchmark module here")
}

func orchestrate(o *options) error {
	mod, err := moduleDir()
	if err != nil {
		return err
	}
	// Everything written lands under .bench_build, which .gitignore names.
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return err
	}
	o.binDir, o.workRoot = filepath.Join(build, "bin"), filepath.Join(build, "work")
	for _, d := range []string{o.binDir, o.workRoot} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	// The servers are built before any clock starts.
	if err := goBuild(mod, o.binDir,
		"github.com/remi-kb/remi/cmd/remi-serve", "github.com/remi-kb/remi/cmd/remi-router"); err != nil {
		return err
	}
	fingerprint(o)

	if o.noise > 0 {
		return noise(o)
	}
	reports, err := suite(o)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range reports {
		failed += r.Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}

// suite runs what the flags select — one workload or all, traced or not —
// and prints each report, ending with the driver's result line.
func suite(o *options) ([]*report, error) {
	if o.trace != 0 {
		r, err := traced(o)
		if err != nil {
			return nil, err
		}
		printReport(r, o)
		return []*report{r}, nil
	}
	var reports []*report
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		total0, steal0 := cpuTicks()
		r, err := measure(o, w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		// On a shared host a neighbour can take the CPU for minutes; a run
		// that lost time to it is not comparable with one that did not.
		if total, steal := cpuTicks(); total > total0 {
			share := float64(steal-steal0) / float64(total-total0)
			r.Notes = append(r.Notes, fmt.Sprintf("hypervisor stole %.1f%% of the CPU time during this run", 100*share))
			if share > 0.02 {
				r.Notes = append(r.Notes, "WARNING: the numbers of this run are inflated by CPU steal")
			}
		}
		printReport(r, o)
		reports = append(reports, r)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	return reports, nil
}

// generated runs the _gen child for one input into a new directory.
func generated(o *options, label string, scale float64, sets, cycles int) (string, error) {
	dir, err := os.MkdirTemp(o.workRoot, label+"-")
	if err != nil {
		return "", err
	}
	if o.quick {
		scale, sets = quickScale, quickSets
	}
	_, _, err = runChild("_gen", "-dir", dir, "-seed", fmt.Sprint(o.seed),
		"-scale", fmt.Sprint(scale), "-sets", fmt.Sprint(sets), "-cycles", fmt.Sprint(cycles))
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// envArgs are the flags every measuring child takes.
func envArgs(o *options, t0 time.Time) []string {
	return []string{"-bin", o.binDir, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-t0", strconv.FormatInt(t0.UnixNano(), 10), "-quick=" + strconv.FormatBool(o.quick)}
}

// measure runs one workload: inputs in one child, the workload in another.
// Set-up time counts from here to the workload's first timed op.
func measure(o *options, w workload) (*report, error) {
	t0 := time.Now()
	e := env{seconds: o.seconds, quick: o.quick}
	cycles := 0
	if w.cycles {
		cycles = compactGap + e.liveCycles() + 2 // warm-up, timed ops, the two closing checks
	}
	dir, err := generated(o, w.name, w.scale, w.sets, cycles)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	return childReport(append([]string{"_workload", "-name", w.name, "-dir", dir}, envArgs(o, t0)...)...)
}

// childReport runs a measuring child and decodes the report it prints.
func childReport(args ...string) (*report, error) {
	out, _, err := runChild(args...)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("reading the report of %s: %w", args[0], err)
	}
	return &r, nil
}

// traced runs the layer probes: both inputs, then one _layers child.
func traced(o *options) (*report, error) {
	t0 := time.Now()
	mineDir, err := generated(o, "layers-mine", mineScale, mineSets, 0)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(mineDir)
	kbDir, err := generated(o, "layers-kb", kbScale, kbSets, layerApplies)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(kbDir)
	return childReport(append([]string{"_layers", "-dir", mineDir, "-kbdir", kbDir, "-spans", o.spans}, envArgs(o, t0)...)...)
}

// childMain dispatches the re-executed modes.
func childMain(mode string, args []string) error {
	fs := flag.NewFlagSet(mode, flag.ContinueOnError)
	var (
		e            env
		name, kbDir  string
		spans        string
		scale        float64
		sets, cycles int
		t0           int64
	)
	fs.StringVar(&name, "name", "", "workload")
	fs.StringVar(&e.dir, "dir", "", "input directory")
	fs.StringVar(&kbDir, "kbdir", "", "KB-path input directory")
	fs.StringVar(&e.binDir, "bin", "", "directory of the server binaries")
	fs.StringVar(&spans, "spans", "", "span output file")
	fs.Int64Var(&e.seed, "seed", 1, "seed")
	fs.Float64Var(&e.seconds, "seconds", 15, "measuring time")
	fs.Int64Var(&t0, "t0", 0, "orchestrator start, Unix ns")
	fs.BoolVar(&e.quick, "quick", false, "smoke run")
	fs.Float64Var(&scale, "scale", 1, "generator scale")
	fs.IntVar(&sets, "sets", 0, "target sets to sample")
	fs.IntVar(&cycles, "cycles", 0, "mutation batches to generate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	e.t0 = time.Unix(0, t0)

	emit := func(v any, err error) error {
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(v)
	}
	switch mode {
	case "_gen":
		return generate(e.dir, e.seed, scale, sets, cycles)
	case "_compile":
		return compileKB(fs.Arg(0), fs.Arg(1))
	case "_replica":
		return emit(replicaAnswers(fs.Arg(0), fs.Arg(1), e.seed))
	case "_layers":
		return emit(runLayers(e, kbDir, spans))
	case "_workload":
		for _, w := range workloads {
			if w.name == name {
				return emit(w.run(e))
			}
		}
		return fmt.Errorf("unknown workload %q", name)
	}
	return fmt.Errorf("unknown mode")
}

// fingerprint prints the environment the numbers were taken in.
func fingerprint(o *options) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unreadable"
		}
		return strings.TrimSpace(string(b))
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("environment: cpus=%d gomaxprocs=%d kernel=%s go=%s commit=%s governor=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), read("/proc/sys/kernel/osrelease"), runtime.Version(),
		commit, read("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
	fmt.Printf("input: seed=%d seconds=%g mining scale=%g (%d sets) kb scale=%g (%d sets) quick=%t\n",
		o.seed, o.seconds, mineScale, mineSets, kbScale, kbSets, o.quick)
	if runtime.NumCPU() < 2 {
		fmt.Println("warning: fewer than 2 CPUs; the servers and the load generator will share one")
	}
}

// printReport prints every metric by name with its unit, the per-pass values
// behind each median, and last the one-line JSON result the driver reads.
func printReport(r *report, o *options) {
	fmt.Printf("\n== %s: %d ops attempted, %d failed\n", r.Workload, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-28s %14.6g %s", name, m.Value, m.Unit)
		if p := r.Passes[name]; len(p) > 1 {
			line += fmt.Sprintf("   passes %.6g, IQR %.2f%%", p, 100*relSpread(p))
		}
		fmt.Println(line)
	}
	for _, n := range r.Notes {
		fmt.Println("  note:", n)
	}
	if r.Digest != "" {
		fmt.Println("  answers sha256:", r.Digest)
	}
	for _, f := range r.Failures {
		fmt.Println("  FAILED:", f)
	}
	if o.quick {
		fmt.Println("  (quick run: the numbers above mean nothing)")
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, r.Metrics})
	fmt.Println(string(b))
}
