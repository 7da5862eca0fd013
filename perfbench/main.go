// Command perfbench is innetcc's end-to-end and per-layer benchmark. It
// drives a freshly built innetcc binary through one workload, checks every
// output against an independent computation, prints a table of every
// metric with its sample count, and ends standard output with one JSON
// object carrying the metrics BENCHMARK.json names. README.md describes
// the workloads and metrics; run.sh builds and starts it:
//
//	bash perfbench/run.sh --workload serve_open --seed 3 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric entry of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// contract is the part of BENCHMARK.json perfbench reads: which metrics a
// run must report, by name and unit.
type contract struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// value is one measured figure: the printed table shows every value, the
// final JSON line only those the contract asks for.
type value struct {
	v    float64
	unit string
	n    int    // samples behind the figure (0 = not a sample statistic)
	note string // shown in the table only
}

// report collects what a workload run measured and checked.
type report struct {
	vals      map[string]value
	attempted int
	failed    int
	problems  []string // correctness failures; any one fails the run
	notes     []string // printed before the table

	// unreached lists metric-name prefixes of layers the workload never
	// calls; their per-layer metrics read 0.
	unreached []string
}

func newReport() *report { return &report{vals: make(map[string]value)} }

func (r *report) set(name string, v float64, unit string, n int) {
	r.vals[name] = value{v: v, unit: unit, n: n}
}

func (r *report) setNote(name string, v float64, unit string, n int, note string) {
	r.vals[name] = value{v: v, unit: unit, n: n, note: note}
}

// reaches reports whether the workload calls the layer a metric belongs to.
func (r *report) reaches(metric string) bool {
	for _, p := range r.unreached {
		if strings.HasPrefix(metric, p) {
			return false
		}
	}
	return true
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// env is what every workload needs: where the program under test lives,
// where scratch state goes, and the run's knobs.
type env struct {
	root    string // checkout root
	bin     string // innetcc binary under test
	work    string // per-run scratch directory under .bench_build
	seed    uint64
	seconds int
	traced  bool
}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: paper, serve_open or bigmesh")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	root, err := os.Getwd() // run.sh starts perfbench at the checkout root
	if err != nil {
		return fail(err)
	}
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return fail(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	e := env{
		root:    root,
		bin:     filepath.Join(root, ".bench_build", "innetcc"),
		seed:    *seed,
		seconds: *seconds,
		traced:  *traced == 1,
	}
	if _, err := os.Stat(e.bin); err != nil {
		return fail(fmt.Errorf("program under test not built: %w", err))
	}
	e.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+*workload+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(e.work)

	var rep *report
	switch *workload {
	case "paper":
		rep, err = runPaper(e)
	case "serve_open":
		rep, err = runServeOpen(e)
	case "bigmesh":
		rep, err = runBigmesh(e)
	default:
		return fail(fmt.Errorf("unknown --workload %q (want paper, serve_open or bigmesh)", *workload))
	}
	if err != nil {
		return fail(fmt.Errorf("%s: %w", *workload, err))
	}

	want := c.EndToEnd
	if e.traced {
		want = c.PerLayer
	}
	out := map[string]any{}
	for _, m := range want {
		v, ok := rep.vals[m.Name]
		if !ok && e.traced && !rep.reaches(m.Name) {
			v, ok = value{unit: m.Unit, note: "layer not reached by this workload"}, true
			rep.vals[m.Name] = v
		}
		if !ok {
			return fail(fmt.Errorf("%s: metric %s was not measured", *workload, m.Name))
		}
		if v.unit != m.Unit {
			return fail(fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", *workload, m.Name, v.unit, m.Unit))
		}
		out[m.Name] = map[string]any{"value": v.v, "unit": v.unit}
	}
	printTable(*workload, e, rep)
	line, err := json.Marshal(map[string]any{
		"correct":   len(rep.problems) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	})
	if err != nil {
		return fail(err)
	}
	fmt.Println(string(line))
	if len(rep.problems) > 0 {
		return 1
	}
	return 0
}

// printTable writes the human-readable report: notes, correctness
// problems, and every measured value with its unit and sample count.
func printTable(workload string, e env, rep *report) {
	mode := "untraced"
	if e.traced {
		mode = "traced"
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d (%s)\n", workload, e.seed, e.seconds, mode)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, p := range rep.problems {
		fmt.Println("  INCORRECT: " + p)
	}
	names := make([]string, 0, len(rep.vals))
	for n := range rep.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := rep.vals[n]
		var extra []string
		if v.n > 0 {
			extra = append(extra, fmt.Sprintf("n=%d", v.n))
		}
		if v.note != "" {
			extra = append(extra, v.note)
		}
		fmt.Printf("  %-34s %14.4f %-10s %s\n", n, v.v, v.unit, strings.Join(extra, " "))
	}
	fmt.Printf("  attempted=%d failed=%d correct=%v\n", rep.attempted, rep.failed, len(rep.problems) == 0)
}
