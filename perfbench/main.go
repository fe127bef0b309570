// Command perfbench is the repository benchmark. It drives the binaries
// users run — astragen, astrareport and astrad, built from the checkout
// under test — times them from outside, checks their answers against the
// batch pipeline, and prints one JSON result line.
//
//	perfbench -workload study|backfill|live -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// the same inputs are also fed in-process through the public functions
// the binaries compose, each call wrapped in a span, and the result
// carries the per-layer breakdown instead. NOTE.md beside this file lists
// each workload's reason and which layer metric should move which
// end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark run.
type bench struct {
	root    string // checkout root
	bin     string // directory holding the built binaries
	work    string // per-run scratch directory, removed at exit
	seed    uint64
	seconds float64
	trace   bool
	began   time.Time

	attempted, failed int
	mismatches        int

	e2e    map[string]metric
	layers map[string]metric
}

// attempt records one operation's outcome in the failure accounting.
func (b *bench) attempt(what string, ok bool) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Printf("FAILED %s\n", what)
	}
}

// check records a correctness comparison: a mismatch counts as a failed
// operation and makes the run incorrect.
func (b *bench) check(what string, err error) {
	if err != nil {
		b.mismatches++
		fmt.Printf("MISMATCH %s: %v\n", what, err)
	}
	b.attempt("check "+what, err == nil)
}

// mark logs how far into the run a phase ended.
func (b *bench) mark(phase string) {
	fmt.Printf("phase %-24s done at %7.2fs\n", phase, time.Since(b.began).Seconds())
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{Value: v, Unit: unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layers[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		workload = flag.String("workload", "", "study, backfill or live; all runs the three in turn")
		seed     = flag.Uint64("seed", 1, "workload seed: picks the input window and the client's choices")
		seconds  = flag.Float64("seconds", 20, "how long one run measures")
		trace    = flag.Int("trace", 0, "1 adds the in-process traced run and reports per-layer metrics")
		root     = flag.String("root", ".", "checkout root (holds go.mod)")
		build    = flag.String("build", ".bench_build", "directory holding bin/ with the built programs")
	)
	flag.Parse()
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	for _, n := range names {
		if workloads[n] == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s|all -seed N -seconds S -trace 0|1\n", strings.Join(workloadNames, "|"))
			os.Exit(2)
		}
	}
	work, err := os.MkdirTemp(*build, "run-")
	if err != nil {
		fatal(err)
	}
	// An interrupted run removes its scratch files; the programs it
	// started die with it (see command).
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		_ = os.RemoveAll(work)
		os.Exit(1)
	}()
	for _, n := range names {
		b := &bench{
			root:    *root,
			bin:     filepath.Join(*build, "bin"),
			work:    filepath.Join(work, n),
			seed:    *seed,
			seconds: *seconds,
			trace:   *trace == 1,
			began:   time.Now(),
			e2e:     map[string]metric{},
			layers:  map[string]metric{},
		}
		fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", n, *seed, *seconds, *trace)
		err := os.Mkdir(b.work, 0o755)
		if err == nil {
			err = workloads[n](b)
		}
		if rmErr := os.RemoveAll(b.work); err == nil && rmErr != nil {
			err = fmt.Errorf("cleanup: %w", rmErr)
		}
		if err != nil {
			_ = os.RemoveAll(work)
			fatal(err)
		}
		b.printResult()
	}
	if err := os.Remove(work); err != nil {
		fatal(fmt.Errorf("cleanup: %w", err))
	}
}

// printResult prints the run's metrics, its verdict, and the JSON result
// line.
func (b *bench) printResult() {
	res := result{
		Correct:   b.mismatches == 0 && b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   b.e2e,
	}
	if b.trace {
		res.Metrics = b.layers
	}
	printMetrics("end-to-end", b.e2e)
	printMetrics("per-layer", b.layers)
	failedShare := 0.0
	if b.attempted > 0 {
		failedShare = float64(b.failed) / float64(b.attempted)
	}
	fmt.Printf("verdict correct=%t attempted=%d failed=%d failed_share=%g\n", res.Correct, res.Attempted, res.Failed, failedShare)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

var workloads = map[string]func(*bench) error{
	"study":    runStudy,
	"backfill": runBackfill,
	"live":     runLive,
}

// workloadNames is the order -workload all runs them in.
var workloadNames = []string{"study", "backfill", "live"}

func printMetrics(title string, ms map[string]metric) {
	if len(ms) == 0 {
		return
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// stamp prints what a result depends on besides the code: the machine,
// the toolchain, the revision of the tree and the input.
func (b *bench) stamp(in *input) {
	st := struct {
		Nproc      int    `json:"nproc"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		Commit     string `json:"commit"`
		Seed       uint64 `json:"seed"`
		GenSeed    int    `json:"population_seed"`
		Nodes      int    `json:"population_nodes"`
		First      int    `json:"input_first_line"`
		Lines      int    `json:"input_lines"`
		Bytes      int    `json:"input_bytes"`
		Records    int    `json:"input_records"`
	}{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     treeRevision(b.root),
		Seed:       b.seed,
		GenSeed:    genSeed,
		Nodes:      genNodes,
		First:      in.first,
		Lines:      in.lines,
		Bytes:      len(in.data),
		Records:    in.within[kindCE],
	}
	line, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", line)
}

// treeRevision names the source tree under test. The benchmark runs in
// checkouts that are not git repositories, so the revision is a digest
// of the module's Go sources and go.mod rather than a commit hash.
func treeRevision(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
