// Command benchmark is the repository's one live-topology benchmark: it
// builds cmd/p2drmd, boots a fresh primary + replica for every
// repetition, drives them over HTTP through httpapi.Client, checks the
// outputs and prints every metric by name with its unit.
//
//	bash benchmark/run.sh --workload playback --seed 1 --seconds 24 --trace 0
//
// See README.md for the workload and metric catalogue.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the built daemon, state
// directories, daemon logs and reports. It is the directory the driver
// points CARGO_TARGET_DIR at, and .gitignore names it.
const buildDir = ".bench_build"

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one workload's run, written to the out
// directory.
type report struct {
	Workload  string            `json:"workload"`
	Why       string            `json:"why"`
	Context   map[string]any    `json:"context"`
	Loops     map[string]string `json:"loops"`
	Reps      []repResult       `json:"repetitions"`
	Figures   map[string]figure `json:"figures"`
	Budget    *budget           `json:"budget,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    map[string]int    `json:"errors,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run is the whole program; it returns the exit code: 0 when every
// workload ran with nothing failed, 1 when an op or a check failed, 2
// when the benchmark could not run.
func run(args []string, stdout io.Writer) int {
	flags := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name    = flags.String("workload", "all", "workload to run: playback, browse, batch, revstorm or all")
		seed    = flags.Int64("seed", 1, "trace seed: the same seed gives the same inputs")
		seconds = flags.Float64("seconds", 24, "measuring time of one run, shared by its phases")
		trace   = flags.Int("trace", 0, "1 runs the traced repetition and the probes and reports the per-layer metrics")
		quick   = flags.Bool("quick", false, "smoke mode: one repetition, 2 s of phases, probes at a tenth of their iterations")
		out     = flags.String("out", "", "directory for reports and spans (default "+buildDir+"/out)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	// The generator shares the box with the daemons it measures; collect
	// its garbage rarely so its collector does not compete with them.
	debug.SetGCPercent(400)

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var todo []workload
	for _, wl := range workloads {
		if *name == "all" || *name == wl.name {
			if *quick {
				wl.preload /= 10
			}
			todo = append(todo, wl)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	reps := repetitions
	if *quick {
		reps, *seconds = 1, 2
	}

	work := filepath.Join(root, buildDir)
	outDir := *out
	if outDir == "" {
		outDir = filepath.Join(work, "out")
	}
	e := &env{
		root: root, bin: filepath.Join(work, "p2drmd"),
		runDir:  filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())),
		workers: runtime.NumCPU(), seed: *seed, quick: *quick,
		warned: make(map[string]bool),
	}
	for _, dir := range []string{outDir, e.runDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	// Daemons die with the benchmark on every path: normal return and
	// panic through the deferred call, signals through the handler.
	defer os.RemoveAll(e.runDir)
	defer killAll()
	sigs, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer close(done)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-sigs:
			killAll()
			os.RemoveAll(e.runDir)
			os.Exit(130)
		case <-done:
		}
	}()

	if e.buildS, err = buildDaemon(root, e.bin); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	ctx := runContext(e, *seconds, reps)

	reports := make([]*report, len(todo))
	for i := range todo {
		reports[i] = &report{Workload: todo[i].name, Why: todo[i].why, Context: ctx}
	}
	if *trace != 0 {
		traced := make([]*tracedResult, len(todo))
		for i := range todo {
			if traced[i], err = runTraced(e, &todo[i], *seconds, outDir); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s traced run: %v\n", todo[i].name, err)
				return 1
			}
		}
		// The probes run last, with the box to themselves: they switch on
		// the daemon's accelerators for the process-wide group, which the
		// client flows above must not see.
		probes := make(map[string]float64)
		if err := runProbes(e, probes); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: probes:", err)
			return 1
		}
		for i := range todo {
			maps.Copy(traced[i].rep.Values, probes)
			reports[i].addTraced(&todo[i], traced[i])
		}
	} else {
		paced, saturated := phases(*seconds, reps)
		// Repetitions interleave across workloads (A B C D A B C D …) so a
		// noise episode cannot land on one workload's every repetition.
		for n := 0; n < reps; n++ {
			for i := range todo {
				res, err := runRep(e, &todo[i], n, paced, saturated)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s repetition %d: %v\n", todo[i].name, n, err)
					return 1
				}
				reports[i].Reps = append(reports[i].Reps, res)
			}
		}
		for i := range todo {
			reports[i].summarise(&todo[i], e, paced, saturated)
		}
	}

	code := 0
	for _, rp := range reports {
		path := filepath.Join(outDir, fmt.Sprintf("%s-trace%d.json", rp.Workload, *trace))
		if err := writeJSON(path, rp); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		rp.print(stdout)
		if rp.Failed > 0 {
			code = 1
		}
	}
	// The machine-readable line comes last; with several workloads there
	// is one line each, in report order.
	for _, rp := range reports {
		line, err := json.Marshal(rp.result(*trace != 0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(line))
	}
	return code
}

// moduleRoot finds the p2drm module the daemon is built from: the
// working directory when run through run.sh, its parent under
// `go run -C benchmark .`.
func moduleRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module p2drm\n") {
			return dir, nil
		}
	}
	return "", fmt.Errorf("no p2drm module at %s or its parent: run from the repository root", wd)
}

// runContext records where and how the numbers were taken.
func runContext(e *env, seconds float64, reps int) map[string]any {
	ctx := map[string]any{
		"go_version":  runtime.Version(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     e.workers,
		"seed":        e.seed,
		"seconds":     seconds,
		"repetitions": reps,
		"quick":       e.quick,
		"build_s":     e.buildS,
		"state_fs":    fsType(e.runDir),
		"git_commit":  "unknown (not a git checkout)",
		"started":     time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		ctx["git_commit"] = strings.TrimSpace(string(out))
	}
	return ctx
}

// fsType names the filesystem holding dir, from /proc/mounts: the
// longest mount point that is a prefix of dir wins.
func fsType(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (dir == mount || strings.HasPrefix(dir, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, typ = mount, f[2]
		}
	}
	return typ
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// finite replaces a value JSON cannot carry with the absent value.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return absent
	}
	return v
}
