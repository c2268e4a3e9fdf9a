// Command hopbench is the hop ledger: the repository's end-to-end
// benchmark. It runs one reference deck (a workload) repeatedly, each
// attempt in its own child process under a wall-clock deadline, checks
// every attempt's final checkpoint against a reference digest (golden.go
// holds them for the seeds it covers), and prints hops/s, set-up time
// and live heap (--trace 0) or a per-layer split measured by timing
// wrappers around the layers' public calls (--trace 1). The last line
// of standard output is one JSON object.
//
//	hopbench --workload nnp-direct --seed 1 --seconds 45 --trace 0
//	hopbench --workload all --seed 1 --seconds 45
//
// See README.md for the workloads, the metrics and the known defects.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/format"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"tensorkmc/internal/nnp"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// attemptDeadline bounds one attempt's child process: about ten times
// the longest attempt, and short enough that a hung reference run plus
// a hung attempt still end within three minutes.
const attemptDeadline = 45 * time.Second

// options configure one benchmark invocation.
type options struct {
	seed     uint64
	seconds  float64
	trace    bool
	dataDir  string
	workDir  string
	deadline time.Duration
	// ref, when set, replaces the golden or computed reference digest
	// (tests).
	ref string
	// exe is the binary run as the child process.
	exe string
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "child" {
		return childMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("hopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed (alloy fill and trajectory)")
	seconds := fs.Float64("seconds", 10, "measuring time per workload")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	dataDir := fs.String("data", "hopbench/data", "directory holding the bench potential")
	workDir := fs.String("work", ".bench_build/work", "scratch directory for checkpoint files")
	goldenSeeds := fs.Int("golden", 0, "print golden.go, the digest table of seeds 1..n, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "hopbench:", err)
		return 1
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, dataDir: *dataDir,
		workDir: *workDir, deadline: attemptDeadline, exe: exe}
	if err := os.MkdirAll(opts.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "hopbench:", err)
		return 1
	}
	if *goldenSeeds > 0 {
		return printGolden(opts, *goldenSeeds, stdout, stderr)
	}
	if *name == "all" {
		return runAll(opts, stdout)
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hopbench:", err)
		return 2
	}
	res := bench(w, opts, stdout)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "hopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload untraced and traced, one after another,
// and ends with one JSON object keyed by workload.
func runAll(opts options, stdout io.Writer) int {
	all := map[string]map[string]result{}
	for _, w := range workloads {
		all[w.name] = map[string]result{}
		for _, traced := range []bool{false, true} {
			o := opts
			o.trace = traced
			res := bench(w, o, stdout)
			key := "untraced"
			if traced {
				key = "traced"
			}
			all[w.name][key] = res
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// attempt is one child run and the verdict on it.
type attempt struct {
	rec  record
	mode string
	fail string // empty when the attempt passed its output check
}

// bench measures one workload for opts.seconds and reports it.
func bench(w workload, opts options, out io.Writer) result {
	kind := "untraced"
	if opts.trace {
		kind = "traced"
	}
	fmt.Fprintf(out, "== %s seed=%d %s, %.0fs: %s\n", w.name, opts.seed, kind, opts.seconds, w.why)
	// Reference digests (or why there is none), one per workload name an
	// attempt runs under, each computed once.
	type reference struct{ digest, fail string }
	refs := map[string]reference{}
	referenceFor := func(name string) reference {
		if opts.ref != "" {
			return reference{digest: opts.ref}
		}
		if r, ok := refs[name]; ok {
			return r
		}
		refName := name
		if wn, _ := findWorkload(name); wn.ref != "" {
			refName = wn.ref
		}
		var r reference
		if d, ok := golden[refName][opts.seed]; ok {
			r.digest = d
			fmt.Fprintf(out, "%s: reference digest %s (golden, %s at seed %d)\n", name, d, refName, opts.seed)
			refs[name] = r
			return r
		}
		rec, err := spawn(opts, "ref", refName)
		switch {
		case err != nil:
			r.fail = "reference run: " + err.Error()
			fmt.Fprintf(out, "%s: %s\n", name, r.fail)
		case rec.Error != "":
			r.fail = fmt.Sprintf("reference run failed at hop %d: %s", rec.Hops, rec.Error)
			fmt.Fprintf(out, "%s: %s\n", name, r.fail)
		default:
			r.digest = rec.Digest
			fmt.Fprintf(out, "%s: reference digest %s (self-referenced: no golden digest at seed %d, from the %s stack)\n",
				name, r.digest, opts.seed, refName)
		}
		refs[name] = r
		return r
	}
	referenceFor(w.name)

	// Untraced: run attempts back to back. Traced: alternate untraced
	// and traced attempts (and the serial twin of a parallel workload)
	// so the tracing overhead compares neighbours in time.
	plan := []string{"run"}
	if opts.trace {
		plan = []string{"run", "traced"}
		if w.twin != "" {
			plan = append(plan, "twin")
		}
	}
	var attempts []attempt
	start := time.Now()
	for i := 0; i < len(plan) || time.Since(start).Seconds() < opts.seconds; i++ {
		mode := plan[i%len(plan)]
		name := w.name
		if mode == "twin" {
			name = w.twin
		}
		ref := referenceFor(name)
		rec, err := spawn(opts, mode, name)
		a := attempt{rec: rec, mode: mode}
		switch {
		case err != nil:
			a.fail = err.Error()
		case rec.Error != "":
			a.fail = fmt.Sprintf("failed at hop %d: %s", rec.Hops, rec.Error)
		case ref.fail != "":
			a.fail = "no reference digest"
		case rec.Digest != ref.digest:
			a.fail = fmt.Sprintf("digest %s, want %s", rec.Digest, ref.digest)
		}
		attempts = append(attempts, a)
		printAttempt(out, len(attempts), a)
		if errors.Is(err, errDeadline) {
			break // a hang does not get more chances to stall the benchmark
		}
	}
	return summarise(w, opts, attempts, out)
}

func printAttempt(out io.Writer, n int, a attempt) {
	verdict := "ok"
	if a.fail != "" {
		verdict = "FAILED: " + a.fail
	}
	fmt.Fprintf(out, "attempt %d %-6s hops=%d run_s=%.4f hops/s=%.1f setup_s=%.4f %s\n",
		n, a.mode, a.rec.Hops, a.rec.RunS, ratio(float64(a.rec.Hops), a.rec.RunS), a.rec.SetupS, verdict)
}

// summarise turns the attempts into the result line. Timings come from
// the attempts that passed their check; when none did, from every
// attempt that got as far as running, so a failing workload still shows
// its speed up to the failure.
func summarise(w workload, opts options, attempts []attempt, out io.Writer) result {
	res := result{Metrics: map[string]value{}}
	pick := func(mode string) []record {
		var ok, ran []record
		for _, a := range attempts {
			if a.mode != mode {
				continue
			}
			if a.fail == "" {
				ok = append(ok, a.rec)
			}
			if a.rec.RunS > 0 {
				ran = append(ran, a.rec)
			}
		}
		if len(ok) > 0 {
			return ok
		}
		return ran
	}
	for _, a := range attempts {
		res.Attempted++
		if a.fail != "" {
			res.Failed++
		}
	}
	res.Correct = res.Attempted > 0 && res.Failed == 0
	hopsPerS := func(recs []record) float64 {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, ratio(float64(r.Hops), r.RunS))
		}
		return median(xs)
	}
	field := func(recs []record, f func(record) float64) float64 {
		var xs []float64
		for _, r := range recs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	runs := pick("run")
	if !opts.trace {
		vals := map[string]float64{
			"hops_per_s":   hopsPerS(runs),
			"setup_s":      field(runs, func(r record) float64 { return r.SetupS }),
			"live_heap_mb": field(runs, func(r record) float64 { return r.HeapMB }),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{vals[m.name], m.unit}
		}
	} else {
		traced := pick("traced")
		names := perLayer
		if w.cached {
			names = slices.Concat(perLayer, cachedLayer)
		}
		for _, m := range names {
			res.Metrics[m.name] = value{field(traced, func(r record) float64 { return r.Layers[m.name] }), m.unit}
		}
		set := func(name string, v float64) {
			m := res.Metrics[name]
			m.Value = v
			res.Metrics[name] = m
		}
		set("ledger.trace_overhead_frac", 1-ratio(hopsPerS(traced), hopsPerS(runs)))
		if w.twin != "" {
			ranks := float64(w.ranks[0] * w.ranks[1] * w.ranks[2])
			set("sublattice.scaling_eff", ratio(hopsPerS(runs), ranks*hopsPerS(pick("twin"))))
		}
		if len(traced) > 0 {
			printLedger(out, traced[len(traced)-1])
		}
	}
	for _, m := range slices.Concat(endToEnd, perLayer, cachedLayer) {
		if v, ok := res.Metrics[m.name]; ok {
			fmt.Fprintf(out, "%-30s %14.6g %s\n", m.name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(out, "attempted=%d failed=%d\n", res.Attempted, res.Failed)
	return res
}

// printLedger prints one traced attempt's self-time split.
func printLedger(out io.Writer, r record) {
	fmt.Fprintf(out, "ledger of the last traced attempt (%d hops, run phase %.4fs):\n", r.Hops, r.RunS)
	var sum float64
	for _, row := range r.Ledger {
		sum += row.SelfS
		fmt.Fprintf(out, "  %-14s %10.4fs %6.2f%%\n", row.Layer, row.SelfS, 100*row.Frac)
	}
	fmt.Fprintf(out, "  %-14s %10.4fs\n", "sum", sum)
}

var errDeadline = errors.New("deadline exceeded")

// spawn runs one attempt in a child process under the deadline and
// returns its record. A child that crashes, exits non-zero or passes the
// deadline (it is killed, and waited for) returns an error.
func spawn(opts options, mode, name string) (record, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opts.deadline)
	defer cancel()
	cmd := exec.CommandContext(ctx, opts.exe, "child", "-mode", mode, "-workload", name,
		"-seed", fmt.Sprint(opts.seed), "-data", opts.dataDir, "-work", opts.workDir)
	cmd.WaitDelay = 5 * time.Second
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		return record{}, fmt.Errorf("%w (%v)", errDeadline, opts.deadline)
	}
	if err != nil {
		return record{}, fmt.Errorf("child %v: %s", err, crashLine(stderr.String()))
	}
	var rec record
	if err := json.Unmarshal([]byte(lastLine(stdout.String())), &rec); err != nil {
		return record{}, fmt.Errorf("child output: %v", err)
	}
	return rec, nil
}

// crashLine picks the line of a child's standard error that says why it
// died: a Go panic's first line if there is one, else the last line.
func crashLine(s string) string {
	for _, l := range strings.Split(s, "\n") {
		if strings.HasPrefix(l, "panic: ") {
			return l
		}
	}
	return lastLine(s)
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}

// childMain runs one attempt and prints its record as one JSON line.
// Modes: run (untraced, through core), ref (the assembled stack without
// wrappers: the reference digest of a seed golden.go does not cover),
// traced (the assembled stack with every wrapper on), twin (run, for
// the serial twin).
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hopbench child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mode := fs.String("mode", "run", "run, ref, traced or twin")
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	dataDir := fs.String("data", "hopbench/data", "directory holding the bench potential")
	workDir := fs.String("work", ".bench_build/work", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, "attempt-")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)

	var rec record
	switch *mode {
	case "run", "twin":
		rec = runCore(w, *seed, *dataDir, dir)
	case "ref", "traced":
		rec = runStack(w, *seed, *dataDir, dir, *mode == "traced")
	default:
		fmt.Fprintln(stderr, "unknown mode", *mode)
		return 2
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runStack runs the assembled stack, with wrappers when traced. A panic
// ends the attempt with the hops executed so far.
func runStack(w workload, seed uint64, dataDir, workDir string, traced bool) (rec record) {
	var net *nnp.Potential
	if w.nnp {
		if err := verifyPotential(dataDir); err != nil {
			return record{Error: err.Error()}
		}
		var err error
		if net, err = nnp.LoadFile(filepath.Join(dataDir, potFile)); err != nil {
			return record{Error: err.Error()}
		}
	}
	var t *tracer
	if traced {
		t = newTracer()
	}
	s := newStack(w, seed, net, t)
	defer s.close()
	defer func() {
		if p := recover(); p != nil {
			rec = record{Error: fmt.Sprintf("panic: %v", p), Hops: s.hops()}
		}
	}()
	if traced {
		rec, err := runTraced(s, workDir)
		if err != nil {
			rec.Error = err.Error()
		}
		return rec
	}
	out, err := s.run(workDir)
	rec.Hops, rec.RunS = out.hops, out.runS
	if err != nil {
		rec.Error = err.Error()
		return rec
	}
	if rec.Digest, err = digest(out.ckpt); err != nil {
		rec.Error = err.Error()
	}
	return rec
}

// printGolden prints golden.go: the final-checkpoint digest of every
// declared workload, and of the serial twin a declared workload runs
// beside, at seeds 1..n, each from an untraced child run through core.
func printGolden(opts options, n int, stdout, stderr io.Writer) int {
	var b bytes.Buffer
	fmt.Fprintf(&b, `package main

// golden holds the final-checkpoint sha256 of every declared workload,
// and of the serial twin a declared workload runs beside, at seeds
// 1-%d, measured through core. Attempts at these seeds, traced
// ones included, are checked against it, so a change that alters a
// trajectory fails the benchmark until the table is regenerated on
// purpose, from the repository root, by
//
//	bash hopbench/run.sh --golden %d > .bench_build/golden.go
//	mv .bench_build/golden.go hopbench/golden.go
//
// Other seeds are self-referenced: their reference digest comes from
// the benchmark's own stack at run time.
var golden = map[string]map[uint64]string{
`, n, n)
	for _, w := range workloads {
		if !hasGolden(w) {
			continue
		}
		fmt.Fprintf(&b, "%q: {\n", w.name)
		for seed := 1; seed <= n; seed++ {
			o := opts
			o.seed = uint64(seed)
			rec, err := spawn(o, "run", w.name)
			if err == nil && rec.Error != "" {
				err = errors.New(rec.Error)
			}
			if err != nil {
				fmt.Fprintf(stderr, "hopbench: %s seed %d: %v\n", w.name, seed, err)
				return 1
			}
			fmt.Fprintf(&b, "%d: %q,\n", seed, rec.Digest)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		fmt.Fprintln(stderr, "hopbench:", err)
		return 1
	}
	stdout.Write(src)
	return 0
}
