// Command tkmc-serve exposes a shared evaluation service over TCP: one
// potential, one content-addressed vacancy-system cache, one batching
// worker pool — any number of KMC clients. Remote engines connect with
// evalserve.Dial (which implements kmc.Model) and submit canonical
// vacancy environments; identical environments from different clients
// are answered from the same cache entry, and concurrent misses are
// coalesced into batches.
//
// Usage:
//
//	tkmc-serve [-addr host:port] [-potential eam|bondcount|<nnp-file>]
//	           [-lattice Å] [-cutoff Å]
//	           [-cache N] [-shards N] [-batch N] [-workers N] [-f32]
//	           [-fleet N] [-idle seconds]
//	           [-telemetry host:port] [-event-log path]
//
// -telemetry opens the shared observability endpoint (/metrics,
// /metrics.json, /healthz, /events, /debug/pprof — the same mux the
// tensorkmc runner serves) so a long-lived service is scrapable,
// federable and profilable. -event-log flushes the node's
// flight-recorder journal (including serve-side trace spans) as JSONL
// on exit, where `tkmc-analyze trace` can pick it up.
//
// -fleet N runs N independent serve nodes in one process — each with
// its own listener, cache and worker pool — for testing and
// single-machine fleets. Ports increment from -addr (with port 0 every
// node gets its own kernel-picked port); each node prints its own
// "listening on" banner. Clients shard across the nodes with
// evalserve.DialFleet or the tensorkmc `eval_fleet` deck key.
//
// -idle bounds how long a client session may sit silent before the
// server reaps the connection (0 = the 2-minute default, negative =
// never reap).
//
// The server prints its bound address on startup (use -addr 127.0.0.1:0
// to let the kernel pick a port) and, on SIGINT/SIGTERM, drains the
// worker pools and prints the final service counters.
//
// Exit codes:
//
//	0  clean shutdown
//	1  runtime failure (listen error)
//	2  usage error (bad flag, unloadable potential)
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"tensorkmc/internal/bondcount"
	"tensorkmc/internal/eam"
	"tensorkmc/internal/encoding"
	"tensorkmc/internal/evalserve"
	"tensorkmc/internal/kmc"
	"tensorkmc/internal/nnp"
	"tensorkmc/internal/telemetry"
	"tensorkmc/internal/units"
)

const (
	exitClean   = 0
	exitRuntime = 1
	exitUsage   = 2
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sig))
}

// realMain is the testable entry point: it serves until a signal
// arrives, then drains and reports.
func realMain(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) int {
	fs := flag.NewFlagSet("tkmc-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:7865", "TCP listen address")
	potName := fs.String("potential", "eam", "'eam', 'bondcount', or a trained NNP file path")
	latticeA := fs.Float64("lattice", units.LatticeConstantFe, "lattice constant (Å)")
	cutoff := fs.Float64("cutoff", units.CutoffStandard, "interaction cutoff (Å)")
	cache := fs.Int("cache", 0, "cache capacity in entries (0 = default)")
	shards := fs.Int("shards", 0, "cache shard count (0 = default)")
	batch := fs.Int("batch", 0, "max systems per evaluation batch (0 = default)")
	workers := fs.Int("workers", 0, "evaluation worker pool size (0 = default)")
	f32 := fs.Bool("f32", false, "run NNP batches through the f32 kernel (not bit-identical to f64)")
	fleetN := fs.Int("fleet", 1, "independent serve nodes in this process (ports increment from -addr)")
	idleSecs := fs.Float64("idle", 0, "idle session reap timeout in seconds (0 = default, negative = never)")
	drainSecs := fs.Float64("drain", 5, "seconds to let in-flight sessions finish on SIGTERM before force-closing")
	teleAddr := fs.String("telemetry", "", "telemetry HTTP address (/metrics, /healthz, /readyz, /events, pprof); empty = off")
	eventLog := fs.String("event-log", "", "flush the flight-recorder journal (including serve-side trace spans) as JSONL to this path on exit")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *fleetN < 1 {
		fmt.Fprintln(stderr, "tkmc-serve: -fleet wants at least one node")
		return exitUsage
	}

	var set *telemetry.Set
	if *teleAddr != "" || *eventLog != "" {
		set = telemetry.NewSet()
	}
	if *eventLog != "" {
		// Flushed on every exit path: the journal is the server's black
		// box, and trace assembly reads it after the process is gone.
		defer func() {
			if err := set.Events().FlushFile(*eventLog); err != nil {
				fmt.Fprintln(stderr, "tkmc-serve: flushing event log:", err)
			}
		}()
	}
	tb := encoding.New(*latticeA, *cutoff)
	opts := evalserve.Options{
		Capacity: *cache, Shards: *shards, MaxBatch: *batch, Workers: *workers,
		Telemetry: set,
	}.WithDefaults()
	be, err := buildBackend(*potName, tb, opts, *f32)
	if err != nil {
		fmt.Fprintln(stderr, "tkmc-serve:", err)
		return exitUsage
	}
	// The readiness probe flips to 503 the moment a drain begins, while
	// /healthz keeps reporting liveness — load balancers stop routing new
	// clients to a node that is letting its attached simulations finish.
	var draining atomic.Bool
	if set != nil {
		tsrv, err := telemetry.ServeReady(*teleAddr, set, func() (bool, string) {
			if draining.Load() {
				return false, "draining"
			}
			return true, ""
		})
		if err != nil {
			fmt.Fprintln(stderr, "tkmc-serve:", err)
			return exitRuntime
		}
		defer tsrv.Close()
		fmt.Fprintf(stdout, "tkmc-serve: telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	feOpts := evalserve.FrontendOptions{}
	if *idleSecs < 0 {
		feOpts.IdleTimeout = -1
	} else if *idleSecs > 0 {
		feOpts.IdleTimeout = time.Duration(*idleSecs * float64(time.Second))
	}

	// Each fleet node is fully independent — its own listener, cache and
	// worker pool — so killing one (or the whole process holding several)
	// behaves exactly like losing real machines.
	srvs := make([]*evalserve.Server, *fleetN)
	fes := make([]*evalserve.Frontend, *fleetN)
	for i := 0; i < *fleetN; i++ {
		nodeBE := be
		if i > 0 {
			if nodeBE, err = buildBackend(*potName, tb, opts, *f32); err != nil {
				fmt.Fprintln(stderr, "tkmc-serve:", err)
				return exitUsage
			}
		}
		nodeAddr, err := fleetAddr(*addr, i)
		if err != nil {
			fmt.Fprintln(stderr, "tkmc-serve:", err)
			return exitUsage
		}
		ln, err := net.Listen("tcp", nodeAddr)
		if err != nil {
			fmt.Fprintln(stderr, "tkmc-serve:", err)
			return exitRuntime
		}
		srvs[i] = evalserve.New(nodeBE, opts)
		fes[i] = evalserve.ServeOptions(srvs[i], ln, feOpts)
		fmt.Fprintf(stdout, "tkmc-serve: listening on %s (potential %s, a=%g Å, rcut=%g Å, N_all=%d)\n",
			fes[i].Addr(), *potName, *latticeA, *cutoff, tb.NAll)
	}
	fmt.Fprintf(stdout, "tkmc-serve: cache %d entries × %d shards, batches ≤ %d on %d workers\n",
		opts.Capacity, opts.Shards, opts.MaxBatch, opts.Workers)

	<-sig
	// Graceful drain: every node stops accepting at once (new connection
	// attempts are refused), then in-flight sessions get the shared
	// deadline to finish. The exit is clean either way — a session that
	// outlives the deadline is force-closed and its client falls back or
	// fails over, exactly as if the node had been lost.
	draining.Store(true)
	deadline := time.Now().Add(time.Duration(*drainSecs * float64(time.Second)))
	fmt.Fprintf(stdout, "tkmc-serve: draining %d node(s)\n", len(fes))
	for i := range fes {
		left := time.Until(deadline)
		if left < 0 {
			left = 0
		}
		forced, _ := fes[i].Drain(left)
		if forced > 0 {
			fmt.Fprintf(stdout, "tkmc-serve: node %d force-closed %d session(s) at the drain deadline\n", i, forced)
		}
		srvs[i].Close()
		fmt.Fprintln(stdout, "tkmc-serve:", srvs[i].Stats().String())
	}
	return exitClean
}

// fleetAddr derives node i's listen address: explicit ports increment
// per node, port 0 lets the kernel pick one per node.
func fleetAddr(addr string, i int) (string, error) {
	if i == 0 {
		return addr, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("-addr %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return "", fmt.Errorf("-addr %q: non-numeric port with -fleet > 1", addr)
	}
	if port == 0 {
		return net.JoinHostPort(host, "0"), nil
	}
	return net.JoinHostPort(host, strconv.Itoa(port+i)), nil
}

// buildBackend maps the -potential flag to an evaluation backend over
// the given tables. Any name that is not a built-in potential is loaded
// as a trained NNP file.
func buildBackend(name string, tb *encoding.Tables, opts evalserve.Options, f32 bool) (evalserve.Backend, error) {
	switch name {
	case "eam":
		params := eam.Default()
		if params.RCut > tb.Rcut {
			// Narrow the potential to the table cutoff so short-cutoff
			// services work out of the box.
			params.RCut = tb.Rcut
			if params.RIn >= params.RCut {
				params.RIn = 0.9 * params.RCut
			}
		}
		pot := eam.New(params)
		return evalserve.NewModelBackend(func() kmc.Model {
			return eam.NewFastRegionEvaluator(pot, tb)
		}, opts.Workers), nil
	case "bondcount":
		params := bondcount.FeCu()
		return evalserve.NewModelBackend(func() kmc.Model {
			return bondcount.NewEvaluator(params, tb)
		}, opts.Workers), nil
	default:
		pot, err := nnp.LoadFile(name)
		if err != nil {
			return nil, fmt.Errorf("loading NNP %q: %w", name, err)
		}
		if pot.Desc.Rcut > tb.Rcut+1e-9 {
			return nil, fmt.Errorf("potential cutoff %g exceeds table cutoff %g", pot.Desc.Rcut, tb.Rcut)
		}
		prec := evalserve.F64
		if f32 {
			prec = evalserve.F32
		}
		return evalserve.NewFusionBackend(pot, tb, prec), nil
	}
}
