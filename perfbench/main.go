// Command perfbench is the repository's benchmark. One invocation runs one
// workload against an in-process Fides deployment — set-up, verified
// reads, a measured window of traffic, restart by verified crash recovery,
// full audit — checks that the outputs are correct, and prints its
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records harness spans, counts messages and takes registry and runtime
// deltas, and the metrics are the per-layer ones. BENCHMARK.json at the
// repository root lists both sets. Build and run it with perfbench/run.sh.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames()))
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
		out     = flag.String("out", ".bench_build", "directory for WAL data and span files")
	)
	flag.Parse()
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		flag.Usage()
		return 2
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	opt := options{
		seed:  *seed,
		phase: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1,
		out:   *out,
	}
	res, err := execute(w, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and gathers its result.
func execute(w spec, opt options) (*result, error) {
	origin := time.Now()
	ctx := context.Background()
	r := &runner{
		w:       w,
		opt:     opt,
		dataDir: filepath.Join(opt.out, "data", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if opt.trace {
		r.tr = newTracer(origin)
		r.sched = newCountingScheduler(w.delay)
	}
	defer os.RemoveAll(r.dataDir)
	defer r.close()

	o := &outcome{rec: newRecorder()}
	setupRec, readRec, postRec := newRecorder(), newRecorder(), newRecorder()
	var err error
	if o.setups, err = r.setUp(ctx, setupRec); err != nil {
		return nil, err
	}
	// Set-up garbage and the discarded deployments' memory are not the
	// measured deployment's: collect them and return them to the OS. What
	// stays live is the deployment with the warm-up's fixed history, which,
	// unlike memory in the window, does not grow with throughput. It takes
	// two collections: sync.Pool contents survive the first.
	runtime.GC()
	debug.FreeOSMemory()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	o.heapMB = float64(mem.HeapAlloc) / (1 << 20)

	// The verified reads are timed in the window where the workload reads
	// there, and in the read phase otherwise.
	if w.readPhase > 0 {
		o.reads = readRec
		if opt.trace {
			if o.readSnaps[0], err = r.snapshotLayers(); err != nil {
				return nil, err
			}
		}
		r.readPhase(ctx, readRec)
		if opt.trace {
			if o.readSnaps[1], err = r.snapshotLayers(); err != nil {
				return nil, err
			}
		}
	}
	if o.win, err = r.measure(ctx, o.rec); err != nil {
		return nil, err
	}
	if w.readPhase == 0 {
		o.reads, o.readSnaps = o.rec, [2]layerSnap{o.win.before, o.win.after}
	}

	var failures []error
	if o.chain, err = r.verifyChain(ctx); err != nil {
		failures = append(failures, err)
	}
	o.sync, err = r.catchUp(ctx)
	postRec.other(err)
	if err != nil {
		failures = append(failures, err)
	}
	// Restarts and audits alternate, so the rounds of each spread over the
	// same stretch of time and a slow spell of the host does not take every
	// round of one of them.
	for i := 0; i < max(w.recoveries, w.audits) && r.cluster != nil; i++ {
		if i < w.recoveries {
			d, err := r.restart()
			postRec.other(err)
			if err != nil {
				failures = append(failures, err)
				break
			}
			o.recoveries = append(o.recoveries, d.Seconds())
		}
		if i < w.audits {
			d, err := r.audit(ctx)
			postRec.other(err)
			if err != nil {
				failures = append(failures, err)
				continue
			}
			o.audits = append(o.audits, d.Seconds())
		}
	}
	r.close()

	res := &result{Correct: len(failures) == 0, Metrics: make(map[string]value)}
	for _, rec := range []*recorder{setupRec, o.rec, readRec, postRec} {
		res.Attempted += rec.attempted
		res.Failed += rec.failed
	}
	setupRec.reportErrors("setup")
	o.rec.reportErrors("measured phase")
	readRec.reportErrors("read phase")
	for _, err := range failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}

	metrics := o.endToEnd()
	if opt.trace {
		o.spans = r.tr.count()
		metrics = o.perLayer()
		dir := filepath.Join(opt.out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", w.name, opt.seed))
		if err := r.tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", o.spans, path)
	}
	for _, m := range metrics {
		res.order = append(res.order, m)
		res.Metrics[m.name] = value{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// result is the run's last line of output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	order []metric
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints a readable table, then the JSON line.
func (res *result) write(w io.Writer) error {
	for _, m := range res.order {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
