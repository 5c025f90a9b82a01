// Command perfbench is the repository's end-to-end benchmark: it drives
// the public facades (NewCluster and NewPubSub over loopback UDP, and
// Simulate) with an open-loop generator, checks every delivery, and
// prints the end-to-end metrics, or with -trace 1 the per-layer ones.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSet holds measured values by metric name; units come from the
// metric tables in layers.go.
type metricSet map[string]float64

// add records a value; a NaN or infinity (a ratio over nothing) reads 0.
func (m metricSet) add(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = v
}

// result is the benchmark's verdict line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloads maps each workload name to its real-time definition; the
// simulator workload is handled separately.
var workloads = map[string]func() *rtWorkload{
	"udp-lpbcast":    udpLpbcast,
	"udp-full-stack": udpFullStack,
	"pubsub-topics":  pubsubTopics,
}

const simWorkload = "sim-paper"

// runDeadline bounds one invocation, builds excluded.
const runDeadline = 170 * time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: udp-lpbcast, udp-full-stack, pubsub-topics or sim-paper")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 runs the workload untraced, then traced, and prints the per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for span dumps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s network=loopback\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var (
		res     *report
		err     error
		spansTo = filepath.Join(*out, "spans", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
	)
	window := time.Duration(*seconds) * time.Second
	switch {
	case *workload == simWorkload:
		res, err = benchSim(*seed, *trace == 1, spansTo)
	case workloads[*workload] != nil:
		res, err = benchRealtime(ctx, workloads[*workload], *seed, window, *trace == 1, spansTo)
	default:
		names := []string{simWorkload}
		for name := range workloads {
			names = append(names, name)
		}
		sort.Strings(names)
		return fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(names, ", "))
	}
	if err != nil {
		return err
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	want, set := endToEnd, res.endToEnd
	if *trace == 1 {
		want, set = perLayer, res.perLayer
	}
	r := result{Correct: res.violation == "", Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricJSON{}}
	for _, m := range want {
		// A layer the workload bypasses was never set and reads 0.
		fmt.Printf("metric %-40s %14.6g %s\n", m.name, set[m.name], m.unit)
		r.Metrics[m.name] = metricJSON{Value: set[m.name], Unit: m.unit}
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if res.violation != "" {
		fmt.Fprintln(os.Stderr, "perfbench: output check failed:", res.violation)
	}
	fmt.Println(string(line))
	if res.violation != "" {
		return errors.New("output check failed")
	}
	return nil
}

// report is one invocation's outcome, before printing.
type report struct {
	attempted, failed int
	violation         string
	endToEnd          metricSet
	perLayer          metricSet
	notes             []string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func benchRealtime(ctx context.Context, mk func() *rtWorkload, seed uint64, window time.Duration, traced bool, spansTo string) (*report, error) {
	rep := &report{}
	base, err := measureRealtime(ctx, mk(), seed, window)
	if err != nil {
		return nil, err
	}
	for _, run := range base {
		rep.account(run)
	}
	rep.endToEnd = base.endToEnd()
	o := base.counts()
	rep.note("latency: %d (event, member) samples over %d group(s); generator lag p99 %.3f ms, max %.3f ms",
		base.latencySamples(), len(base), base.genLagMS(0.99), base.genLagMS(1))
	rep.note("operations: %d offered, %d admitted, %d refused, %d failed", o.offered, o.admitted, o.refused, o.failed)
	if !traced {
		return rep, nil
	}
	w := mk()
	tr := newTracer()
	run, err := runRealtime(ctx, w, seed, window, tr, true)
	if err != nil {
		return nil, err
	}
	rep.account(run)
	spec := ladderSpec{
		cfg:         withProtocolDefaults(w.cfg),
		groupCap:    w.groupCap,
		compression: w.compression,
		names:       run.rec.ids,
	}
	lad, err := runLadder(spec, tr.captured)
	if err != nil {
		return nil, err
	}
	rep.perLayer = run.perLayer(tr, lad, base)
	return rep, rep.writeSpans(tr, spansTo)
}

// writeSpans dumps the traced run's spans and counts them.
func (r *report) writeSpans(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	n, err := tr.writeSpans(path)
	if err != nil {
		return err
	}
	r.perLayer.add("tracing.spans_written", float64(n))
	r.note("spans: %d written to %s", n, path)
	return nil
}

// account folds one run's operations and checks into the report.
func (r *report) account(run *rtRun) {
	r.attempted += run.out.offered
	r.failed += run.out.failed
	if run.rec.violations > 0 && r.violation == "" {
		r.violation = fmt.Sprintf("%d violations, first: %s", run.rec.violations, run.rec.firstViol)
	}
}

func benchSim(seed uint64, traced bool, spansTo string) (*report, error) {
	rep := &report{}
	base, err := runSim(seed, false)
	if err != nil {
		return nil, err
	}
	rep.accountSim(base)
	rep.endToEnd = base.endToEnd()
	for _, c := range base.calls {
		rep.note("simulate seed %d: %d deliveries (virtual time), %d messages, %.2f%% mean receivers, %.2f%% atomic, %.2fs wall",
			c.cfg.Seed, c.res.Latency.Count, c.res.Summary.Messages, c.res.Summary.MeanReceiversPct, c.res.Summary.AtomicityPct, c.wall.Seconds())
	}
	if !traced {
		return rep, nil
	}
	tr := newTracer()
	start := time.Now()
	run, err := runSim(seed, true)
	if err != nil {
		return nil, err
	}
	tr.keep(spanRec{ID: tr.newID(), Name: "sim.run", Start: start.Sub(tr.epoch).Nanoseconds(), End: tr.now()})
	rep.accountSim(run)
	lad, err := runLadder(simLadderSpec(run.calls[0].cfg), run.sample)
	if err != nil {
		return nil, err
	}
	rep.perLayer = run.perLayer(lad, base)
	return rep, rep.writeSpans(tr, spansTo)
}

// accountSim counts each Simulate call as one operation.
func (r *report) accountSim(run *simRun) {
	r.attempted += len(run.calls)
	r.failed += len(run.violated)
	if len(run.violated) > 0 && r.violation == "" {
		r.violation = strings.Join(run.violated, "; ")
	}
}
