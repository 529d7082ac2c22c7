// Command vigilbench is vigil's end-to-end benchmark. It runs vigild's
// networked path in one process — an agent session driving an epoch
// engine, reports framed over loopback TCP, the collector settling epochs
// behind its watermark with a checkpoint on disk, and each verdict
// published to the /metrics exporter — and reports what an operator sees:
// set-up time, settled epochs and reports per second, emit-to-verdict
// latency, CPU per epoch and peak memory. The load is closed loop, one
// session on one connection with epochs back to back, because the cycle
// protocol is lockstep: the agent cannot start epoch e+1 before the
// collector ends cycle e.
//
// A traced run (-trace 1) instead reports per-layer metrics: spans around
// the engine's Step, each report's send and the agent's wait, replays of
// the codec, checkpoint, analysis and vote calls on settled epochs, and
// counters read from the ingest, transport and Go runtime.
//
// Usage, from the repository root (the script builds the command first):
//
//	bash vigilbench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
//	bash vigilbench/run.sh --workload all
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 0 only if the
// correctness gate passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// runLimit is how long one run may take in all.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, time.Now()))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer, began time.Time) int {
	fs := flag.NewFlagSet("vigilbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed: drives the engine and the choice of failed links")
	seconds := fs.Float64("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	todo := workloads
	if *name != "all" {
		w, err := workloadNamed(*name)
		if err != nil {
			fmt.Fprintln(stderr, "vigilbench:", err)
			return 2
		}
		todo = []*workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "vigilbench: need -seconds > 0 and -trace 0 or 1")
		return 2
	}
	code := 0
	for i, w := range todo {
		o := options{
			workload: w,
			seed:     *seed,
			seconds:  time.Duration(*seconds * float64(time.Second)),
			trace:    *trace == 1,
			workdir:  *workdir,
			deadline: began.Add(runLimit),
		}
		if i > 0 {
			o.deadline = time.Now().Add(runLimit)
			fmt.Fprintln(stdout)
		}
		code = max(code, runOne(o, stdout, stderr))
	}
	return code
}

// runOne runs one workload and prints its report, ending with the JSON
// result line, and returns the exit status.
func runOne(o options, stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "vigilbench workload=%s seed=%d seconds=%g trace=%t\n",
		o.workload.name, o.seed, o.seconds.Seconds(), o.trace)
	out, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "vigilbench:", err)
		return 1
	}
	f, _ := json.Marshal(out.facts)
	fmt.Fprintf(stdout, "facts %s\n", f)
	out.print(stdout, o.trace)

	res := jsonResult{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]jsonMetric, len(out.metrics)),
	}
	for _, m := range out.metrics {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "vigilbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
