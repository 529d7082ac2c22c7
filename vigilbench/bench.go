package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"vigil/internal/engine"
)

// grace is the collector's watermark window, the ingest default vigild
// runs with.
const grace = 2

// keepEpochs is how many epochs from the start of a traced run's timed
// window are kept for the replays and the exact per-epoch counts; a fixed
// range, so those counts repeat exactly from run to run.
const keepEpochs = 10

// batchEpochs is how many leading settled epochs the correctness gate
// compares with batch RunEpoch on a fresh engine.
const batchEpochs = 3

// A run sets up once and, while the set-ups have taken less than
// setupShare of the timed window, again, up to maxSetups: quick set-ups
// are repeated more, so their median is steady.
const (
	setupShare = 0.15
	maxSetups  = 15
)

// metric is one named, united number the benchmark prints.
type metric struct {
	name, unit string
	value      float64
	note       string // printed beside the value, not part of the result
}

// check is one correctness condition of the gate.
type check struct {
	name string
	ok   bool
	what string
}

type options struct {
	workload *workload
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
	deadline time.Time // the whole run must end by then
}

// outcome is everything one run reports.
type outcome struct {
	facts     facts
	metrics   []metric // end-to-end metrics, or per-layer ones in a traced run
	failed    int64
	attempted int64
	checks    []check
	setups    []float64
	layers    []layerTime
	tracePath string
}

// bench runs one workload: the set-ups, the timed window, the correctness
// gate and, in a traced run, the replays.
func bench(o options) (*outcome, error) {
	w := o.workload
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &outcome{facts: gatherFacts(w.name, o.seed, dir)}

	var p *pipeline
	var spent time.Duration
	var total0, steal0 int64
	for i := 0; i == 0 || (i < maxSetups && spent < time.Duration(setupShare*float64(o.seconds))); i++ {
		if p != nil {
			p.stop()
			p = nil
			debug.FreeOSMemory() // collect the last set-up before building the next
		}
		total0, steal0 = cpuTicks()
		p, err = start(w, pipelineConfig{seed: o.seed, timed: o.seconds, trace: o.trace, checkpoint: checkpointPath(dir, i)})
		if err != nil {
			return nil, err
		}
		setup, err := p.waitReached(time.Until(o.deadline))
		if err != nil {
			p.stop()
			return nil, err
		}
		spent += setup
		out.setups = append(out.setups, setup.Seconds())
	}
	werr := p.waitDone(time.Until(o.deadline))
	if total1, steal1 := cpuTicks(); total1 > total0 {
		out.facts.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	rss := peakRSSMB()
	p.stop()
	if werr != nil {
		return nil, werr
	}

	W, L := w.warmup, int(p.last.Load())
	if L < W {
		return nil, fmt.Errorf("timed window closed before any epoch ran")
	}
	if T := int(p.untracedFrom.Load()); o.trace && (T < W+keepEpochs || T > L) {
		return nil, fmt.Errorf("traced window too short: traced epochs %d..%d, last timed epoch %d", W, T-1, L)
	}
	n := L - W + 1
	out.checks = append(out.checks, settleChecks(p, W, L)...)
	var sumReports int64
	for e := W; e <= L; e++ {
		sumReports += int64(p.stepReports[e])
	}
	unsettled := int64(max(0, L+1-contiguousPrefix(p.settled)))
	lost := p.ingestAt[L].lost - p.ingestAt[W-1].lost

	if o.trace {
		layers, spans, checks := traced(p, dir)
		out.metrics = layers
		out.checks = append(out.checks, checks...)
		out.layers = byName(spans, selfTimes(spans))
		out.tracePath = filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, o.seed))
		if err := os.MkdirAll(filepath.Dir(out.tracePath), 0o755); err != nil {
			return nil, err
		}
		if err := writeSpans(out.tracePath, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		out.metrics = endToEnd(p, W, L, median(out.setups), rss)
	}

	// The untimed batch comparison builds a second engine; release the
	// pipeline's first.
	results := make([]*engine.EpochResult, min(batchEpochs, w.warmup))
	for e := range results {
		results[e] = p.results[e]
	}
	p = nil
	runtime.GC()
	out.checks = append(out.checks, batchCheck(w, o.seed, results))

	var failedChecks int64
	for _, c := range out.checks {
		if !c.ok {
			failedChecks++
		}
	}
	out.failed = lost + unsettled + failedChecks
	out.attempted = sumReports + int64(n) + int64(len(out.checks))
	return out, nil
}

// Block sizes for the end-to-end metrics. A timed window is cut into
// consecutive blocks of epochs and each rate is the median of its block
// rates, so a short slow stretch of the host moves it little; the tail is
// taken per block of at least tailBlock epochs, where the highest
// percentile with ten samples beyond it is p90 or deeper, and the median
// of those block tails is reported.
const (
	rateBlocks     = 10
	minBlockEpochs = 5
	tailBlock      = 100
)

// blocks cuts the epochs [W, L] into k consecutive blocks of nearly equal
// size and returns each block's first and last epoch.
func blocks(W, L, k int) [][2]int {
	n := L - W + 1
	k = max(1, min(k, n))
	out := make([][2]int, k)
	for i := range out {
		out[i] = [2]int{W + i*n/k, W + (i+1)*n/k - 1}
	}
	return out
}

// endToEnd computes the untraced run's user-visible metrics over the timed
// epochs [W, L].
func endToEnd(p *pipeline, W, L int, setup, rss float64) []metric {
	n := L - W + 1
	// A block runs from the settle of the epoch before it to the settle of
	// its last epoch.
	rb := blocks(W, L, min(rateBlocks, n/minBlockEpochs))
	var epochRates, cpuPerEpoch []float64
	for _, b := range rb {
		wall := float64(p.observed[b[1]]-p.observed[b[0]-1]) / 1e9
		k := b[1] - b[0] + 1
		epochRates = append(epochRates, float64(k)/wall)
		cpuPerEpoch = append(cpuPerEpoch, ms(int64(p.cpu[b[1]]-p.cpu[b[0]-1]))/float64(k))
	}
	// Reports settle with their epoch: the report rate is the epoch rate
	// times the window's reports per epoch.
	var reports int
	for e := W; e <= L; e++ {
		reports += p.accepted[e]
	}
	epochRate := median(epochRates)

	var tails []float64
	var pct float64
	tb := blocks(W, L, n/tailBlock)
	for _, b := range tb {
		v, bp, _ := tail(verdictsOf(p, b[0], b[1]))
		tails = append(tails, v)
		pct = bp
	}
	verdict := verdictsOf(p, W, L)
	runTail, runPct, _ := tail(verdict)
	blockNote := fmt.Sprintf("median of %d blocks", len(rb))
	return []metric{
		{name: "setup_s", unit: "s", value: setup, note: "median of the set-ups"},
		{name: "epochs_per_s", unit: "1/s", value: epochRate, note: blockNote},
		{name: "reports_per_s", unit: "1/s", value: epochRate * float64(reports) / float64(n)},
		{name: "verdict_ms_p50", unit: "ms", value: median(verdict), note: fmt.Sprintf("over %d epochs", n)},
		{name: "verdict_ms_tail", unit: "ms", value: median(tails),
			note: fmt.Sprintf("p%.1f with %d beyond in blocks of about %d epochs, median of %d blocks (whole window: p%.2f = %.4g ms)",
				pct, tailBeyond, n/len(tb), len(tb), runPct, runTail)},
		{name: "cpu_ms_per_epoch", unit: "ms", value: median(cpuPerEpoch), note: blockNote},
		{name: "rss_peak_mb", unit: "MB", value: rss},
	}
}

// verdictsOf returns the emit-to-verdict latencies of epochs [from, to] in
// milliseconds.
func verdictsOf(p *pipeline, from, to int) []float64 {
	out := make([]float64, 0, to-from+1)
	for e := from; e <= to; e++ {
		out = append(out, ms(p.observed[e]-p.stepEnd[e]))
	}
	return out
}

// traced computes the per-layer metrics of a traced run: the traced
// cycles [W, T) from the stamps, the exact counts from the fixed range
// [W, W+keepEpochs), and the replays.
func traced(p *pipeline, dir string) ([]metric, []span, []check) {
	W, L, T := p.warmup, int(p.last.Load()), int(p.untracedFrom.Load())
	spans := cycleSpans(p, W, T, grace)
	self := selfTimes(spans)

	perEpoch := func(name string, useSelf bool) []float64 {
		sum := make(map[int]float64)
		for i, s := range spans {
			if s.Name == name {
				v := s.dur()
				if useSelf {
					v = self[i]
				}
				sum[s.Epoch] += float64(v)
			}
		}
		var out []float64
		for _, v := range sum {
			out = append(out, v/1e6)
		}
		return out
	}
	var cycle, step, send float64
	var reports int
	for i, s := range spans {
		switch s.Name {
		case "epoch":
			cycle += float64(s.dur())
		case "engine.step":
			step += float64(self[i])
		case "transport.send":
			send += float64(s.dur())
		}
	}
	for e := W; e < T; e++ {
		reports += p.stepReports[e]
	}
	rate := func(from, to int) float64 { // epochs settled per second over [from, to]
		return float64(to-from+1) / float64(p.observed[to]-p.observed[from-1])
	}
	var observeUs []float64
	for e := W; e < T; e++ {
		observeUs = append(observeUs, float64(p.observeEnd[e]-p.sinkStart[e])/1e3)
	}

	k := float64(keepEpochs)
	last := W + keepEpochs - 1
	var kr int
	for e := W; e <= last; e++ {
		kr += p.stepReports[e]
	}
	in0, in1 := p.ingestAt[W-1], p.ingestAt[last]
	m0, m1 := p.mem[0], p.mem[1]
	layers := []metric{
		{name: "engine.step_ms_p50", unit: "ms", value: median(perEpoch("engine.step", true))},
		{name: "engine.step_share", unit: "fraction", value: step / cycle},
		{name: "engine.reports_per_epoch", unit: "count", value: float64(kr) / k},
		{name: "transport.send_ms_p50", unit: "ms", value: median(perEpoch("transport.send", false))},
		{name: "transport.send_ns_per_report", unit: "ns", value: send / float64(max(reports, 1))},
		{name: "transport.frames_per_epoch", unit: "count", value: float64(p.agentFrames[1]-p.agentFrames[0]) / k},
		{name: "ingest.cycle_wait_ms_p50", unit: "ms", value: median(perEpoch("ingest.wait", false))},
		{name: "ingest.settle_lag_ms_p50", unit: "ms", value: median(perEpoch("ingest.settle", false))},
		{name: "ingest.accepted_per_epoch", unit: "reports/epoch", value: float64(in1.accepted-in0.accepted) / k},
		{name: "ingest.lost_per_epoch", unit: "reports/epoch", value: float64(in1.lost-in0.lost) / k},
		{name: "ingest.duplicates_per_epoch", unit: "reports/epoch", value: float64(in1.duplicates-in0.duplicates) / k},
		{name: "metrics.observe_us_p50", unit: "us", value: median(observeUs)},
		{name: "process.allocs_per_epoch", unit: "count", value: float64(m1.Mallocs-m0.Mallocs) / k},
		{name: "process.alloc_mb_per_epoch", unit: "MB", value: float64(m1.TotalAlloc-m0.TotalAlloc) / k / (1 << 20)},
		{name: "process.gc_cycles_per_epoch", unit: "1/epoch", value: float64(m1.NumGC-m0.NumGC) / k},
		{name: "trace.overhead_frac", unit: "fraction", value: 1 - rate(W, T-1)/rate(T, L)},
	}
	kept := make([]int, 0, keepEpochs)
	for e := W; e <= last; e++ {
		kept = append(kept, e)
	}
	r := replay(p, kept, dir)
	layers = append(layers, r.layers...)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			s.Parent += len(spans)
		}
		spans = append(spans, s)
	}
	return layers, spans, r.checks
}

// settleChecks is the pipeline half of the correctness gate: every epoch
// settled exactly once and in order through the timed window, every timed
// epoch settled all its reports, nothing was lost or duplicated, and a
// final scrape agrees with the sink.
func settleChecks(p *pipeline, W, L int) []check {
	inOrder := contiguousPrefix(p.settled) == len(p.settled) && len(p.settled) > L
	complete := true
	for e := W; e <= L && inOrder; e++ {
		complete = complete && p.accepted[e] == p.stepReports[e]
	}
	clean := p.ictr.Lost.Load() == 0 && p.ictr.Duplicates.Load() == 0

	var page bytes.Buffer
	writeScrape(&page, p)
	scrapeOK := len(p.settled) > 0 &&
		scrapeValue(page.String(), "vigil_epoch_last_settled") == int64(p.settled[len(p.settled)-1]) &&
		scrapeValue(page.String(), "vigil_ingest_settled_epochs_total") == int64(len(p.settled))
	return []check{
		{"settle_order", inOrder, "epochs 0.." + strconv.Itoa(L) + " settled exactly once, in order"},
		{"settle_complete", complete, "accepted == expected for every timed epoch"},
		{"no_loss", clean, "lost == 0 and duplicates == 0"},
		{"scrape", scrapeOK, "/metrics last-settled epoch and settled-epoch counter agree with the sink"},
	}
}

// batchCheck compares the leading settled epochs with batch RunEpoch on a
// fresh engine built from the same seed and failures.
func batchCheck(w *workload, seed uint64, settled []*engine.EpochResult) check {
	c := check{name: "batch_identity", what: fmt.Sprintf("the first %d settled epochs equal batch RunEpoch", len(settled))}
	eng, err := w.build(seed)
	if err != nil {
		c.what += ": " + err.Error()
		return c
	}
	c.ok = true
	for _, want := range settled {
		got := eng.RunEpoch()
		if want == nil || !reflect.DeepEqual(got, want) {
			c.ok = false
			c.what += fmt.Sprintf("; epoch %d differs in %s", got.Epoch, diffFields(got, want))
		}
	}
	return c
}

// contiguousPrefix returns how many leading entries of settled are
// 0, 1, 2, ...
func contiguousPrefix(settled []int) int {
	for i, e := range settled {
		if e != i {
			return i
		}
	}
	return len(settled)
}

// scrapeValue returns the value of an unlabelled series in a Prometheus
// text page, or -1 if it is absent.
func scrapeValue(page, name string) int64 {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			if n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64); err == nil {
				return n
			}
		}
	}
	return -1
}

// print writes the human-readable report.
func (o *outcome) print(w io.Writer, trace bool) {
	for _, m := range o.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %-13s %s\n", m.name, m.value, m.unit, m.note)
	}
	if !trace {
		fmt.Fprintf(w, "%-36s %14.6g %-13s %d failed of %d attempted\n", "failed_frac", o.failedFrac(), "fraction", o.failed, o.attempted)
		fmt.Fprintf(w, "set-ups (s): %v\n", o.setups)
	}
	for _, c := range o.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-18s %-6s %s\n", c.name, status, c.what)
	}
	if trace {
		printLayers(w, o.layers)
		fmt.Fprintf(w, "spans written to %s\n", o.tracePath)
	}
}

func (o *outcome) failedFrac() float64 { return float64(o.failed) / float64(max(o.attempted, 1)) }

// diffFields names the EpochResult fields in which a and b differ.
func diffFields(a, b *engine.EpochResult) string {
	if b == nil {
		return "everything (not settled)"
	}
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	var names []string
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Slice && fa.Len() == 0 && fb.Len() == 0 {
			name += " (nil vs empty slice)"
		}
		names = append(names, name)
	}
	return strings.Join(names, ", ")
}
