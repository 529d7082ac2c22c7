package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"vigil/internal/engine"
	"vigil/internal/ingest"
	"vigil/internal/metrics"
	"vigil/internal/topology"
	"vigil/internal/vote"
)

// maxEpochs bounds the per-epoch stamp arrays. A run that reaches it
// closes its timed window early; epochSlack leaves room for the epochs the
// agent still runs while the window's last epochs settle.
const (
	maxEpochs  = 1 << 15
	epochSlack = 8
)

// coalesce is the longest gap between two emits of one Step that still
// counts as one transport.send span. Shorter gaps are the engine's emit
// loop itself, not engine work, so a flow-plane epoch's report stream is
// one span instead of thousands.
const coalesce = 2 * time.Microsecond

// scenarioLabel names the conformance series the sink feeds, as vigild's
// -scenario flag does.
const scenarioLabel = "bench"

// pipeline is one set-up of vigild's networked path inside this process:
// ingest.ServeCollector on loopback with its checkpoint on disk and a sink
// that feeds metrics.EpochExporter as vigild does, plus one ingest.RunAgent
// session driving the workload's engine through a stamping wrapper.
//
// Every stamp is nanoseconds since base. The agent goroutine writes the
// step fields, the collector goroutine (inside the sink) writes the sink
// fields, and the caller reads both only after stop has waited for the two
// goroutines to end.
type pipeline struct {
	base     time.Time
	inner    engine.Engine
	topo     *topology.Topology
	col      *ingest.NetCollector
	exp      *metrics.EpochExporter
	ictr     *metrics.IngestCounters
	srvCtr   *metrics.TransportCounters
	agentCtr *metrics.TransportCounters
	cancel   context.CancelFunc
	done     chan error    // RunAgent's result
	reached  chan struct{} // closed when the first timed epoch starts

	warmup int
	timed  time.Duration // length of the timed window
	trace  bool

	// Agent goroutine.
	t0          int64 // start of the first timed epoch
	stepStart   []int64
	stepEnd     []int64
	stepReports []int
	sends       []span
	emit        func(vote.Report) // RunAgent's emit for the running Step
	tracedEmit  func(vote.Report) // p.stampEmit, bound once
	epoch       int
	lastEmitEnd int64
	agentFrames [2]int64 // agent frames sent at the starts of epochs warmup and warmup+keepEpochs

	// Collector goroutine.
	settled    []int
	sinkStart  []int64
	observed   []int64 // EpochExporter.ObserveEpoch returned
	observeEnd []int64
	accepted   []int
	cpu        []time.Duration // process CPU when the epoch's sink ran
	ingestAt   []ingestSnap
	results    map[int]*engine.EpochResult // the epochs keeps selects
	mem        [2]runtime.MemStats         // at the sinks of epochs warmup-1 and warmup+keepEpochs-1

	// Shared.
	untracedFrom atomic.Int64 // first untraced epoch of a traced run; -1 until decided
	last         atomic.Int64 // last timed epoch; -1 while the window is open
}

type ingestSnap struct{ accepted, lost, duplicates int64 }

// pipelineConfig is what start needs beyond the workload.
type pipelineConfig struct {
	seed       uint64
	timed      time.Duration
	trace      bool
	checkpoint string
}

// start builds the workload's engine, the collector and the agent session,
// and returns once the agent is running; set-up ends when reached closes.
func start(w *workload, cfg pipelineConfig) (*pipeline, error) {
	base := time.Now()
	eng, err := w.build(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", w.name, err)
	}
	p := &pipeline{
		base:        base,
		inner:       eng,
		topo:        eng.Topology(),
		exp:         metrics.NewEpochExporter(0),
		ictr:        &metrics.IngestCounters{},
		srvCtr:      &metrics.TransportCounters{},
		agentCtr:    &metrics.TransportCounters{},
		done:        make(chan error, 1),
		reached:     make(chan struct{}),
		warmup:      w.warmup,
		timed:       cfg.timed,
		trace:       cfg.trace,
		stepStart:   make([]int64, maxEpochs+epochSlack),
		stepEnd:     make([]int64, maxEpochs+epochSlack),
		stepReports: make([]int, maxEpochs+epochSlack),
		sinkStart:   make([]int64, maxEpochs+epochSlack),
		observed:    make([]int64, maxEpochs+epochSlack),
		observeEnd:  make([]int64, maxEpochs+epochSlack),
		accepted:    make([]int, maxEpochs+epochSlack),
		cpu:         make([]time.Duration, maxEpochs+epochSlack),
		ingestAt:    make([]ingestSnap, maxEpochs+epochSlack),
		settled:     make([]int, 0, maxEpochs+epochSlack),
		results:     make(map[int]*engine.EpochResult),
	}
	if cfg.trace {
		p.sends = make([]span, 0, 1<<16)
	}
	p.tracedEmit = p.stampEmit
	p.untracedFrom.Store(-1)
	p.last.Store(-1)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("collector listen: %w", err)
	}
	p.col, err = ingest.ServeCollector(ingest.CollectorConfig{
		Listener:       ln,
		Sessions:       1,
		CheckpointPath: cfg.checkpoint,
		Sink:           p.sink,
		Counters:       p.ictr,
		Transport:      p.srvCtr,
	})
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("starting collector: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p.cancel = cancel
	go func() {
		p.done <- ingest.RunAgent(ctx, ingest.AgentConfig{
			Engine:   stamped{eng, p},
			Addr:     p.col.Addr(),
			Session:  1,
			Epochs:   1 << 30, // the timed window ends the run, not the count
			Seed:     cfg.seed,
			Counters: p.agentCtr,
		})
	}()
	return p, nil
}

func (p *pipeline) now() int64 { return int64(time.Since(p.base)) }

// waitReached blocks until the first timed epoch starts and returns the
// set-up time, or the agent's error if it ended first.
func (p *pipeline) waitReached(limit time.Duration) (time.Duration, error) {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-p.reached:
		return time.Duration(p.t0), nil
	case err := <-p.done:
		p.done <- err
		return 0, fmt.Errorf("agent ended during set-up: %v", err)
	case <-t.C:
		return 0, fmt.Errorf("set-up did not finish within %v", limit)
	}
}

// waitDone blocks until the agent session ends: the sink cancels it once
// the timed window's last epoch has settled.
func (p *pipeline) waitDone(limit time.Duration) error {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case err := <-p.done:
		p.done <- err
		if err != nil && !errors.Is(err, context.Canceled) {
			return fmt.Errorf("agent session: %w", err)
		}
		return nil
	case <-t.C:
		return fmt.Errorf("timed window did not settle within %v", limit)
	}
}

// stop ends the agent session and the collector and waits for both.
func (p *pipeline) stop() {
	p.cancel()
	err := <-p.done
	p.done <- err
	p.col.Close()
	p.col.Wait(context.Background())
}

// stamped wraps the workload's engine to stamp each Step and, in the
// traced part of a traced run, each report the Step emits.
type stamped struct {
	engine.Engine
	p *pipeline
}

func (s stamped) Step(emit func(vote.Report)) *engine.EpochResult {
	p := s.p
	e := p.inner.EpochIndex()
	tracing := p.begin(e)
	var res *engine.EpochResult
	if tracing {
		p.emit, p.epoch, p.lastEmitEnd = emit, e, -1
		res = p.inner.Step(p.tracedEmit)
	} else {
		res = p.inner.Step(emit)
	}
	if e < len(p.stepEnd) {
		p.stepEnd[e] = p.now()
		p.stepReports[e] = len(res.Reports)
	}
	return res
}

// begin stamps the start of epoch e, moves the run between its phases and
// reports whether the epoch is traced.
func (p *pipeline) begin(e int) bool {
	now := p.now()
	if e < len(p.stepStart) {
		p.stepStart[e] = now
	}
	switch {
	case e < p.warmup:
		return false
	case e == p.warmup:
		p.t0 = now
		p.agentFrames[0] = p.agentCtr.FramesSent.Load()
		close(p.reached)
		return p.trace
	}
	if p.trace && e == p.warmup+keepEpochs {
		p.agentFrames[1] = p.agentCtr.FramesSent.Load()
	}
	elapsed := time.Duration(now - p.t0)
	uf := p.untracedFrom.Load()
	if p.last.Load() < 0 {
		if p.trace && uf < 0 && e >= p.warmup+keepEpochs && elapsed >= p.timed/2 {
			uf = int64(e)
			p.untracedFrom.Store(uf)
		}
		windowDone := elapsed >= p.timed && (!p.trace || (uf >= 0 && int64(e) > uf))
		if windowDone || e >= maxEpochs {
			p.last.Store(int64(e - 1))
		}
	}
	return p.trace && (uf < 0 || int64(e) < uf)
}

// stampEmit forwards one report to RunAgent's emit (which frames it and
// writes it to the session) and records the time as transport.send.
func (p *pipeline) stampEmit(r vote.Report) {
	t := p.now()
	p.emit(r)
	end := p.now()
	if n := len(p.sends); n > 0 && p.lastEmitEnd >= 0 && t-p.lastEmitEnd < int64(coalesce) {
		p.sends[n-1].End = end
	} else {
		p.sends = append(p.sends, span{Name: "transport.send", Epoch: p.epoch, Parent: -1, Start: t, End: end})
	}
	p.lastEmitEnd = end
}

// sink receives each settled epoch on the collector goroutine. It feeds
// the exporter exactly as vigild's observeEpoch does, and stamps it.
func (p *pipeline) sink(res *engine.EpochResult) {
	e := res.Epoch
	start := p.now()
	p.settled = append(p.settled, e)
	if e >= len(p.sinkStart) {
		p.cancel()
		return
	}
	p.sinkStart[e] = start
	p.accepted[e] = len(res.Reports)

	detected := make(map[topology.LinkID]bool, len(res.Detected))
	for _, l := range res.Detected {
		detected[l] = true
	}
	ranked := make([]metrics.RankedLink, 0, len(res.Ranking))
	for _, lv := range res.Ranking {
		ranked = append(ranked, metrics.RankedLink{
			Link:     p.topo.LinkName(lv.Link),
			Votes:    lv.Votes,
			Detected: detected[lv.Link],
		})
	}
	p.exp.ObserveEpoch(int64(res.Epoch), ranked)
	p.observed[e] = p.now()
	p.exp.ObserveConformance(scenarioLabel, metrics.ScoreDetection(res.Detected, res.FailedLinks))
	p.observeEnd[e] = p.now()

	p.cpu[e] = processCPU()
	p.ingestAt[e] = ingestSnap{p.ictr.Accepted.Load(), p.ictr.Lost.Load(), p.ictr.Duplicates.Load()}
	if p.keeps(e) {
		p.results[e] = res
	}
	if p.trace && e == p.warmup-1 {
		runtime.ReadMemStats(&p.mem[0])
	}
	if p.trace && e == p.warmup+keepEpochs-1 {
		runtime.ReadMemStats(&p.mem[1])
	}
	if l := p.last.Load(); l >= 0 && int64(e) >= l {
		p.cancel()
	}
}

// keeps reports whether epoch e's settled result is kept: the leading
// epochs for the batch comparison and, in a traced run, the first
// keepEpochs timed ones for the replays.
func (p *pipeline) keeps(e int) bool {
	return e < min(batchEpochs, p.warmup) || (p.trace && e >= p.warmup && e < p.warmup+keepEpochs)
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// checkpointPath returns the checkpoint file of set-up i in dir; each
// set-up starts fresh, never resuming an earlier one's checkpoint.
func checkpointPath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("vigild-%d.ckpt", i))
}
