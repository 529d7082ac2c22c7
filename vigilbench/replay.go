package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"

	"vigil/internal/analysis"
	"vigil/internal/transport"
	"vigil/internal/vote"
)

// Replay repetitions for the calls that are too quick, or too few per
// run, to give a tail otherwise.
const (
	checkpointSaves = 60
	scrapes         = 60
)

// replayOut is what the replays measured.
type replayOut struct {
	spans  []span
	layers []metric
	checks []check
}

// replay times the layers' public calls on the kept epochs' settled
// reports: the wire codec (transport.AppendReport/DecodeReport), the
// checkpoint (transport.Checkpoint.Save in the run's checkpoint directory),
// the collector's analysis (analysis.Analyze) and its vote steps
// (vote.NewTally, FindProblemLinks, ClassifyFlows), and a /metrics scrape.
// It runs after the pipeline has drained, so it cannot perturb it, and it
// checks that the codec and the analysis reproduce what the pipeline
// settled. The vote steps are timed one after another over all of an
// epoch's reports; analysis.Analyze sums the same tally in fixed chunks, so
// their floating-point results may differ in the last bits and are not
// compared.
func replay(p *pipeline, epochs []int, ckptDir string) replayOut {
	var out replayOut
	an := p.inner.Analysis()
	an.Detect.Topo, an.Detect.Adjuster = nil, nil // as the collector rebuilds them from the handshake

	maxN := 0
	for _, e := range epochs {
		maxN = max(maxN, len(p.results[e].Reports))
	}
	var buf []byte
	offs := make([]int, 0, maxN+1)
	decoded := make([]transport.Report, maxN)
	encode := func(rs []vote.Report) {
		buf, offs = buf[:0], offs[:0]
		for i, r := range rs {
			offs = append(offs, len(buf))
			buf = transport.AppendReport(buf, transport.Report{Seq: uint64(i + 1), R: r})
		}
		offs = append(offs, len(buf))
	}

	var encNs, decNs, codecAllocs, frameBytes, reports float64
	var analyzeMs, tallyMs, detectMs, classifyMs []float64
	var analysisAllocs, detected float64
	codecOK, analysisOK := true, true
	var m0, m1 runtime.MemStats
	for _, e := range epochs {
		res := p.results[e]
		rs := res.Reports
		n := len(rs)
		root := len(out.spans)
		out.spans = append(out.spans, span{Name: "replay", Epoch: e, Parent: -1, Start: p.now()})
		child := func(name string, start int64) int64 {
			end := p.now()
			out.spans = append(out.spans, span{Name: name, Epoch: e, Parent: root, Start: start, End: end})
			return end - start
		}

		encode(rs) // grow the buffers outside the timed pass
		runtime.ReadMemStats(&m0)
		t := p.now()
		encode(rs)
		encNs += float64(child("transport.encode", t))
		runtime.ReadMemStats(&m1)
		codecAllocs += float64(m1.Mallocs - m0.Mallocs)
		frameBytes += float64(len(buf) + 4*n) // each frame adds a 4-byte length prefix

		runtime.ReadMemStats(&m0)
		t = p.now()
		var decErr error
		for i := 0; i < n; i++ {
			f, err := transport.DecodeReport(buf[offs[i]+1 : offs[i+1]]) // skip the type byte
			if err != nil {
				decErr = err
			}
			decoded[i] = f
		}
		decNs += float64(child("transport.decode", t))
		runtime.ReadMemStats(&m1)
		codecAllocs += float64(m1.Mallocs - m0.Mallocs)
		for i := 0; i < n && decErr == nil; i++ {
			if decoded[i].Seq != uint64(i+1) || !reflect.DeepEqual(decoded[i].R, rs[i]) {
				decErr = fmt.Errorf("report %d of epoch %d did not survive the codec", i, e)
			}
		}
		if decErr != nil {
			codecOK = false
		}
		reports += float64(n)

		runtime.ReadMemStats(&m0)
		t = p.now()
		ar := analysis.Analyze(rs, an)
		analyzeMs = append(analyzeMs, ms(child("analysis.analyze", t)))
		runtime.ReadMemStats(&m1)
		analysisAllocs += float64(m1.Mallocs - m0.Mallocs)
		if !reflect.DeepEqual(ar.Ranking, res.Ranking) || !reflect.DeepEqual(ar.Detected, res.Detected) || !reflect.DeepEqual(ar.Verdicts, res.Verdicts) {
			analysisOK = false
		}

		t = p.now()
		tally := vote.NewTally()
		tally.AddAll(rs)
		tallyMs = append(tallyMs, ms(child("vote.tally", t)))
		t = p.now()
		opts := an.Detect
		opts.Adjuster = vote.NewObservedAdjuster(rs)
		det := vote.FindProblemLinks(tally, opts)
		detectMs = append(detectMs, ms(child("vote.detect", t)))
		t = p.now()
		vote.ClassifyFlows(tally, det, rs)
		classifyMs = append(classifyMs, ms(child("vote.classify", t)))
		detected += float64(len(res.Detected))
		out.spans[root].End = p.now()
	}
	k := float64(len(epochs))
	out.checks = append(out.checks,
		check{"codec_round_trip", codecOK, "every kept report decodes to itself"},
		check{"replay_analysis", analysisOK, "analysis.Analyze on the settled reports reproduces the settled verdict"},
	)

	var ckptMs []float64
	ckpt := filepath.Join(ckptDir, "replay.ckpt")
	ckptOK := true
	for i := 0; i < checkpointSaves; i++ {
		cp := transport.Checkpoint{V: 1, App: int64(i), Sessions: map[uint64]uint64{1: uint64(i)}}
		t := p.now()
		err := cp.Save(ckpt)
		end := p.now()
		out.spans = append(out.spans, span{Name: "transport.checkpoint", Epoch: i, Parent: -1, Start: t, End: end})
		ckptMs = append(ckptMs, ms(end-t))
		if err != nil {
			ckptOK = false
		}
	}
	out.checks = append(out.checks, check{"checkpoint_save", ckptOK, "Checkpoint.Save succeeds in the run's checkpoint directory"})

	var scrapeUs []float64
	var page bytes.Buffer
	for i := 0; i < scrapes; i++ {
		page.Reset()
		t := p.now()
		writeScrape(&page, p)
		end := p.now()
		out.spans = append(out.spans, span{Name: "metrics.scrape", Epoch: i, Parent: -1, Start: t, End: end})
		scrapeUs = append(scrapeUs, float64(end-t)/1e3)
	}

	ckptTail, _, _ := tail(ckptMs)
	out.layers = []metric{
		{name: "transport.encode_ns_per_report", unit: "ns", value: encNs / reports},
		{name: "transport.decode_ns_per_report", unit: "ns", value: decNs / reports},
		{name: "transport.codec_allocs_per_report", unit: "allocs/report", value: codecAllocs / reports},
		{name: "transport.frame_bytes_per_report", unit: "B", value: frameBytes / reports},
		{name: "transport.checkpoint_ms_p50", unit: "ms", value: median(ckptMs)},
		{name: "transport.checkpoint_ms_tail", unit: "ms", value: ckptTail},
		{name: "analysis.analyze_ms_p50", unit: "ms", value: median(analyzeMs)},
		{name: "analysis.allocs_per_epoch", unit: "allocs/epoch", value: analysisAllocs / k},
		{name: "vote.tally_ms_p50", unit: "ms", value: median(tallyMs)},
		{name: "vote.detect_ms_p50", unit: "ms", value: median(detectMs)},
		{name: "vote.classify_ms_p50", unit: "ms", value: median(classifyMs)},
		{name: "vote.detected_links", unit: "count", value: detected / k},
		{name: "metrics.scrape_us_p50", unit: "us", value: median(scrapeUs)},
		{name: "metrics.scrape_bytes", unit: "B", value: float64(page.Len())},
	}
	return out
}

// writeScrape renders what vigild's /metrics serves in collector mode.
func writeScrape(b *bytes.Buffer, p *pipeline) {
	p.ictr.WritePrometheus(b)
	p.srvCtr.WritePrometheus(b)
	p.exp.WritePrometheus(b)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
