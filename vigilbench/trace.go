package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// span is one timed interval of the traced run. Spans stay in memory while
// the benchmark runs and are written out when it ends.
type span struct {
	Name   string `json:"name"`
	Epoch  int    `json:"epoch"`  // the epoch the span works on
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the part of it its
// children cover. Children are clipped to their parent and overlapping
// children count once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// cycleSpans builds the span tree of the traced cycles [from, to): for each
// epoch e the agent's cycle (Step start of e to Step start of e+1) as the
// root, split into engine.step (with its transport.send children) and
// ingest.wait. The settle of epoch e-Grace happens inside cycle e's wait:
// ingest.settle runs from Step return of e to the exporter having observed
// e-Grace, and holds the sink's metrics.observe.
func cycleSpans(p *pipeline, from, to, grace int) []span {
	var out []span
	stepIdx := make(map[int]int)
	for e := from; e < to; e++ {
		root := len(out)
		out = append(out, span{Name: "epoch", Epoch: e, Parent: -1, Start: p.stepStart[e], End: p.stepStart[e+1]})
		stepIdx[e] = len(out)
		out = append(out, span{Name: "engine.step", Epoch: e, Parent: root, Start: p.stepStart[e], End: p.stepEnd[e]})
		wait := len(out)
		out = append(out, span{Name: "ingest.wait", Epoch: e, Parent: root, Start: p.stepEnd[e], End: p.stepStart[e+1]})
		if s := e - grace; s >= 0 {
			settle := len(out)
			out = append(out, span{Name: "ingest.settle", Epoch: s, Parent: wait, Start: p.stepEnd[e], End: p.observeEnd[s]})
			out = append(out, span{Name: "metrics.observe", Epoch: s, Parent: settle, Start: p.sinkStart[s], End: p.observeEnd[s]})
		}
	}
	for _, s := range p.sends {
		if i, ok := stepIdx[s.Epoch]; ok {
			s.Parent = i
			out = append(out, s)
		}
	}
	return out
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	name        string
	count       int
	total, self int64
}

// byName aggregates spans and their self times per name, in first-seen
// order.
func byName(spans []span, self []int64) []layerTime {
	idx := make(map[string]int)
	var out []layerTime
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, layerTime{name: s.Name})
		}
		out[j].count++
		out[j].total += s.dur()
		out[j].self += self[i]
	}
	return out
}

// writeSpans writes the spans as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayers prints the per-name span table: count, total and self time.
func printLayers(w io.Writer, layers []layerTime) {
	fmt.Fprintf(w, "%-20s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, l := range layers {
		fmt.Fprintf(w, "%-20s %8d %12.3f %12.3f\n", l.name, l.count, float64(l.total)/1e6, float64(l.self)/1e6)
	}
}
