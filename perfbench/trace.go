package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bhss/internal/jammer"
	"bhss/internal/obs"
)

// now is the benchmark's clock: monotonic nanoseconds since process start.
func now() int64 { return obs.Now() }

// span is one traced interval recorded from the benchmark's own code,
// around a call into a layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Burst  int    `json:"burst"`  // burst (hub-stream) or point (sweeps) id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Stages carries the observer's stage sums for the span's interval
	// (sweep points), keyed by metric name.
	Stages map[string]int64 `json:"stages_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records s and returns its id.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

// selfTimes returns, per span name, the summed self time: a span's
// duration minus the part of it its children cover. rootNS is the summed
// duration of the root spans; every self time sums to it when children nest
// inside their parents.
func (t *tracer) selfTimes() (self map[string]int64, rootNS int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	for _, s := range t.spans {
		dur := s.End - s.Start
		if s.Parent == 0 {
			rootNS += dur
		}
		self[s.Name] += dur - covered(s, children[s.ID])
	}
	return self, rootNS
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}

// selfTable renders rows of (name, ns) as a table of self time per root
// and share of the root total, largest first.
func selfTable(title string, rows map[string]int64, roots int, rootNS int64) []string {
	names := make([]string, 0, len(rows))
	for n, ns := range rows {
		if ns != 0 {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if rows[names[i]] != rows[names[j]] {
			return rows[names[i]] > rows[names[j]]
		}
		return names[i] < names[j]
	})
	out := []string{fmt.Sprintf("self-time %s: %d roots, %.3f ms mean", title, roots, ratio(float64(rootNS)/1e6, float64(roots)))}
	var sum int64
	for _, n := range names {
		sum += rows[n]
		out = append(out, fmt.Sprintf("self-time   %-28s %10.3f ms each %7.2f%%",
			n, ratio(float64(rows[n])/1e6, float64(roots)), 100*ratio(float64(rows[n]), float64(rootNS))))
	}
	out = append(out, fmt.Sprintf("self-time   %-28s %10.3f ms each %7.2f%%",
		"(sum)", ratio(float64(sum)/1e6, float64(roots)), 100*ratio(float64(sum), float64(rootNS))))
	return out
}

// jamClock accumulates the time spent inside one point's jammer calls and
// records each call as a child span of the point.
type jamClock struct {
	burst int
	ns    int64
	calls int64
	// spans holds this point's jammer spans until the point span exists.
	spans []span
}

func (c *jamClock) record(t0, t1 int64) {
	c.ns += t1 - t0
	c.calls++
	c.spans = append(c.spans, span{Burst: c.burst, Name: "jammer", Start: t0, End: t1})
}

// timedSource wraps a jammer.Source so the traced run can time Emit.
type timedSource struct {
	jammer.Source
	clk *jamClock
}

func (s *timedSource) Emit(n int) []complex128 {
	t0 := now()
	out := s.Source.Emit(n)
	s.clk.record(t0, now())
	return out
}

// timedTxAware wraps a sensing jammer. It must stay a jammer.TxAware, or
// experiment.Trial would fall back to Emit and change the workload.
type timedTxAware struct {
	timedSource
	ta jammer.TxAware
}

func (s *timedTxAware) Jam(tx []complex128) []complex128 {
	t0 := now()
	out := s.ta.Jam(tx)
	s.clk.record(t0, now())
	return out
}

func (s *timedTxAware) NewBurst()                     { s.ta.NewBurst() }
func (s *timedTxAware) SetObserver(m *obs.JamMetrics) { s.ta.SetObserver(m) }

// wrapJammer returns src timed by clk, keeping its sensing interface.
func wrapJammer(src jammer.Source, clk *jamClock) jammer.Source {
	ts := timedSource{Source: src, clk: clk}
	if ta, ok := src.(jammer.TxAware); ok {
		return &timedTxAware{timedSource: ts, ta: ta}
	}
	return &ts
}

// layers accumulates the per-layer readings of a traced run: the
// observer's counters and stage histograms plus the benchmark's own
// timings around layer calls.
type layers struct {
	stageNS, stageN [obs.NumStages]int64

	bursts, decoded, hops int64
	decision              [3]int64

	welchHit, welchMiss, notchHit, notchMiss int64
	lowHit, lowMiss, shapeHit, shapeMiss     int64
	planHit, planMiss                        int64

	psdCalls, psdSegments, psdNS int64
	awgnNS, awgnN                int64
	impairNS, impairN            int64
	jamEstimates, jamRetunes     int64
	jamNS, jamCalls              int64

	// Harness readings.
	points, pointErrors     int64
	frames, framesLost      int64
	pointNS                 int64
	windowWaitNS, hubBursts int64 // hub: complete burst waiting for the decoder
	genLateMaxNS            int64
	sendNS, recvWaitNS      int64
	transitNS               int64
	mixedBlocks             int64
	queueHighWater          float64
	rxQueueDrops            int64
	txOverflowWaits         int64
	rxEvictions             int64
	overheadFrac            float64
	unaccountedFrac         float64
}

// addPipeline adds one pipeline's readings (a sweep point's private
// observer, or the hub link's).
func (l *layers) addPipeline(p *obs.Pipeline) {
	for i := range p.StageNS {
		l.stageNS[i] += p.StageNS[i].Sum()
		l.stageN[i] += p.StageNS[i].Count()
	}
	l.bursts += p.Rx.Bursts.Load()
	l.decoded += p.Rx.Decoded.Load()
	l.hops += p.Rx.Hops.Load()
	for i := range l.decision {
		l.decision[i] += p.Rx.Decision[i].Load()
	}
	l.welchHit += p.Cache.WelchHit.Load()
	l.welchMiss += p.Cache.WelchMiss.Load()
	l.notchHit += p.Cache.NotchHit.Load()
	l.notchMiss += p.Cache.NotchMiss.Load()
	l.lowHit += p.Cache.LowPassHit.Load()
	l.lowMiss += p.Cache.LowPassMiss.Load()
	l.shapeHit += p.Cache.ShapeHit.Load()
	l.shapeMiss += p.Cache.ShapeMiss.Load()
	l.psdCalls += p.PSD.Calls.Load()
	l.psdSegments += p.PSD.Segments.Load()
	l.psdNS += p.PSD.EstimateNS.Sum()
	l.awgnNS += p.Chan.MixNS.Sum()
	l.awgnN += p.Chan.MixNS.Count()
	l.impairNS += p.Impair.ChainNS.Sum()
	l.impairN += p.Impair.ChainNS.Count()
	l.jamEstimates += p.Jam.Estimates.Load()
	l.jamRetunes += p.Jam.Retunes.Load()
	l.mixedBlocks += p.Hub.MixedBlocks.Load()
	l.rxQueueDrops += p.Hub.RxQueueDrops.Load()
	l.txOverflowWaits += p.Hub.TxOverflowWaits.Load()
	l.rxEvictions += p.Hub.RxEvictions.Load()
	l.queueHighWater = max(l.queueHighWater, p.Hub.QueueHighWater.Load())
}

// fftPlanCounts reads the process-wide FFT plan cache counters that
// internal/dsp registers with obs.
func fftPlanCounts() (hit, miss int64) {
	for _, c := range obs.NewPipeline().SnapshotLight().Counters {
		switch c.Name {
		case "dsp.fftplan.hit":
			hit = c.Value
		case "dsp.fftplan.miss":
			miss = c.Value
		}
	}
	return hit, miss
}

// stageMS is the mean time per burst a stage took, summed over its calls
// within the burst (track and demod run once per hop).
func (l *layers) stageMS(s obs.Stage) float64 {
	return ratio(float64(l.stageNS[s])/1e6, float64(l.bursts))
}

// decodeNestedNS is the decode stage's time spent in its nested stages.
// Filter design runs inside the filter stage, so it is not counted again.
func (l *layers) decodeNestedNS() int64 {
	return l.stageNS[obs.StageRxAcquire] + l.stageNS[obs.StageRxEstimate] +
		l.stageNS[obs.StageRxFilter] + l.stageNS[obs.StageRxTrack] +
		l.stageNS[obs.StageRxDemod] + l.stageNS[obs.StageRxDespread]
}

// hitRatio is hits over lookups (0 when there were none).
func hitRatio(hit, miss int64) float64 { return ratio(float64(hit), float64(hit+miss)) }

// metrics emits every per-layer metric, in BENCHMARK.json order; layers a
// workload does not run report 0.
func (l *layers) metrics(r *result) {
	jamBursts := float64(l.frames)
	if jamBursts == 0 {
		jamBursts = float64(l.bursts)
	}
	r.add("jammer.emit_ms", ratio(float64(l.jamNS)/1e6, float64(l.jamCalls)), "ms")
	r.add("jammer.retunes_per_burst", ratio(float64(l.jamRetunes), jamBursts), "count")
	r.add("jammer.estimates_per_burst", ratio(float64(l.jamEstimates), jamBursts), "count")
	r.add("jammer.point_share", ratio(float64(l.jamNS), float64(l.pointNS)), "frac")

	r.add("core.rx.acquire_ms", l.stageMS(obs.StageRxAcquire), "ms")
	r.add("core.rx.track_ms", l.stageMS(obs.StageRxTrack), "ms")
	r.add("core.rx.decode_ms", l.stageMS(obs.StageRxDecode), "ms")
	r.add("core.rx.decode_self_ms", ratio(float64(l.stageNS[obs.StageRxDecode]-l.decodeNestedNS())/1e6, float64(l.bursts)), "ms")
	r.add("core.rx.estimate_ms", l.stageMS(obs.StageRxEstimate), "ms")
	r.add("core.rx.filter_design_ms", l.stageMS(obs.StageRxFilterDesign), "ms")
	r.add("core.rx.filter_ms", l.stageMS(obs.StageRxFilter), "ms")
	r.add("core.rx.demod_ms", l.stageMS(obs.StageRxDemod), "ms")
	r.add("core.rx.despread_ms", l.stageMS(obs.StageRxDespread), "ms")
	r.add("core.rx.decoded_ratio", ratio(float64(l.decoded), float64(l.bursts)), "frac")
	r.add("core.rx.decision_none_frac", ratio(float64(l.decision[0]), float64(l.hops)), "frac")
	r.add("core.rx.decision_lowpass_frac", ratio(float64(l.decision[1]), float64(l.hops)), "frac")
	r.add("core.rx.decision_excision_frac", ratio(float64(l.decision[2]), float64(l.hops)), "frac")

	r.add("core.cache.welch_hit_ratio", hitRatio(l.welchHit, l.welchMiss), "frac")
	r.add("core.cache.notch_hit_ratio", hitRatio(l.notchHit, l.notchMiss), "frac")
	r.add("core.cache.lowpass_hit_ratio", hitRatio(l.lowHit, l.lowMiss), "frac")
	r.add("core.cache.shape_hit_ratio", hitRatio(l.shapeHit, l.shapeMiss), "frac")
	r.add("dsp.fftplan_hit_ratio", hitRatio(l.planHit, l.planMiss), "frac")
	r.add("spectral.psd_ms", ratio(float64(l.psdNS)/1e6, float64(l.psdCalls)), "ms")
	r.add("spectral.segments_per_call", ratio(float64(l.psdSegments), float64(l.psdCalls)), "count")

	r.add("core.tx.encode_ms", ratio(float64(l.stageNS[obs.StageTxEncode])/1e6, float64(l.stageN[obs.StageTxEncode])), "ms")
	r.add("channel.awgn_ms", ratio(float64(l.awgnNS)/1e6, float64(l.awgnN)), "ms")
	r.add("impair.chain_ms", ratio(float64(l.impairNS)/1e6, float64(l.impairN)), "ms")

	r.add("iqstream.send_ms", ratio(float64(l.sendNS)/1e6, float64(l.hubBursts)), "ms")
	r.add("iqstream.recv_wait_ms", ratio(float64(l.recvWaitNS)/1e6, float64(l.hubBursts)), "ms")
	r.add("iqstream.transit_ms", ratio(float64(l.transitNS)/1e6, float64(l.hubBursts)), "ms")
	r.add("iqstream.mixed_blocks_per_burst", ratio(float64(l.mixedBlocks), float64(l.hubBursts)), "count")
	r.add("iqstream.queue_high_water", l.queueHighWater, "samples")
	r.add("iqstream.rx_queue_drops", float64(l.rxQueueDrops), "count")
	r.add("iqstream.tx_overflow_waits", float64(l.txOverflowWaits), "count")
	r.add("iqstream.rx_evictions", float64(l.rxEvictions), "count")

	r.add("experiment.points", float64(l.points), "count")
	r.add("experiment.point_errors", float64(l.pointErrors), "count")
	r.add("experiment.packet_loss", ratio(float64(l.framesLost), float64(l.frames)), "frac")

	r.add("bench.window_wait_ms", ratio(float64(l.windowWaitNS)/1e6, float64(l.hubBursts)), "ms")
	r.add("bench.gen_late_ms_max", float64(l.genLateMaxNS)/1e6, "ms")
	r.add("bench.trace_overhead_frac", l.overheadFrac, "frac")
	r.add("bench.span_unaccounted_frac", l.unaccountedFrac, "frac")
}
