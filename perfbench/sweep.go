package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"bhss/internal/core"
	"bhss/internal/experiment"
	"bhss/internal/frame"
	"bhss/internal/hop"
	"bhss/internal/impair"
	"bhss/internal/jammer"
	"bhss/internal/obs"
)

// Sweep workload parameters. The link and channel recipes mirror the
// measured figures in internal/experiment (figures_measured.go and
// armsrace.go), whose constructors are unexported.
const (
	sampleRateMHz = 20.0
	// testbedCFO is the experiments' quasi-static oscillator offset
	// (cycles/sample).
	testbedCFO = 9e-5
	// followerImpair is the front-end impairment spec of sweep-follower.
	followerImpair = "cfo=2e3,ppm=20,phnoise=-80,quant=8"
	// senseWindow is the followers' Welch window, as in the arms sweep.
	senseWindow = 512
	// staticFrames and followerFrames are the frames per point.
	staticFrames   = 12
	followerFrames = 6
	// verifyStride picks every verifyStride-th point for the serial re-run
	// that checks results do not depend on the worker count.
	verifyStride = 4
	// setupReps is how many times set-up is repeated; the median is
	// reported.
	setupReps = 31
)

// sweepPoint is one PacketLossDetail call: a cell at a fixed SNR.
type sweepPoint struct {
	label string
	cell  int
	trial experiment.Trial
	snrDB float64
	seed  uint64
}

// pointResult is what one call returned.
type pointResult struct {
	plr, lock  float64
	err        error
	start, end int64
}

// sameOutcome reports whether two results agree bit for bit.
func sameOutcome(a, b pointResult) bool {
	return math.Float64bits(a.plr) == math.Float64bits(b.plr) &&
		math.Float64bits(a.lock) == math.Float64bits(b.lock) &&
		(a.err == nil) == (b.err == nil)
}

// mix is splitmix64 over (seed, i): independent per-point seeds.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// quickScale is experiment.QuickScale with the workload's seed and frames.
func quickScale(seed uint64, frames int) experiment.Scale {
	sc := experiment.QuickScale()
	sc.Seed = seed
	sc.Frames = frames
	return sc
}

// fixedCell is a Fig 13 cell: a non-hopping link of bandwidth bp (MHz)
// against a band-limited jammer of bandwidth bj, filter on or off.
func fixedCell(bp, bj float64, filter bool, sc experiment.Scale) experiment.Trial {
	cfg := core.DefaultConfig(sc.Seed)
	cfg.Pattern = hop.Fixed
	cfg.Bandwidths = []float64{bp}
	cfg.EnableFilter = filter
	cfg.TrackingLoops = true
	cfg.FilterTaps = sc.FilterTaps
	return experiment.Trial{
		Config:      cfg,
		NewJammer:   experiment.FixedJammer(bj/sampleRateMHz, sc.JammerPower),
		RandomPhase: true, CFO: testbedCFO,
		Scale: sc,
	}
}

// hoppingConfig is the Fig 14 hopping link: a frame spans two hops.
func hoppingConfig(p hop.Pattern, sc experiment.Scale) core.Config {
	cfg := core.DefaultConfig(sc.Seed)
	cfg.Pattern = p
	cfg.EnableFilter = true
	cfg.TrackingLoops = true
	cfg.FilterTaps = sc.FilterTaps
	cfg.SymbolsPerHop = max(frame.EncodedSymbols(sc.PayloadBytes)/2, 1)
	return cfg
}

// linkKey seeds the sweeps' pre-shared link keys. A key fixes every
// frame's hop plan, and so the burst lengths and most of the DSP work, so
// it is part of the workload, not of the seeded input: each point gets its
// own key, the same on every run. The seed draws everything the link
// carries and meets: payloads, carrier phase, CFO sign, noise, jamming and
// impairments.
const linkKey = 0x6c696e6b

// expand crosses cells with SNRs into points, each with its own link key
// and input seed.
func expand(seed uint64, labels []string, cells []experiment.Trial, snrs []float64) []sweepPoint {
	var pts []sweepPoint
	for ci, c := range cells {
		for _, snr := range snrs {
			c.Config.Seed = mix(linkKey, uint64(len(pts)))
			pts = append(pts, sweepPoint{
				label: fmt.Sprintf("%s snr=%g", labels[ci], snr),
				cell:  ci,
				trial: c,
				snrDB: snr,
				seed:  mix(seed, uint64(len(pts))),
			})
		}
	}
	return pts
}

// staticPoints is the sweep-static point list: Fig 14 hop patterns first
// (the costliest points, so the pass does not end on a long straggler),
// then Fig 13 fixed-bandwidth cells with their filter-off references.
// Jammers span 10 down to 0.15625 MHz; the SNRs bracket the 50% loss
// threshold of every cell.
func staticPoints(seed uint64, frames int) []sweepPoint {
	sc := quickScale(seed, frames)
	var labels []string
	var cells []experiment.Trial
	hops := []struct {
		p  hop.Pattern
		bj float64
	}{
		{hop.Linear, 5}, {hop.Linear, 0.625},
		{hop.Exponential, 2.5}, {hop.Exponential, 0.15625},
		{hop.Parabolic, 1.25}, {hop.Parabolic, 10},
	}
	for _, h := range hops {
		labels = append(labels, fmt.Sprintf("fig14 %v bj=%g", h.p, h.bj))
		cells = append(cells, experiment.Trial{
			Config:      hoppingConfig(h.p, sc),
			NewJammer:   experiment.FixedJammer(h.bj/sampleRateMHz, sc.JammerPower),
			RandomPhase: true, CFO: testbedCFO,
			Scale: sc,
		})
	}
	fixed := [][2]float64{{0.625, 0.3125}, {0.625, 10}, {2.5, 0.15625}, {2.5, 10}, {10, 0.15625}}
	for _, f := range fixed {
		for _, filter := range []bool{true, false} {
			labels = append(labels, fmt.Sprintf("fig13 bp=%g bj=%g filter=%v", f[0], f[1], filter))
			cells = append(cells, fixedCell(f[0], f[1], filter, sc))
		}
	}
	// The Fig 14 reference: fixed 10 MHz link against a 10 MHz jammer.
	labels = append(labels, "fig14-ref bp=10 bj=10")
	cells = append(cells, fixedCell(10, 10, true, sc))
	return expand(seed, labels, cells, []float64{30, 40, 50})
}

// followerPoints is the sweep-follower point list: the parabolic hopping
// link against the arms-race zoo at a dwell-scale (256 samples) and a
// frame-scale (16384 samples) reaction delay, through the impairment
// chain.
func followerPoints(seed uint64, frames int) []sweepPoint {
	sc := quickScale(seed, frames)
	sc.Impair = followerImpair
	var labels []string
	var cells []experiment.Trial
	for _, kind := range []string{"adaptive", "reactive", "multitone"} {
		for _, delay := range []int{256, 16384} {
			spec := fmt.Sprintf("jam=%s,delay=%d,sense=%d,memory=0,power=%g",
				kind, delay, senseWindow, sc.JammerPower)
			labels = append(labels, spec)
			cells = append(cells, experiment.Trial{
				Config: hoppingConfig(hop.Parabolic, sc),
				NewJammer: func(s uint64) (jammer.Source, error) {
					return jammer.NewFromSpec(spec, sampleRateMHz, s)
				},
				RandomPhase: true, CFO: testbedCFO,
				Scale: sc,
			})
		}
	}
	return expand(seed, labels, cells, []float64{25, 40, 55})
}

// sweepSetup builds the point list and constructs every cell's transmitter,
// receiver, jammer and impairment chain once, so a bad cell fails before
// the measurement starts.
func sweepSetup(build func() []sweepPoint) ([]sweepPoint, error) {
	pts := build()
	for i, p := range pts {
		if i > 0 && pts[i-1].cell == p.cell {
			continue // same cell, other SNR
		}
		cfg := p.trial.Config
		cfg.FilterTaps = p.trial.Scale.FilterTaps
		if _, err := core.NewTransmitter(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		if _, err := core.NewReceiver(cfg); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		if _, err := p.trial.NewJammer(p.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
		if _, err := impair.NewFromSpec(p.trial.Scale.Impair, cfg.SampleRate, p.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", p.label, err)
		}
	}
	return pts, nil
}

// pass is one run over every point.
type pass struct {
	results []pointResult
	wallNS  int64
	cpuNS   int64
}

// runPass runs fn over points 0..n-1 with the given number of workers,
// each pulling the next unclaimed point.
func runPass(n, workers int, fn func(i int) pointResult) pass {
	res := make([]pointResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	c0, t0 := cpuNS(), now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				res[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return pass{results: res, wallNS: now() - t0, cpuNS: cpuNS() - c0}
}

// passesFor runs whole passes until budget ns have passed, at least one;
// fn gets the pass number and the point.
func passesFor(n, workers int, budget int64, fn func(k, i int) pointResult) []pass {
	var out []pass
	for start := now(); len(out) == 0 || now()-start < budget; {
		k := len(out)
		out = append(out, runPass(n, workers, func(i int) pointResult { return fn(k, i) }))
	}
	return out
}

// seedAt is the point's input seed in pass k. Every pass draws fresh
// payloads, noise and jamming, so a run averages over many inputs rather
// than repeating one pass's.
func seedAt(p sweepPoint, k int) uint64 {
	if k == 0 {
		return p.seed
	}
	return mix(p.seed, uint64(k))
}

// plain runs one point untraced.
func plain(p sweepPoint, seed uint64) pointResult {
	t0 := now()
	plr, lock, err := p.trial.PacketLossDetail(p.snrDB, seed)
	return pointResult{plr: plr, lock: lock, err: err, start: t0, end: now()}
}

// traced runs one point with a private observer and a timed jammer.
func traced(p sweepPoint, seed uint64, pipe *obs.Pipeline, clk *jamClock) pointResult {
	t := p.trial
	t.Scale.Obs = pipe
	orig := t.NewJammer
	t.NewJammer = func(s uint64) (jammer.Source, error) {
		src, err := orig(s)
		if err != nil {
			return nil, err
		}
		return wrapJammer(src, clk), nil
	}
	t0 := now()
	plr, lock, err := t.PacketLossDetail(p.snrDB, seed)
	return pointResult{plr: plr, lock: lock, err: err, start: t0, end: now()}
}

func runSweepStatic(o options) (*result, error) {
	return runSweep(o, staticFrames, staticPoints)
}

func runSweepFollower(o options) (*result, error) {
	return runSweep(o, followerFrames, followerPoints)
}

// runSweep is the closed loop shared by both sweep workloads: nproc
// workers run whole passes over a fixed point list until the time is up.
func runSweep(o options, frames int, list func(uint64, int) []sweepPoint) (*result, error) {
	if o.maxPoints > 0 {
		frames = 2
	}
	build := func() []sweepPoint {
		pts := list(o.seed, frames)
		if o.maxPoints > 0 && o.maxPoints < len(pts) {
			pts = pts[:o.maxPoints]
		}
		return pts
	}
	var setups []float64
	var pts []sweepPoint
	for i := 0; i < setupReps; i++ {
		t0 := now()
		var err error
		pts, err = sweepSetup(build)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	if o.inject == "point-error" {
		pts[0].trial.NewJammer = func(uint64) (jammer.Source, error) {
			return nil, fmt.Errorf("injected jammer failure")
		}
	}
	workers := runtime.GOMAXPROCS(0)
	res := &result{}
	budget := int64(o.seconds * 1e9)

	var tr tracer
	var lay layers
	plainFn := func(k, i int) pointResult { return plain(pts[i], seedAt(pts[i], k)) }
	var passes []pass
	untraced := 0 // passes[:untraced] ran without the observer
	if !o.trace {
		passes = passesFor(len(pts), workers, budget, plainFn)
		untraced = len(passes)
	} else {
		// Half the time untraced, half traced: the CPU per pass of the two
		// halves gives the tracing overhead. Traced pass k replays the
		// inputs of untraced pass k mod untraced, and must match it.
		passes = passesFor(len(pts), workers, budget/2, plainFn)
		untraced = len(passes)
		hit0, miss0 := fftPlanCounts()
		var mu sync.Mutex
		passes = append(passes, passesFor(len(pts), workers, budget/2, func(k, i int) pointResult {
			pipe, clk := obs.NewPipeline(), &jamClock{burst: i}
			r := traced(pts[i], seedAt(pts[i], k%untraced), pipe, clk)
			mu.Lock()
			lay.addPipeline(pipe)
			lay.jamNS += clk.ns
			lay.jamCalls += clk.calls
			lay.pointNS += r.end - r.start
			mu.Unlock()
			id := tr.add(span{Burst: i, Name: "point", Start: r.start, End: r.end, Stages: stageSums(pipe)})
			for _, s := range clk.spans {
				s.Parent = id
				tr.add(s)
			}
			return r
		})...)
		hit1, miss1 := fftPlanCounts()
		lay.planHit, lay.planMiss = hit1-hit0, miss1-miss0
		if o.inject == "trace-mismatch" {
			passes[len(passes)-1].results[0].plr++
		}
	}
	// Output checks: no point may fail, and a traced pass must reproduce
	// the untraced pass it replays bit for bit.
	for k, p := range passes {
		for i, r := range p.results {
			res.attempted++
			if r.err != nil {
				res.failed++
				res.failCheck("pass %d %s: PacketLossDetail: %v", k, pts[i].label, r.err)
				continue
			}
			if k < untraced {
				continue
			}
			k0 := (k - untraced) % untraced
			if want := passes[k0].results[i]; !sameOutcome(r, want) {
				res.failCheck("traced pass %d %s: loss/lock %v/%v, untraced pass %d gave %v/%v",
					k, pts[i].label, r.plr, r.lock, k0, want.plr, want.lock)
			}
		}
	}
	// The same points run by one worker must give the same results.
	first := passes[0].results
	var sub []int
	for i := 0; i < len(pts); i += verifyStride {
		sub = append(sub, i)
	}
	serial := runPass(len(sub), 1, func(k int) pointResult { return plain(pts[sub[k]], seedAt(pts[sub[k]], 0)) })
	for k, i := range sub {
		r := serial.results[k]
		if o.inject == "workers-mismatch" && k == 0 {
			r.lock++
		}
		if !sameOutcome(r, first[i]) {
			res.failCheck("%s: 1 worker gives loss/lock %v/%v, %d workers %v/%v",
				pts[i].label, r.plr, r.lock, workers, first[i].plr, first[i].lock)
		}
	}

	// Packet loss and carrier lock are means over every frame of the
	// untraced passes; each pass draws fresh inputs, so more passes only
	// add samples.
	perPoint := float64(pts[0].trial.Scale.Frames)
	var lost, lockSum float64
	for _, p := range passes[:untraced] {
		for _, r := range p.results {
			lost += math.Round(r.plr * perPoint)
			lockSum += r.lock * perPoint
		}
	}
	passFrames := perPoint * float64(len(pts))
	counted := passFrames * float64(untraced)
	res.note("workload %s: %d points x %g frames per pass, %d workers, %d passes (%d untraced), %d serial re-runs",
		o.workload, len(pts), perPoint, workers, len(passes), untraced, len(sub))
	res.note("info packet_loss %.6f frac over %g frames", lost/counted, counted)

	if !o.trace {
		// Every pass runs the same points on fresh inputs, so each gives
		// one throughput (frames per wall-clock second) and one p50/p95 of
		// point time; the medians over passes shrug off a pass slowed by
		// something outside the run.
		var rates, walls, p50s, p95s []float64
		for _, p := range passes {
			walls = append(walls, float64(p.wallNS)/1e9)
			var pointMS []float64
			for _, r := range p.results {
				pointMS = append(pointMS, float64(r.end-r.start)/1e6)
			}
			rates = append(rates, passFrames/(float64(p.wallNS)/1e9))
			p50s = append(p50s, quantile(pointMS, 0.5))
			p95s = append(p95s, quantile(pointMS, 0.95))
		}
		res.note("info pass wall s %s", fmtList(walls))
		res.note("info pass frames/s %s", fmtList(rates))
		res.add("setup_s", median(setups), "s")
		res.add("peak_rss_mb", peakRSSMB(), "MB")
		res.add("frames_per_s", median(rates), "1/s")
		res.add("latency_ms_p50", median(p50s), "ms")
		res.add("latency_ms_p95", median(p95s), "ms")
		res.add("carrier_lock", lockSum/counted, "frac")
		res.add("delivered_frac", 1-lost/counted, "frac")
		return res, nil
	}

	var cpuU, cpuT int64
	for k, p := range passes {
		if k < untraced {
			cpuU += p.cpuNS
		} else {
			cpuT += p.cpuNS
			for _, r := range p.results {
				lay.points++
				if r.err != nil {
					lay.pointErrors++
				}
				lay.framesLost += int64(math.Round(r.plr * perPoint))
			}
			lay.frames += int64(passFrames)
		}
	}
	lay.overheadFrac = ratio(float64(cpuT)/float64(len(passes)-untraced), float64(cpuU)/float64(untraced)) - 1
	lay.metrics(res)

	self, rootNS := tr.selfTimes()
	// The point's own self time splits further by the observer's stage
	// sums: what is left is the experiment layer's own work (trial
	// construction, channel glue).
	rows := map[string]int64{"jammer": self["jammer"]}
	rest := self["point"]
	for _, st := range []struct {
		name string
		ns   int64
	}{
		{"core.tx.encode", lay.stageNS[obs.StageTxEncode]},
		{"channel.awgn", lay.awgnNS},
		{"impair.chain", lay.impairNS},
		{"core.rx.acquire", lay.stageNS[obs.StageRxAcquire]},
		{"core.rx.estimate", lay.stageNS[obs.StageRxEstimate]},
		{"core.rx.filter", lay.stageNS[obs.StageRxFilter]},
		{"core.rx.track", lay.stageNS[obs.StageRxTrack]},
		{"core.rx.demod", lay.stageNS[obs.StageRxDemod]},
		{"core.rx.despread", lay.stageNS[obs.StageRxDespread]},
	} {
		rows[st.name] = st.ns
		rest -= st.ns
	}
	decodeSelf := lay.stageNS[obs.StageRxDecode] - lay.decodeNestedNS()
	rows["core.rx.decode(self)"] = decodeSelf
	rest -= decodeSelf
	rows["experiment(self)"] = rest
	res.info = append(res.info, selfTable("per point ("+o.workload+")", rows, int(lay.points), rootNS)...)
	res.note("info jammer share of point time %.4f", ratio(float64(lay.jamNS), float64(lay.pointNS)))
	path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.note("spans %d written to %s", len(tr.spans), path)
	return res, nil
}

// fmtList renders xs compactly for an info line.
func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}

// stageSums reads a point observer's per-stage time totals.
func stageSums(p *obs.Pipeline) map[string]int64 {
	m := map[string]int64{
		"chan.mix":     p.Chan.MixNS.Sum(),
		"impair.chain": p.Impair.ChainNS.Sum(),
	}
	for i := range p.StageNS {
		if v := p.StageNS[i].Sum(); v > 0 {
			m[obs.Stage(i).String()] = v
		}
	}
	return m
}
