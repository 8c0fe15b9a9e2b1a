package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"bhss/internal/core"
	"bhss/internal/iqstream"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

// hub-stream parameters.
const (
	// hubBlock is the hub's mixing block in samples.
	hubBlock = 4096
	// hubNoiseVar is the hub's noise floor: 30 dB SNR at unit signal
	// power, so no burst is lost to noise.
	hubNoiseVar = 0.001
	// hubPayload is the payload size in bytes.
	hubPayload = 32
	// latencyLimitMS is the p99 latency limit a rung must meet.
	latencyLimitMS = 100
	// latencyShare and saturateShare are the shares of --seconds spent at
	// the latency rate and at saturation; the rest is split evenly over
	// the higher ladder rates.
	latencyShare  = 0.7
	saturateShare = 0.25
	// hubCycles is how many times the latency and saturation stretches
	// alternate. A shared host's speed drifts over seconds, so spreading
	// each measurement over the whole run, rather than one block of it,
	// averages more of that drift out of both.
	hubCycles = 4
	// saturateAhead is how many bursts the saturation rung keeps in flight:
	// one being decoded and one queued behind it, so the decoder never
	// waits for the generator and the hub never builds a backlog.
	saturateAhead = 2
	// saturateCap bounds the bursts the saturation rung may offer per
	// second; it is far above what the receiver decodes.
	saturateCap = 1000
)

// ladder is the fixed rate ladder in bursts per second; the first rate is
// the one latency is reported at. It keeps the decoder about 30% busy, so
// latency tracks the pipeline's speed rather than queueing, which a slower
// moment of a shared host would amplify. The higher rates give pass/fail
// verdicts, printed as info; the sustained rate itself is measured at
// saturation.
var ladder = []float64{25, 100, 300}

// arrival is one mixed block as the receiver's socket reader got it.
type arrival struct {
	samples []complex128
	at      int64
}

// blockQueue hands blocks from the socket reader to the decoder without
// ever blocking the reader, so a slow decoder never backpressures TCP.
type blockQueue struct {
	mu    sync.Mutex
	items []arrival
	wake  chan struct{} // capacity 1: a pending wake-up
}

func (q *blockQueue) push(a arrival) {
	q.mu.Lock()
	q.items = append(q.items, a)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop returns the oldest block, waiting until the deadline (process
// clock) at most.
func (q *blockQueue) pop(deadline int64) (arrival, bool) {
	for {
		q.mu.Lock()
		if len(q.items) > 0 {
			a := q.items[0]
			q.items = q.items[1:]
			q.mu.Unlock()
			return a, true
		}
		q.mu.Unlock()
		wait := deadline - now()
		if wait <= 0 {
			return arrival{}, false
		}
		t := time.NewTimer(time.Duration(wait))
		select {
		case <-q.wake:
			t.Stop()
		case <-t.C:
		}
	}
}

// hubLink is one in-process hub with a transmitter and a receiver
// connection on link 0.
type hubLink struct {
	hub        *iqstream.Hub
	txc, rxc   *iqstream.Client
	tx         *core.Transmitter
	rx         *core.Receiver
	met        *obs.Pipeline // hub transport counters
	q          blockQueue
	serveDone  chan struct{}
	readerDone chan struct{} // nil until the reader goroutine starts
}

// openLink starts a hub on loopback, connects the receiver then the
// transmitter, and builds both ends of the link.
func openLink(seed uint64) (*hubLink, error) {
	l := &hubLink{met: obs.NewPipeline(), serveDone: make(chan struct{})}
	l.q.wake = make(chan struct{}, 1)
	hub, err := iqstream.NewHub("127.0.0.1:0", iqstream.HubConfig{
		BlockSize: hubBlock,
		NoiseVar:  hubNoiseVar,
		Seed:      seed,
		Metrics:   &l.met.Hub,
	})
	if err != nil {
		return nil, err
	}
	l.hub = hub
	go func() {
		defer close(l.serveDone)
		_ = hub.Serve() // returns once Close shuts the listener
	}()
	fail := func(err error) (*hubLink, error) {
		l.close()
		return nil, err
	}
	addr := hub.Addr().String()
	if l.rxc, err = iqstream.DialRx(addr); err != nil {
		return fail(fmt.Errorf("dial rx: %w", err))
	}
	if l.txc, err = iqstream.DialTx(addr, 0); err != nil {
		return fail(fmt.Errorf("dial tx: %w", err))
	}
	cfg := core.DefaultConfig(seed)
	cfg.Sync = core.PreambleSync
	cfg.TrackingLoops = true
	if l.tx, err = core.NewTransmitter(cfg); err != nil {
		return fail(err)
	}
	if l.rx, err = core.NewReceiver(cfg); err != nil {
		return fail(err)
	}
	l.readerDone = make(chan struct{})
	go func() {
		defer close(l.readerDone)
		for {
			b, err := l.rxc.Recv()
			if err != nil {
				return // connection closed
			}
			l.q.push(arrival{samples: b, at: now()})
		}
	}()
	return l, nil
}

// close tears the link down and waits for its goroutines.
func (l *hubLink) close() {
	if l.txc != nil {
		l.txc.Close()
	}
	if l.rxc != nil {
		l.rxc.Close()
	}
	l.hub.Close()
	<-l.serveDone
	if l.readerDone != nil {
		<-l.readerDone
	}
}

// Burst outcomes.
const (
	pending = iota
	decoded
	lost
)

// burstRec is one offered burst's timeline (process clock, ns).
type burstRec struct {
	idx                       int
	payload                   []byte
	n                         int // burst length in samples
	due, encStart, encEnd     int64
	sendStart, sendEnd        int64
	arrival, decStart, decEnd int64
	done                      int64
	recvWait                  int64
	sent                      bool
	state, marks              int
	lock                      float64
}

// latency is the time from when the burst was due to its delivery.
func (b *burstRec) latency() int64 { return b.done - b.due }

// rung is one fixed-rate stretch of the open loop, or the saturation
// stretch (rate 0).
type rung struct {
	rate    float64
	bursts  []*burstRec
	failure string // why the rung missed the limit; empty if it met it
	checks  []string
	errs    []string // decode errors of lost bursts
	closed  bool     // the rung was abandoned and closed the link
}

// sent counts the bursts handed to the hub.
func (r *rung) sent() int {
	n := 0
	for _, b := range r.bursts {
		if b.sent {
			n++
		}
	}
	return n
}

// delivered counts decoded bursts.
func (r *rung) delivered() int {
	n := 0
	for _, b := range r.bursts {
		if b.state == decoded {
			n++
		}
	}
	return n
}

// latencies returns the decoded bursts' latencies in ms.
func (r *rung) latencies() []float64 {
	var ms []float64
	for _, b := range r.bursts {
		if b.state == decoded {
			ms = append(ms, float64(b.latency())/1e6)
		}
	}
	return ms
}

// mark records a burst's outcome; a second outcome is an accounting fault.
func (r *rung) mark(b *burstRec, state int) {
	b.marks++
	if b.marks > 1 {
		r.checks = append(r.checks, fmt.Sprintf("burst %d accounted %d times", b.idx, b.marks))
		return
	}
	b.state = state
}

// runRung offers bursts at rate for the given time and decodes them as
// they arrive. first is the index of the rung's first burst in the run.
// Rate 0 saturates the receiver instead: each burst is sent, and due, as
// soon as fewer than saturateAhead bursts are in flight, until the time is
// up.
//
// A rung meets the limit when the hub drops nothing, every burst reaches
// the decoder before the rung deadline, the p99 latency is within
// latencyLimitMS and so is the median of the last quarter (the backlog is
// not growing). A burst that reaches the decoder but fails to decode is
// lost, as a frame is lost on the sweeps: it lowers delivered_frac, not the
// run's count of failed operations, and it does not depend on the rate:
// the stream is the same at every rate.
func (l *hubLink) runRung(seed uint64, rate, seconds float64, first int, inject string) *rung {
	r := &rung{rate: rate}
	hubDrops := func() int64 {
		return l.met.Hub.RxQueueDrops.Load() + l.met.Hub.TxOverflowDrops.Load() + l.met.Hub.RxEvictions.Load()
	}
	drops0 := hubDrops()
	var credits chan struct{} // saturation: one token per burst in flight
	count := max(int(rate*seconds), 1)
	interval := int64(0)
	if rate > 0 {
		interval = int64(1e9 / rate)
	} else {
		count = max(int(saturateCap*seconds), 1)
		credits = make(chan struct{}, saturateAhead)
		for range saturateAhead {
			credits <- struct{}{}
		}
	}
	for i := 0; i < count; i++ {
		src := prng.New(mix(seed^0x5eed, uint64(first+i)))
		p := make([]byte, hubPayload)
		for k := range p {
			p[k] = byte(src.Uint64())
		}
		r.bursts = append(r.bursts, &burstRec{idx: first + i, payload: p})
	}
	start := now() + int64(5*time.Millisecond)
	deadline := start + int64(count)*interval + 2*latencyLimitMS*int64(time.Millisecond)
	if rate == 0 {
		deadline = start + int64(seconds*1e9) + 2*latencyLimitMS*int64(time.Millisecond)
	}

	// Generator: encode and send each burst when it is due. The meta
	// channel holds every burst of the rung, so the generator never waits
	// on the decoder, except for a credit at saturation.
	meta := make(chan *burstRec, count)
	stop := make(chan struct{})
	var gen sync.WaitGroup
	var genErr error
	gen.Add(1)
	go func() {
		defer gen.Done()
		defer close(meta)
		var buf []complex128
		for i, b := range r.bursts {
			if credits != nil {
				select {
				case <-credits:
				case <-stop:
					return
				}
				if b.due = now(); b.due-start > int64(seconds*1e9) {
					return
				}
			} else {
				b.due = start + int64(i)*interval
			}
			if d := b.due - now(); d > 0 {
				select {
				case <-time.After(time.Duration(d)):
				case <-stop:
					return
				}
			}
			b.encStart = now()
			burst, err := l.tx.EncodeFrameInto(buf[:0], b.payload)
			b.encEnd = now()
			if err != nil {
				genErr = fmt.Errorf("encode burst %d: %w", b.idx, err)
				return
			}
			// Pad to whole hub blocks: the hub mixes by arrival time
			// (ROADMAP item 1), so only block-aligned bursts keep the
			// stream, and with it the hub's noise, the same on every run.
			buf = burst.Samples
			for len(buf)%hubBlock != 0 {
				buf = append(buf, 0)
			}
			b.n = len(buf)
			meta <- b
			b.sendStart = now()
			err = l.txc.Send(buf)
			b.sendEnd = now()
			b.sent = true
			if err != nil {
				genErr = fmt.Errorf("send burst %d: %w", b.idx, err)
				return
			}
		}
	}()

	// Decoder: each padded burst is exactly the next n/hubBlock blocks of
	// the stream.
	var window []complex128
decode:
	for {
		var b *burstRec
		select {
		case next, ok := <-meta:
			if !ok {
				break decode // every burst sent has been decoded
			}
			b = next
		case <-time.After(time.Duration(max(deadline-now(), 0))):
			r.failure = "generator did not finish in time"
			break decode
		}
		for len(window) < b.n {
			w0 := now()
			a, ok := l.q.pop(deadline)
			b.recvWait += max(now()-max(w0, b.due), 0)
			if !ok {
				r.failure = fmt.Sprintf("burst %d not received by the rung deadline", b.idx)
				break decode
			}
			window = append(window, a.samples...)
			b.arrival = a.at
		}
		if late := now() - b.due; now() > deadline || late > 2*latencyLimitMS*int64(time.Millisecond) {
			// The receiver has fallen behind: stop before the backlog
			// grows further.
			r.failure = fmt.Sprintf("backlog: burst %d reached the decoder %d ms after it was due", b.idx, late/1e6)
			break decode
		}
		b.decStart = now()
		if inject == "decode-gap" {
			time.Sleep(5 * time.Millisecond) // time in the decode span no stage covers
		}
		got, st, err := l.rx.DecodeBurst(window[:b.n])
		b.decEnd = now()
		if errors.Is(err, core.ErrNoPreamble) {
			l.rx.SkipFrame() // keep the frame counter in step with the transmitter
		}
		if err == nil && inject == "payload-corrupt" && b.idx == 0 {
			got = append([]byte(nil), got...)
			got[0] ^= 1
		}
		switch {
		case err != nil:
			r.errs = append(r.errs, fmt.Sprintf("burst %d: %v", b.idx, err))
			r.mark(b, lost)
		case !bytes.Equal(got, b.payload):
			r.checks = append(r.checks, fmt.Sprintf("burst %d decoded to a payload that differs from the one sent", b.idx))
			r.mark(b, lost)
		default:
			b.lock = st.CarrierLock
			r.mark(b, decoded)
		}
		if inject == "double-account" && b.idx == 0 {
			r.mark(b, decoded)
		}
		b.done = now()
		window = window[:copy(window, window[b.n:])]
		if credits != nil {
			credits <- struct{}{}
		}
	}
	close(stop)
	if r.failure != "" {
		// Unblock a Send stuck on a hub that no longer drains.
		l.close()
		r.closed = true
	}
	gen.Wait()
	if genErr != nil && r.failure == "" {
		r.failure = genErr.Error()
	}
	for _, b := range r.bursts {
		if b.sent && b.marks == 0 {
			r.mark(b, lost)
		}
		if !b.sent && b.marks != 0 {
			r.checks = append(r.checks, fmt.Sprintf("burst %d accounted but never sent", b.idx))
		}
	}
	if r.failure != "" {
		return r
	}
	drops := hubDrops() - drops0
	ms := r.latencies()
	var tail []float64
	for _, b := range r.bursts[len(r.bursts)*3/4:] {
		if b.state == decoded {
			tail = append(tail, float64(b.latency())/1e6)
		}
	}
	switch {
	case drops > 0:
		r.failure = fmt.Sprintf("the hub dropped %d samples or blocks", drops)
	case quantile(ms, 0.99) > latencyLimitMS:
		r.failure = fmt.Sprintf("p99 latency %.1f ms over the %d ms limit", quantile(ms, 0.99), latencyLimitMS)
	case median(tail) > latencyLimitMS:
		r.failure = fmt.Sprintf("backlog growing: median latency of the last quarter %.1f ms", median(tail))
	}
	return r
}

// throughput is the rung's delivered bursts per second, from the first
// burst's due time to the last delivery.
func (r *rung) throughput() float64 {
	var first, last int64 = -1, 0
	for _, b := range r.bursts {
		if b.state != decoded {
			continue
		}
		if first < 0 || b.due < first {
			first = b.due
		}
		last = max(last, b.done)
	}
	return ratio(float64(r.delivered()), float64(last-first)/1e9)
}

// saturateWindow is how many consecutive bursts share one throughput
// window at saturation.
const saturateWindow = 25

// windowRates returns, for each window of saturateWindow consecutive
// processed bursts, the window's delivered bursts per wall-clock second.
func (r *rung) windowRates() []float64 {
	var rates []float64
	prev := int64(-1)
	n, got := 0, 0
	for _, b := range r.bursts {
		if b.done == 0 {
			continue // never reached the decoder
		}
		if prev < 0 {
			prev = b.due
		}
		n++
		if b.state == decoded {
			got++
		}
		if n == saturateWindow {
			rates = append(rates, float64(got)/(float64(b.done-prev)/1e9))
			prev, n, got = b.done, 0, 0
		}
	}
	return rates
}

// sustained is the median over the rungs' windows of each window's
// delivered bursts per wall-clock second, so a stall outside the program
// that spans a few windows moves it little. Rungs too short for one window
// report the median of their overall throughputs.
func sustained(rs []*rung) float64 {
	var rates, whole []float64
	for _, r := range rs {
		rates = append(rates, r.windowRates()...)
		whole = append(whole, r.throughput())
	}
	if len(rates) == 0 {
		return median(whole)
	}
	return median(rates)
}

// name labels the rung in info lines.
func (r *rung) name() string {
	if r.rate == 0 {
		return "saturation"
	}
	return fmt.Sprintf("rung %g bursts/s", r.rate)
}

func runHubStream(o options) (*result, error) {
	var setups []float64
	var link *hubLink
	for i := 0; i < setupReps; i++ {
		if link != nil {
			link.close()
		}
		t0 := now()
		var err error
		link, err = openLink(o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	res := &result{}
	if o.trace {
		return traceHub(o, link, res)
	}
	defer func() {
		if link != nil {
			link.close()
		}
	}()

	// The latency rate and saturation alternate hubCycles times; these
	// are the measured rungs. Then come the higher ladder rates, which stop
	// at the first rung that misses the limit.
	type stretch struct{ rate, secs float64 }
	var plan []stretch
	for range hubCycles {
		plan = append(plan, stretch{ladder[0], o.seconds * latencyShare / hubCycles},
			stretch{0, o.seconds * saturateShare / hubCycles})
	}
	nMeasured := len(plan)
	for _, rate := range ladder[1:] {
		plan = append(plan, stretch{rate, o.seconds * (1 - latencyShare - saturateShare) / float64(len(ladder)-1)})
	}
	var rungs []*rung
	var rss float64
	next := 0
	for i, st := range plan {
		r := link.runRung(o.seed, st.rate, st.secs, next, o.inject)
		next += r.sent()
		rungs = append(rungs, r)
		if i < nMeasured {
			// Memory before the ladder; an overloaded rung's backlog
			// would otherwise set it.
			rss = peakRSSMB()
		}
		res.checks = append(res.checks, r.checks...)
		verdict := "meets the limit"
		if r.failure != "" {
			verdict = r.failure
		}
		res.note("%s: %d offered, %d delivered, p50 %.2f ms, p99 %.2f ms: %s",
			r.name(), r.sent(), r.delivered(), quantile(r.latencies(), 0.5), quantile(r.latencies(), 0.99), verdict)
		for _, e := range r.errs {
			res.note("lost %s", e)
		}
		if r.closed {
			link = nil
			break
		}
		if i >= nMeasured && r.failure != "" {
			break
		}
	}
	// A rate meets the limit when every stretch run at it does.
	highest := 0.0
	for _, rate := range ladder {
		ran, ok := false, true
		for _, r := range rungs {
			if r.rate == rate {
				ran, ok = true, ok && r.failure == ""
			}
		}
		if !ran || !ok {
			break
		}
		highest = rate
	}
	res.note("info highest ladder rate meeting the limit: %g bursts/s", highest)

	// The latency and saturation rungs are the measured ones: their bursts
	// are the attempted frames.
	measured := rungs[:min(len(rungs), nMeasured)]
	var lat, sat []*rung
	for _, r := range measured {
		if r.rate == 0 {
			sat = append(sat, r)
		} else {
			lat = append(lat, r)
		}
	}
	if len(sat) == 0 {
		sat = lat // the link closed during the first latency rung
	}
	var ms []float64
	var lockSum float64
	var lateMax int64
	for _, r := range lat {
		ms = append(ms, r.latencies()...)
		for _, b := range r.bursts {
			lateMax = max(lateMax, b.encStart-b.due)
		}
	}
	delivered := 0
	for _, r := range measured {
		delivered += r.delivered()
		for _, b := range r.bursts {
			if !b.sent {
				continue
			}
			res.attempted++
			if b.done == 0 {
				res.failed++
			}
			lockSum += b.lock
		}
	}
	res.note("info latency samples %d, %d beyond p99; p90 %.2f p95 %.2f p99 %.2f ms; generator at most %.2f ms late",
		len(ms), len(ms)/100, quantile(ms, 0.9), quantile(ms, 0.95), quantile(ms, 0.99), float64(lateMax)/1e6)
	res.add("setup_s", median(setups), "s")
	res.add("peak_rss_mb", rss, "MB")
	res.add("frames_per_s", sustained(sat), "1/s")
	res.add("latency_ms_p50", windowed(ms, 0.5), "ms")
	res.add("latency_ms_p95", windowed(ms, 0.95), "ms")
	res.add("carrier_lock", ratio(lockSum, float64(delivered)), "frac")
	res.add("delivered_frac", ratio(float64(delivered), float64(res.attempted)), "frac")
	return res, nil
}

// latencyWindow is how many consecutive bursts share one latency window.
const latencyWindow = 50

// windowed splits ms (in burst order) into windows of latencyWindow bursts
// and returns the median over windows of each window's q-quantile, so a
// stall outside the program that spans a few windows moves it little.
func windowed(ms []float64, q float64) float64 {
	var qs []float64
	for i := 0; i < len(ms); i += latencyWindow {
		qs = append(qs, quantile(ms[i:min(i+latencyWindow, len(ms))], q))
	}
	return median(qs)
}

// traceHub runs the latency rate twice, untraced then with the observer
// attached and spans recorded, and reports the per-layer metrics of the
// traced half.
func traceHub(o options, link *hubLink, res *result) (*result, error) {
	defer func() {
		if link != nil {
			link.close()
		}
	}()
	rate := ladder[0]
	secs := o.seconds / 2
	c0 := cpuNS()
	plainRung := link.runRung(o.seed, rate, secs, 0, o.inject)
	cpuPlain := cpuNS() - c0
	if plainRung.closed {
		link = nil
		return nil, fmt.Errorf("untraced half: %s", plainRung.failure)
	}
	pipe := obs.NewPipeline()
	link.tx.SetObserver(pipe)
	link.rx.SetObserver(pipe)
	blocks0 := link.met.Hub.MixedBlocks.Load()
	hit0, miss0 := fftPlanCounts()
	c0 = cpuNS()
	r := link.runRung(o.seed, rate, secs, len(plainRung.bursts), o.inject)
	cpuTraced := cpuNS() - c0
	if r.closed {
		link = nil
		return nil, fmt.Errorf("traced half: %s", r.failure)
	}
	for _, rr := range []*rung{plainRung, r} {
		if rr.failure != "" {
			res.note("info %g bursts/s missed the limit: %s", rate, rr.failure)
		}
	}
	hit1, miss1 := fftPlanCounts()

	var lay layers
	lay.addPipeline(pipe)
	lay.addPipeline(link.met)
	lay.mixedBlocks = link.met.Hub.MixedBlocks.Load() - blocks0
	lay.planHit, lay.planMiss = hit1-hit0, miss1-miss0
	lay.overheadFrac = ratio(float64(cpuTraced)/float64(len(r.bursts)), float64(cpuPlain)/float64(len(plainRung.bursts))) - 1

	var tr tracer
	for _, rr := range []*rung{plainRung, r} {
		res.checks = append(res.checks, rr.checks...)
		for _, b := range rr.bursts {
			if !b.sent {
				continue
			}
			res.attempted++
			if b.done == 0 {
				res.failed++
			}
		}
	}
	var decodeNS int64
	for _, b := range r.bursts {
		decodeNS += b.decEnd - b.decStart
		lay.hubBursts++
		lay.sendNS += b.sendEnd - b.sendStart
		lay.recvWaitNS += b.recvWait
		lay.transitNS += max(b.arrival-b.sendEnd, 0)
		lay.windowWaitNS += b.decStart - b.arrival
		lay.genLateMaxNS = max(lay.genLateMaxNS, b.encStart-b.due)
		id := tr.add(span{Burst: b.idx, Name: "burst", Start: b.due, End: b.done})
		for _, c := range []span{
			{Name: "gen_late", Start: b.due, End: b.encStart},
			{Name: "encode", Start: b.encStart, End: b.encEnd},
			{Name: "send", Start: b.sendStart, End: b.sendEnd},
			{Name: "transit", Start: b.sendEnd, End: max(b.arrival, b.sendEnd)},
			{Name: "window_wait", Start: b.arrival, End: b.decStart},
			{Name: "decode", Start: b.decStart, End: b.decEnd},
		} {
			if c.End > c.Start {
				c.Parent, c.Burst = id, b.idx
				tr.add(c)
			}
		}
	}
	self, rootNS := tr.selfTimes()
	lay.unaccountedFrac = ratio(float64(self["burst"]), float64(rootNS))
	lay.metrics(res)
	res.info = append(res.info, selfTable("per burst (hub-stream)", self, len(r.bursts), rootNS)...)
	// The child spans are cut from consecutive clock reads, so they cover
	// the burst by construction; the check guards the span bookkeeping.
	// The decode span is checked against an independent source: the
	// receiver's own stage timers must account for it.
	if lay.unaccountedFrac > spanTolerance {
		res.failCheck("spans leave %.1f%% of burst latency unaccounted (tolerance %.0f%%)",
			100*lay.unaccountedFrac, 100*spanTolerance)
	}
	stagesFrac := ratio(float64(lay.decodeNestedNS()), float64(decodeNS))
	res.note("info receiver stages account for %.2f%% of the decode span", 100*stagesFrac)
	if math.Abs(1-stagesFrac) > stageTolerance {
		res.failCheck("receiver stages account for %.1f%% of the decode span (tolerance %.0f%%)",
			100*stagesFrac, 100*stageTolerance)
	}
	path, err := tr.write(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	res.note("spans %d written to %s", len(tr.spans), path)
	return res, nil
}

// spanTolerance is the share of burst latency the hub-stream spans may
// leave unaccounted.
const spanTolerance = 0.05

// stageTolerance is how far the receiver's stage sums (acquire, estimate,
// filter, track, demod, despread) may fall short of, or exceed, the decode
// span the benchmark times around DecodeBurst.
const stageTolerance = 0.10
