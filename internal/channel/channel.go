// Package channel models the paper's experimental medium. The authors
// connected transmitter, jammer and receiver over SMA coax, attenuators and
// a T-connector (Figure 12) and argue the result "can be modeled as additive
// white Gaussian noise (AWGN) channels". The package has two parts: AWGN,
// the receiver noise floor, and Medium, the one place that composes the
// whole path — gain, the free-running oscillators' phase and frequency
// offset, the jammer, noise and the receiver front end — in that order.
package channel

import (
	"fmt"
	"math"

	"bhss/internal/dsp"
	"bhss/internal/impair"
	"bhss/internal/jammer"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

// AWGN is an additive white Gaussian noise source of the given total
// (complex) variance per sample.
type AWGN struct {
	src      *prng.Source
	variance float64
	amp      float64
	met      *obs.ChanMetrics
}

// NewAWGN returns a noise source with the given per-sample variance,
// deterministic in seed.
func NewAWGN(variance float64, seed uint64) *AWGN {
	if variance < 0 {
		panic(fmt.Sprintf("channel: negative noise variance %v", variance))
	}
	return &AWGN{src: prng.New(seed), variance: variance, amp: math.Sqrt(variance)}
}

// SetObserver attaches channel metrics (nil detaches). Recording never
// touches the sample stream or the noise source's PRNG state.
func (a *AWGN) SetObserver(m *obs.ChanMetrics) { a.met = m }

// Add adds noise to x in place.
func (a *AWGN) Add(x []complex128) {
	var sw obs.Stopwatch
	if a.met != nil {
		sw = obs.Start()
	}
	if a.variance != 0 {
		g := complex(a.amp, 0)
		for i := range x {
			x[i] += a.src.ComplexNorm() * g
		}
	}
	if a.met != nil {
		a.met.NoiseSamples.Add(int64(len(x)))
		a.met.MixNS.ObserveSince(sw)
	}
}

// Medium is the simulated testbed between one transmitter and the
// receiver. Apply passes each burst through its stages in this order:
//
//  1. Gain, the amplitude gain of transmit setting and attenuators;
//  2. a per-burst carrier rotation drawn from the caller's source — a
//     uniform phase (RandomPhase), then the sign of a CFO of fixed
//     magnitude — modelling the SDRs' free-running oscillators;
//  3. the jammer, summed at the T-connector. A jammer.TxAware overhears the
//     burst as it stands here, rotated but before noise, and jams
//     sample-aligned with it; any other Source emits blind;
//  4. Noise, the receiver's AWGN floor;
//  5. Front, the receiver front-end chain, which distorts the composite
//     (jammer and signal alike, as hardware does). Its stage state
//     persists across bursts.
//
// Nil Jammer, Noise or Front skip their stage. A Medium reuses its buffers,
// so a steady-state link allocates nothing per burst.
type Medium struct {
	// Gain scales the burst's amplitude; 1 leaves it untouched and 0
	// silences the transmitter.
	Gain float64
	// RandomPhase rotates each burst by a uniform random carrier phase.
	RandomPhase bool
	// CFO is the magnitude of the carrier frequency offset in
	// cycles/sample; its sign is drawn per burst. 0 disables it.
	CFO float64
	// Jammer is the interferer, or nil for an unjammed medium.
	Jammer jammer.Source
	// Noise is the receiver noise floor, or nil for none.
	Noise *AWGN
	// Front is the receiver front-end impairment chain, or nil for none.
	Front *impair.Chain

	met *obs.ChanMetrics
	//bhss:scratch
	air []complex128 // the burst on the air: gain, rotation, jammer, noise
	//bhss:scratch
	impaired []complex128 // Front's output
}

// SetObserver attaches a metrics pipeline to every stage that records
// (nil detaches): channel counters and the noise timer, a sensing jammer's
// follower metrics, and the front-end chain's stage metrics. Attach it
// after setting the stages. Recording never touches the sample stream.
func (m *Medium) SetObserver(p *obs.Pipeline) {
	var jm *obs.JamMetrics
	var im *obs.ImpairMetrics
	m.met = nil
	if p != nil {
		m.met, jm, im = &p.Chan, &p.Jam, &p.Impair
	}
	if m.Noise != nil {
		m.Noise.SetObserver(m.met)
	}
	if ta, ok := m.Jammer.(jammer.TxAware); ok {
		ta.SetObserver(jm)
	}
	if m.Front != nil {
		m.Front.SetObserver(im)
	}
}

// Apply passes one burst through the medium and returns what the receiver
// captures. burst is not modified; src supplies the per-burst phase and CFO
// sign draws and is not touched when neither is enabled.
//
//bhss:scratchview the capture is valid until the next Apply call
func (m *Medium) Apply(burst []complex128, src *prng.Source) []complex128 {
	m.air = append(m.air[:0], burst...)
	air := m.air
	if m.Gain != 1 {
		g := complex(m.Gain, 0)
		for k := range air {
			air[k] *= g
		}
	}
	if m.RandomPhase || m.CFO > 0 {
		phase := 0.0
		if m.RandomPhase {
			phase = 2 * math.Pi * src.Float64()
		}
		cfo := 0.0
		if m.CFO > 0 {
			cfo = m.CFO
			if src.Bit() == 1 {
				cfo = -cfo
			}
		}
		dsp.Mix(air, cfo, phase)
	}
	if m.Jammer != nil {
		var j []complex128
		if ta, ok := m.Jammer.(jammer.TxAware); ok {
			ta.NewBurst()
			j = ta.Jam(air)
		} else {
			j = m.Jammer.Emit(len(air))
		}
		dsp.AddTo(air, j)
		if m.met != nil {
			m.met.JamSamples.Add(int64(len(j)))
		}
	}
	if m.Noise != nil {
		m.Noise.Add(air)
	}
	if m.Front.Len() == 0 {
		return air
	}
	m.impaired = m.Front.ProcessAppend(m.impaired[:0], air)
	return m.impaired
}
