package channel

import (
	"math"
	"math/cmplx"
	"testing"

	"bhss/internal/alloctest"
	"bhss/internal/dsp"
	"bhss/internal/impair"
	"bhss/internal/obs"
	"bhss/internal/prng"
)

func constSignal(n int, v complex128) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = v
	}
	return x
}

// rampSignal returns n distinct samples, so any reordering or misalignment
// between stages shows up sample by sample.
func rampSignal(n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(0.5+0.01*float64(i), -0.25+0.003*float64(i))
	}
	return x
}

func TestAWGNVariance(t *testing.T) {
	a := NewAWGN(2.5, 1)
	x := make([]complex128, 100000)
	a.Add(x)
	if p := dsp.Power(x); math.Abs(p-2.5)/2.5 > 0.03 {
		t.Fatalf("noise power %v, want 2.5", p)
	}
}

func TestAWGNZeroVarianceIsNoop(t *testing.T) {
	a := NewAWGN(0, 1)
	x := constSignal(16, 1+1i)
	a.Add(x)
	for _, v := range x {
		if v != 1+1i {
			t.Fatal("zero-variance noise changed the signal")
		}
	}
}

func TestAWGNDeterministic(t *testing.T) {
	x, y := make([]complex128, 100), make([]complex128, 100)
	NewAWGN(1, 7).Add(x)
	NewAWGN(1, 7).Add(y)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same-seed noise sources diverged")
		}
	}
}

func TestAWGNPanicsOnNegativeVariance(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative variance should panic")
		}
	}()
	NewAWGN(-1, 0)
}

func TestEndToEndSNR(t *testing.T) {
	// A unit-power signal over a medium with a 10 dB SNR floor: measured
	// SNR within tolerance.
	x := make([]complex128, 50000)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 0.3*float64(i)))
	}
	m := Medium{Gain: 1, Noise: NewAWGN(dsp.Power(x)/10, 3)}
	y := m.Apply(x, nil)
	diff := make([]complex128, len(x))
	for i := range diff {
		diff[i] = y[i] - x[i]
	}
	snr := 10 * math.Log10(dsp.Power(x)/dsp.Power(diff))
	if math.Abs(snr-10) > 0.3 {
		t.Fatalf("realized SNR %v dB, want 10", snr)
	}
}

// listener is a sensing jammer that records what it overheard and answers
// with a fixed waveform.
type listener struct {
	heard  []complex128
	out    []complex128
	bursts int
	emits  int
	met    *obs.JamMetrics
}

func (l *listener) Emit(n int) []complex128 { l.emits++; return l.out[:n] }
func (l *listener) Power() float64          { return dsp.Power(l.out) }
func (l *listener) Reset()                  {}
func (l *listener) NewBurst()               { l.bursts++ }
func (l *listener) SetObserver(m *obs.JamMetrics) {
	l.met = m
}
func (l *listener) Jam(tx []complex128) []complex128 {
	l.heard = append(l.heard[:0], tx...)
	return l.out[:len(tx)]
}

// blind is a plain Source: it can only emit.
type blind struct {
	out   []complex128
	emits int
}

func (b *blind) Emit(n int) []complex128 { b.emits++; return b.out[:n] }
func (b *blind) Power() float64          { return dsp.Power(b.out) }
func (b *blind) Reset()                  {}

// TestMediumStageOrder pins the stage order sample by sample: gain, then the
// per-burst phase and signed CFO, then the jammer (a sensing jammer hears
// the rotated burst before noise), then AWGN, then the front end over the
// composite.
func TestMediumStageOrder(t *testing.T) {
	const n, gain, cfo = 300, 1.7, 3e-3
	const noiseVar, noiseSeed = 0.01, 5
	burst := rampSignal(n)
	jam := &listener{out: constSignal(n, 0.2-0.1i)}
	front, err := impair.NewFromSpec("dc=0.5:-0.25", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Medium{Gain: gain, RandomPhase: true, CFO: cfo, Jammer: jam,
		Noise: NewAWGN(noiseVar, noiseSeed), Front: front}
	got := m.Apply(burst, prng.New(11))

	// The same arithmetic, stage by stage, from a replica of the source.
	ref := prng.New(11)
	phase := 2 * math.Pi * ref.Float64()
	f := cfo
	if ref.Bit() == 1 {
		f = -f
	}
	want := append([]complex128(nil), burst...)
	for k := range want {
		want[k] *= complex(gain, 0)
	}
	dsp.Mix(want, f, phase)
	if jam.bursts != 1 || jam.emits != 0 {
		t.Fatalf("sensing jammer: %d bursts, %d blind emits; want 1, 0", jam.bursts, jam.emits)
	}
	for k := range want {
		if jam.heard[k] != want[k] {
			t.Fatalf("jammer heard sample %d = %v, want the rotated burst %v", k, jam.heard[k], want[k])
		}
	}
	for k := range want {
		want[k] += jam.out[k]
	}
	NewAWGN(noiseVar, noiseSeed).Add(want)
	if len(got) != n {
		t.Fatalf("capture length %d, want %d", len(got), n)
	}
	for k := range want {
		if w := want[k] + complex(0.5, -0.25); got[k] != w {
			t.Fatalf("capture sample %d = %v, want front end over the composite %v", k, got[k], w)
		}
	}
	for k, v := range rampSignal(n) {
		if burst[k] != v {
			t.Fatal("Apply modified the transmitted burst")
		}
	}
}

func TestMediumBlindJammerEmits(t *testing.T) {
	burst := rampSignal(64)
	jam := &blind{out: constSignal(64, 1i)}
	m := Medium{Gain: 1, Jammer: jam}
	got := m.Apply(burst, nil)
	if jam.emits != 1 {
		t.Fatalf("blind jammer emitted %d times, want 1", jam.emits)
	}
	for k := range burst {
		if got[k] != burst[k]+1i {
			t.Fatalf("sample %d = %v, want burst + jammer", k, got[k])
		}
	}
}

func TestMediumIdentity(t *testing.T) {
	burst := rampSignal(32)
	m := Medium{Gain: 1}
	got := m.Apply(burst, nil)
	for k := range burst {
		if got[k] != burst[k] {
			t.Fatal("a unit-gain medium without stages must be transparent")
		}
	}
}

func TestMediumObserver(t *testing.T) {
	const n = 128
	jam := &listener{out: constSignal(n, 0.1)}
	front, err := impair.NewFromSpec("dc=0.1", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Medium{Gain: 1, Jammer: jam, Noise: NewAWGN(0.01, 1), Front: front}
	p := obs.NewPipeline()
	m.SetObserver(p)
	if jam.met != &p.Jam {
		t.Fatal("sensing jammer did not get the pipeline's jammer metrics")
	}
	m.Apply(rampSignal(n), nil)
	if got := p.Chan.JamSamples.Load(); got != n {
		t.Fatalf("jam samples %d, want %d", got, n)
	}
	if got := p.Chan.NoiseSamples.Load(); got != n {
		t.Fatalf("noise samples %d, want %d", got, n)
	}
	if got := p.Impair.In.Load(); got != n {
		t.Fatalf("front-end input %d, want %d", got, n)
	}
	m.SetObserver(nil)
	if jam.met != nil {
		t.Fatal("SetObserver(nil) must detach the jammer")
	}
	m.Apply(rampSignal(n), nil)
	if got := p.Chan.JamSamples.Load(); got != n {
		t.Fatalf("detached medium still counted: %d", got)
	}
}

func TestMediumZeroAlloc(t *testing.T) {
	const n = 1024
	front, err := impair.NewFromSpec("ppm=20,dc=0.01", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	m := Medium{Gain: 0.5, RandomPhase: true, CFO: 1e-4,
		Jammer: &listener{out: constSignal(n, 0.1)}, Noise: NewAWGN(0.01, 1), Front: front}
	m.SetObserver(obs.NewPipeline())
	burst, src := rampSignal(n), prng.New(3)
	alloctest.AssertZero(t, "Medium.Apply", func() { m.Apply(burst, src) })
}
