package jammer

import (
	"fmt"
	"math"
	"testing"

	"bhss/internal/hop"
	"bhss/internal/prng"
)

// refBandlimited is the band-limited jammer on its former synthesis path,
// kept here as the reference the real-tap kernel must reproduce bit for
// bit: the low-pass taps widened to complex(t, 0), a direct-form filter
// whose k−1-sample delay line is carried across calls, and a warm-up that
// filters one filter length of noise and discards the output.
type refBandlimited struct {
	src   *prng.Source
	taps  []complex128
	state []complex128
	scale float64
}

func newRefBandlimited(t *testing.T, bw, power float64, seed uint64) *refBandlimited {
	t.Helper()
	design, err := filterTapsForBW(bw)
	if err != nil {
		t.Fatal(err)
	}
	r := &refBandlimited{src: prng.New(seed)}
	for _, tap := range design {
		r.taps = append(r.taps, complex(tap, 0))
	}
	switch {
	case power == 0:
	case r.taps == nil:
		r.scale = math.Sqrt(power)
	default:
		r.state = make([]complex128, len(r.taps)-1)
		var gain float64
		for _, tap := range r.taps {
			gain += real(tap)*real(tap) + imag(tap)*imag(tap)
		}
		r.scale = math.Sqrt(power / gain)
		warm := make([]complex128, len(r.taps))
		for i := range warm {
			warm[i] = r.src.ComplexNorm()
		}
		r.process(warm)
	}
	return r
}

// process is the former dsp.FIR.Process: out[i] = Σₜ taps[t]·x[i−t] with
// complex multiplies, history from earlier calls.
func (r *refBandlimited) process(x []complex128) []complex128 {
	k := len(r.taps)
	buf := append(append([]complex128(nil), r.state...), x...)
	out := make([]complex128, len(x))
	for i := range x {
		var acc complex128
		for t := 0; t < k; t++ {
			acc += r.taps[t] * buf[i+k-1-t]
		}
		out[i] = acc
	}
	copy(r.state, buf[len(buf)-(k-1):])
	return out
}

func (r *refBandlimited) emit(n int) []complex128 {
	out := make([]complex128, n)
	if r.scale == 0 {
		return out
	}
	for i := range out {
		out[i] = r.src.ComplexNorm()
	}
	if r.taps != nil {
		out = r.process(out)
	}
	g := complex(r.scale, 0)
	for i := range out {
		out[i] *= g
	}
	return out
}

// parityBandwidths are the paper's seven jammer bandwidths at 20 MS/s, the
// unfiltered full band, and a band whose cutoff sits below the designer's
// 1e-4 floor.
func parityBandwidths() []float64 {
	var bws []float64
	for _, mhz := range hop.DefaultBandwidths() {
		bws = append(bws, mhz/20)
	}
	return append(bws, 1, 5e-5)
}

// oddChunks cycles through emission sizes that straddle the kernel's
// eight-output blocks and the filters' tap counts.
var oddChunks = []int{1, 7, 129, 3, 1000, 9, 513, 2, 4095, 17}

func sameStream(t *testing.T, name string, got, want []complex128) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			t.Fatalf("%s: sample %d = %v, want %v", name, i, got[i], want[i])
		}
	}
}

func emitChunks(emit func(int) []complex128, total int) []complex128 {
	var out []complex128
	for ci := 0; len(out) < total; ci++ {
		n := oddChunks[ci%len(oddChunks)]
		if n > total-len(out) {
			n = total - len(out)
		}
		out = append(out, emit(n)...)
	}
	return out
}

func TestBandlimitedMatchesDirectComplexFIR(t *testing.T) {
	const total = 12000
	for _, bw := range parityBandwidths() {
		for _, seed := range []uint64{1, 0x5eed, 1 << 63} {
			name := fmt.Sprintf("bw=%g/seed=%d", bw, seed)
			j, err := NewBandlimited(bw, 2.5, seed)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefBandlimited(t, bw, 2.5, seed)
			sameStream(t, name, emitChunks(j.Emit, total), emitChunks(ref.emit, total))

			// Reset replays the construction stream; Reseed matches a
			// jammer freshly built on the new seed.
			j.Reset()
			sameStream(t, name+"/reset", j.Emit(700), newRefBandlimited(t, bw, 2.5, seed).emit(700))
			j.Reseed(seed + 99)
			sameStream(t, name+"/reseed", emitChunks(j.Emit, 3000), emitChunks(newRefBandlimited(t, bw, 2.5, seed+99).emit, 3000))
		}
	}
}

// TestHoppingPoolMatchesFreshJammers pins the Hopping pool: reseeding a
// pooled jammer per hop emits what a reference jammer built fresh on the
// hop's seed would.
func TestHoppingPoolMatchesFreshJammers(t *testing.T) {
	const (
		rate   = 20.0
		perHop = 1500
		power  = 3.0
		seed   = 77
		total  = 9 * perHop
	)
	dist, err := hop.NewDistribution(hop.Parabolic, hop.DefaultBandwidths())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHopping(dist, rate, perHop, power, seed)
	if err != nil {
		t.Fatal(err)
	}
	got := emitChunks(h.Emit, total)

	// The reference walks the documented seed chain, one fresh jammer per
	// hop.
	src, base := prng.New(seed), uint64(seed)
	var want []complex128
	for len(want) < total {
		idx := src.Choose(dist.Probs)
		base = base*0x9e3779b97f4a7c15 + 1
		want = append(want, newRefBandlimited(t, dist.Bandwidths[idx]/rate, power, base).emit(perHop)...)
	}
	sameStream(t, "hopping", got, want)

	h.Reset()
	sameStream(t, "hopping/reset", emitChunks(h.Emit, total), want)
}

// TestBandlimitedEmitAllocs pins Emit at one allocation, the fresh slice it
// returns, once its scratch has grown to the emission size.
func TestBandlimitedEmitAllocs(t *testing.T) {
	for _, bw := range []float64{0.5, 2.5 / 20, 0.15625 / 20, 1} {
		j, err := NewBandlimited(bw, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		j.Emit(4096)
		if got := testing.AllocsPerRun(50, func() { j.Emit(4096) }); got != 1 {
			t.Errorf("bw %g: Emit makes %v allocs/op, want 1", bw, got)
		}
	}
}

// benchBandwidths are the two filter lengths the experiments synthesize
// with: 129 taps for the wider bands, 513 below a 0.01 cutoff.
var benchBandwidths = []struct {
	name string
	bw   float64
}{
	{"taps=129", 2.5 / 20},
	{"taps=513", 0.15625 / 20},
}

func BenchmarkBandlimitedEmit(b *testing.B) {
	const n = 4096
	for _, c := range benchBandwidths {
		b.Run(c.name, func(b *testing.B) {
			j, err := NewBandlimited(c.bw, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(n * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.Emit(n)
			}
		})
	}
}

// BenchmarkBandlimitedReseed times the per-hop (Hopping) and per-build
// (Adaptive) rewind, which reloads the delay line.
func BenchmarkBandlimitedReseed(b *testing.B) {
	for _, c := range benchBandwidths {
		b.Run(c.name, func(b *testing.B) {
			j, err := NewBandlimited(c.bw, 1, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j.Reseed(uint64(i))
			}
		})
	}
}
