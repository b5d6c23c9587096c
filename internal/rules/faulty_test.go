package rules

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/bits"
	"testing"

	"repro/internal/color"
	"repro/internal/rng"
)

// faultDraw is next unless the (round, vertex) application misfires, in
// which case it is the color the misfire draws.
func faultDraw(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
	f := NewFaultRound(seed, round, eps, k)
	if c, ok := f.Fault(rng.Key(v)); ok {
		return c
	}
	return next
}

func TestFaultyZeroEpsIsInner(t *testing.T) {
	for round := uint64(0); round < 16; round++ {
		for v := uint64(0); v < 64; v++ {
			if got := faultDraw(9, round, v, 0, 4, 2); got != 2 {
				t.Fatalf("eps=0 draw(%d,%d) = %v, want the computed color 2", round, v, got)
			}
		}
	}
}

func TestFaultyFullEpsAlwaysFaults(t *testing.T) {
	seen := map[color.Color]bool{}
	for v := uint64(0); v < 1000; v++ {
		c := faultDraw(3, 1, v, 1, 4, 1)
		if c < 1 || c > 4 {
			t.Fatalf("faulted color %v outside palette {1..4}", c)
		}
		seen[c] = true
	}
	for c := color.Color(1); c <= 4; c++ {
		if !seen[c] {
			t.Fatalf("eps=1 never drew color %v", c)
		}
	}
}

func TestFaultyDeterministicAndCoordinateDependent(t *testing.T) {
	a := faultDraw(17, 5, 7, 0.5, 4, 2)
	if b := faultDraw(17, 5, 7, 0.5, 4, 2); a != b {
		t.Fatal("fault draw is not deterministic for fixed coordinates")
	}
	// Across many coordinates, draws must differ (the fault stream is not
	// constant) while any single coordinate is stable.
	varied := false
	for v := uint64(0); v < 100 && !varied; v++ {
		varied = faultDraw(17, 5, v, 0.5, 4, 2) != a
	}
	if !varied {
		t.Fatal("fault draw ignores the vertex coordinate")
	}
	differs := false
	for v := uint64(0); v < 100 && !differs; v++ {
		differs = faultDraw(17, 5, v, 0.5, 4, 2) != faultDraw(18, 5, v, 0.5, 4, 2)
	}
	if !differs {
		t.Fatal("fault draw ignores the seed")
	}
}

func TestFaultyRateMatchesEps(t *testing.T) {
	const eps = 0.1
	// Count deviations from a computed color that a faulted draw matches
	// only 1 time in K.
	const trials = 40000
	faultedAway := 0
	for v := uint64(0); v < trials; v++ {
		if faultDraw(41, 2, v, eps, 4, 1) != 1 {
			faultedAway++
		}
	}
	// A fault lands on a non-inner color 3 out of 4 times, so the observable
	// deviation rate is eps * (K-1)/K = 0.075.
	got := float64(faultedAway) / trials
	if math.Abs(got-eps*3/4) > 0.01 {
		t.Fatalf("observable fault rate %v, want ~%v", got, eps*3/4)
	}
}

// TestFaultDrawMatchesFloatForm pins the integer threshold of FaultRound
// to the float comparison Unit(h) < eps it replaces, on ordinary rates,
// extreme ones and eps values that sit exactly on a vertex's draw.
func TestFaultDrawMatchesFloatForm(t *testing.T) {
	floatForm := func(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
		if eps <= 0 || k < 1 || rng.Unit(rng.Hash(seed, round, v, faultTagDraw)) >= eps {
			return next
		}
		return color.Color(1 + rng.Hash(seed, round, v, faultTagColor)%uint64(k))
	}
	epss := []float64{0, 1e-300, 1e-9, 0.01, 0.5, math.Nextafter(0.5, 0), 0.999, 1}
	for v := uint64(0); v < 8; v++ {
		epss = append(epss, rng.Unit(rng.Hash(5, 3, v, faultTagDraw)))
	}
	for _, eps := range epss {
		for _, k := range []int{1, 2, 3, 4, 7} {
			for v := uint64(0); v < 2000; v++ {
				want := floatForm(5, 3, v, eps, k, 2)
				if got := faultDraw(5, 3, v, eps, k, 2); got != want {
					t.Fatalf("eps=%v k=%d v=%d: FaultDraw %v, float form %v", eps, k, v, got, want)
				}
			}
		}
	}
}

// TestFaultMaskLanesMatchFloatForm checks Mask over a one-lane, a 63-lane
// and a full word, at unaligned bases too, lane by lane against the float
// form rng.Unit(rng.Hash(seed, r, v, 1)) < eps, with no bit set above the
// last lane.
func TestFaultMaskLanesMatchFloatForm(t *testing.T) {
	keys := make([]uint64, 512)
	for v := range keys {
		keys[v] = rng.Key(uint64(v))
	}
	for _, eps := range []float64{0.01, 0.3, 0.5, 0.97} {
		for r := uint64(1); r <= 3; r++ {
			f := NewFaultRound(77, r, eps, 4)
			for _, lanes := range []int{1, 63, 64} {
				for _, base := range []int{0, 1, 64, 130, 448} {
					m := f.Mask(keys[base : base+lanes])
					if lanes < 64 && m>>lanes != 0 {
						t.Fatalf("eps=%v r=%d base=%d: mask %#x sets bits above lane %d", eps, r, base, m, lanes-1)
					}
					for i := 0; i < lanes; i++ {
						want := rng.Unit(rng.Hash(77, r, uint64(base+i), faultTagDraw)) < eps
						if got := m>>i&1 == 1; got != want {
							t.Fatalf("eps=%v r=%d lanes=%d: lane %d (vertex %d) misfires %v, float form %v", eps, r, lanes, i, base+i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFaultRoundStreamPinned pins a sha256 over the fault stream as the
// bitplane tier reads it: every mask word of rounds 1-8 over 4,096
// vertices, followed by the colors of the word's misfiring lanes, at rates
// from none to certain and on two palettes.  A rewrite of the draw that
// moves any bit of any mask or color fails here.
func TestFaultRoundStreamPinned(t *testing.T) {
	const want = "6eb1d7ba810e859bb435d58dad0c0d86557df8edf2b90fc9399d36de5ceb6312"
	keys := make([]uint64, 4096)
	for v := range keys {
		keys[v] = rng.Key(uint64(v))
	}
	h := sha256.New()
	var buf [8]byte
	for _, eps := range []float64{0, 0.01, 0.5, 1} {
		for _, k := range []int{2, 4} {
			for r := uint64(1); r <= 8; r++ {
				f := NewFaultRound(0x5eed, r, eps, k)
				for base := 0; base < len(keys); base += 64 {
					word := keys[base : base+64]
					m := f.Mask(word)
					binary.LittleEndian.PutUint64(buf[:], m)
					h.Write(buf[:])
					for rest := m; rest != 0; rest &= rest - 1 {
						h.Write([]byte{byte(f.Color(word[bits.TrailingZeros64(rest)]))})
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("fault stream sha256 = %s, want %s", got, want)
	}
}

func TestThresholdThetaRegistryEntries(t *testing.T) {
	for theta := 1; theta <= 4; theta++ {
		name := map[int]string{1: "threshold-1", 2: "threshold-2", 3: "threshold-3", 4: "threshold-4"}[theta]
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		th, ok := r.(Threshold)
		if !ok {
			t.Fatalf("%s is %T, want Threshold", name, r)
		}
		if th.Theta != theta || th.Target != 1 {
			t.Fatalf("%s = %+v", name, th)
		}
	}
}
