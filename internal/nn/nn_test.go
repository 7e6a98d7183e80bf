package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// numericalGrad estimates dLoss/dParam by central differences through the
// full forward pass, validating the analytic backward pass.
func TestBackpropMatchesNumericalGradient(t *testing.T) {
	m := NewMLP(4, 3, 1)
	x := []float64{0.5, -1.2, 0.3, 2.0}
	loss := PaperFocal
	for _, y := range []int{0, 1} {
		nz := nonZero(nil, x)
		hidden := make([]float64, m.Hidden)
		logit := m.forward(x, nz, hidden)
		_, dLdZ := loss.Eval(logit, y)
		g := newGrads(m)
		m.backward(x, nz, dLdZ, hidden, g)

		const h = 1e-6
		check := func(p *float64, analytic float64, name string) {
			t.Helper()
			orig := *p
			*p = orig + h
			lp, _ := loss.Eval(m.Logit(x), y)
			*p = orig - h
			lm, _ := loss.Eval(m.Logit(x), y)
			*p = orig
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("y=%d %s: analytic %g numeric %g", y, name, analytic, numeric)
			}
		}
		check(&m.B2, g.b2, "b2")
		check(&m.W2[0], g.w2[0], "w2[0]")
		check(&m.W1[0][0], g.w1[0][0], "w1[0][0]")
		check(&m.B1[1], g.b1[1], "b1[1]")
	}
}

// denseForward and denseBackward are the textbook passes over every
// input, zeros included: the reference the sparse passes must match.
func denseForward(m *MLP, x []float64) (float64, []float64) {
	hidden := make([]float64, m.Hidden)
	for h := range hidden {
		s := m.B1[h]
		for i, xi := range x {
			s += m.W1[h][i] * xi
		}
		if s > 0 {
			hidden[h] = s
		}
	}
	logit := m.B2
	for h, a := range hidden {
		logit += m.W2[h] * a
	}
	return logit, hidden
}

func denseBackward(m *MLP, x []float64, dLdZ float64, hidden []float64, g *grads) {
	g.b2 += dLdZ
	for h, a := range hidden {
		g.w2[h] += dLdZ * a
		if a > 0 {
			dh := dLdZ * m.W2[h]
			g.b1[h] += dh
			for i, xi := range x {
				g.w1[h][i] += dh * xi
			}
		}
	}
}

// TestSparseMatchesDense drives random sparse inputs through the sparse
// forward and backward passes and the dense reference, and requires
// bit-identical logits, activations and accumulated gradients.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 24; trial++ {
		in, hid := 1+rng.Intn(80), 1+rng.Intn(12)
		if trial >= 20 {
			hid = 48 // the verifier's width
		}
		m := NewMLP(in, hid, rng.Int63())
		m.B1[0] = -100 // one unit that is always gated off
		sparse, dense := newGrads(m), newGrads(m)
		var w Workspace
		for n := 0; n < 16; n++ {
			x := make([]float64, in)
			for i := range x {
				switch r := rng.Float64(); {
				case r < 0.08:
					x[i] = rng.NormFloat64()
				case r < 0.1:
					x[i] = 0.5
				case r < 0.11:
					x[i] = math.Copysign(0, -1)
				}
			}
			wantLogit, wantHidden := denseForward(m, x)
			if got := w.Logit(m, x); math.Float64bits(got) != math.Float64bits(wantLogit) {
				t.Fatalf("trial %d: sparse logit %v, dense %v", trial, got, wantLogit)
			}
			for h := range wantHidden {
				if math.Float64bits(w.hidden[h]) != math.Float64bits(wantHidden[h]) {
					t.Fatalf("trial %d: hidden[%d] %v, dense %v", trial, h, w.hidden[h], wantHidden[h])
				}
			}
			_, dLdZ := PaperFocal.Eval(wantLogit, n%2)
			m.backward(x, w.nz, dLdZ/16, w.hidden, sparse)
			denseBackward(m, x, dLdZ/16, wantHidden, dense)
		}
		bits := func(xs []float64) []uint64 {
			out := make([]uint64, len(xs))
			for i, v := range xs {
				out[i] = math.Float64bits(v)
			}
			return out
		}
		same := func(a, b []float64) bool { return reflect.DeepEqual(bits(a), bits(b)) }
		if !same(sparse.b1, dense.b1) || !same(sparse.w2, dense.w2) || !same([]float64{sparse.b2}, []float64{dense.b2}) {
			t.Fatalf("trial %d: bias or output-layer gradients diverge", trial)
		}
		for h := range sparse.w1 {
			if !same(sparse.w1[h], dense.w1[h]) {
				t.Fatalf("trial %d: w1[%d] gradients diverge", trial, h)
			}
		}
	}
}

// referenceStep is the Adam step as first written, one closure call per
// parameter through four pointers: the oracle Adam.Step must match bit
// for bit. It leaves g as it is.
func referenceStep(a *Adam, m *MLP, g *grads) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	upd := func(p, grad *float64, mm, vv *float64) {
		*mm = a.Beta1**mm + (1-a.Beta1)**grad
		*vv = a.Beta2**vv + (1-a.Beta2)**grad**grad
		mHat := *mm / c1
		vHat := *vv / c2
		*p -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
	for h := range m.W1 {
		for i := range m.W1[h] {
			upd(&m.W1[h][i], &g.w1[h][i], &a.mW1[h][i], &a.vW1[h][i])
		}
		upd(&m.B1[h], &g.b1[h], &a.mB1[h], &a.vB1[h])
		upd(&m.W2[h], &g.w2[h], &a.mW2[h], &a.vW2[h])
	}
	upd(&m.B2, &g.b2, &a.mB2, &a.vB2)
}

// asModel views parameter-shaped state (moments, gradients) as a model
// shaped like m, so sameBits compares it.
func asModel(m *MLP, w1 [][]float64, b1, w2 []float64, b2 float64) *MLP {
	return &MLP{In: m.In, Hidden: m.Hidden, W1: w1, B1: b1, W2: w2, B2: b2}
}

// TestAdamStepMatchesReference runs Adam.Step and referenceStep side by
// side for 420 steps, across t = 356 where c1 = 1-β1^t first rounds to
// exactly 1 and the flat step stops dividing by it, on gradients mixing
// zeros, -0, subnormal, tiny and large values. Parameters and both
// moment estimates must stay bit-identical after every step, and the flat
// step must leave the gradient +0.
func TestAdamStepMatchesReference(t *testing.T) {
	if c := 1 - math.Pow(0.9, 355); c == 1 {
		t.Fatal("c1 is already 1 at t = 355")
	}
	if c := 1 - math.Pow(0.9, 356); c != 1 {
		t.Fatalf("c1 = %v at t = 356, want exactly 1", c)
	}
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2e-310, 1e-20, -3e-9, 1e150, -1e150, 7.5}
	rng := rand.New(rand.NewSource(23))
	grad := func() float64 {
		if rng.Intn(3) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64() * 0.01
	}
	for _, hid := range []int{1, 3, 4, 5, 7, 48} {
		flat, ref := NewMLP(9, hid, int64(hid)), NewMLP(9, hid, int64(hid))
		fa, ra := NewAdam(flat, 0.008), NewAdam(ref, 0.008)
		g, rg, zero := newGrads(flat), newGrads(ref), newGrads(flat)
		fill := func(dst, mirror []float64) {
			for i := range dst {
				dst[i] = grad()
				mirror[i] = dst[i]
			}
		}
		for step := 1; step <= 420; step++ {
			for h := range g.w1 {
				fill(g.w1[h], rg.w1[h])
			}
			fill(g.b1, rg.b1)
			fill(g.w2, rg.w2)
			g.b2 = grad()
			rg.b2 = g.b2

			fa.Step(flat, g)
			referenceStep(ra, ref, rg)

			if !sameBits(flat, ref) ||
				!sameBits(asModel(flat, fa.mW1, fa.mB1, fa.mW2, fa.mB2), asModel(ref, ra.mW1, ra.mB1, ra.mW2, ra.mB2)) ||
				!sameBits(asModel(flat, fa.vW1, fa.vB1, fa.vW2, fa.vB2), asModel(ref, ra.vW1, ra.vB1, ra.vW2, ra.vB2)) {
				t.Fatalf("hidden %d: step %d diverges from the reference", hid, step)
			}
			if !sameBits(asModel(flat, g.w1, g.b1, g.w2, g.b2), asModel(flat, zero.w1, zero.b1, zero.w2, zero.b2)) {
				t.Fatalf("hidden %d: step %d leaves a gradient that is not +0", hid, step)
			}
		}
	}
}

// TestWarmAllocGate: a warm Adam step and a warm forward pass through a
// Workspace allocate nothing.
func TestWarmAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("absolute alloc gates are skipped under -race")
	}
	m := NewMLP(212, 48, 3)
	a := NewAdam(m, 0.008)
	g := newGrads(m)
	a.Step(m, g)
	if n := testing.AllocsPerRun(100, func() { a.Step(m, g) }); n != 0 {
		t.Errorf("warm Adam.Step allocates %v times per call, want 0", n)
	}
	x := sparseInput(rand.New(rand.NewSource(1)), 212)
	var w Workspace
	w.Logit(m, x)
	if n := testing.AllocsPerRun(100, func() { w.Logit(m, x) }); n != 0 {
		t.Errorf("warm Workspace.Logit allocates %v times per call, want 0", n)
	}
}

func TestFocalLossGradientNumerically(t *testing.T) {
	fl := FocalLoss{Gamma: 2.0, Alpha: 0.75, WPos: 2.7, WNeg: 1.0}
	const h = 1e-6
	for _, z := range []float64{-3, -0.5, 0, 0.5, 3} {
		for _, y := range []int{0, 1} {
			_, grad := fl.Eval(z, y)
			lp, _ := fl.Eval(z+h, y)
			lm, _ := fl.Eval(z-h, y)
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-grad) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("focal grad at z=%v y=%d: analytic %g numeric %g", z, y, grad, numeric)
			}
		}
	}
}

func TestCrossEntropyGradientNumerically(t *testing.T) {
	ce := CrossEntropy{WPos: 2, WNeg: 1}
	const h = 1e-6
	for _, z := range []float64{-2, 0, 2} {
		for _, y := range []int{0, 1} {
			_, grad := ce.Eval(z, y)
			lp, _ := ce.Eval(z+h, y)
			lm, _ := ce.Eval(z-h, y)
			numeric := (lp - lm) / (2 * h)
			if math.Abs(numeric-grad) > 1e-5*(1+math.Abs(numeric)) {
				t.Errorf("ce grad at z=%v y=%d: analytic %g numeric %g", z, y, grad, numeric)
			}
		}
	}
}

func TestFocalDownweightsEasyExamples(t *testing.T) {
	fl := FocalLoss{Gamma: 2.0, Alpha: 0.5, WPos: 1, WNeg: 1}
	ce := CrossEntropy{WPos: 0.5, WNeg: 0.5}
	// A well-classified positive (logit 3): focal loss must shrink the
	// example far more than cross entropy does.
	fEasy, _ := fl.Eval(3, 1)
	cEasy, _ := ce.Eval(3, 1)
	fHard, _ := fl.Eval(-3, 1)
	cHard, _ := ce.Eval(-3, 1)
	if fEasy/fHard >= cEasy/cHard {
		t.Fatalf("focal must down-weight easy examples: focal ratio %g, ce ratio %g", fEasy/fHard, cEasy/cHard)
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	// XOR is the canonical not-linearly-separable sanity check.
	data := []Sample{
		{X: []float64{0, 0}, Y: 0},
		{X: []float64{0, 1}, Y: 1},
		{X: []float64{1, 0}, Y: 1},
		{X: []float64{1, 1}, Y: 0},
	}
	var big []Sample
	for i := 0; i < 64; i++ {
		big = append(big, data...)
	}
	m := NewMLP(2, 8, 42)
	losses := Train(m, big, TrainConfig{Epochs: 200, BatchSize: 16, LR: 0.01, Seed: 7, Loss: CrossEntropy{WPos: 1, WNeg: 1}})
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %g -> %g", losses[0], losses[len(losses)-1])
	}
	for _, s := range data {
		p := m.Predict(s.X)
		if (s.Y == 1) != (p > 0.5) {
			t.Fatalf("XOR(%v) predicted %g want label %d", s.X, p, s.Y)
		}
	}
}

func TestTrainImbalancedWithFocal(t *testing.T) {
	// 9:1 negative:positive imbalance on a linearly separable problem;
	// the focal loss with class re-weighting must still recover the
	// positive class.
	rng := rand.New(rand.NewSource(3))
	var data []Sample
	for i := 0; i < 900; i++ {
		data = append(data, Sample{X: []float64{rng.Float64() * 0.4, 1}, Y: 0})
	}
	for i := 0; i < 100; i++ {
		data = append(data, Sample{X: []float64{0.6 + rng.Float64()*0.4, 1}, Y: 1})
	}
	m := NewMLP(2, 6, 11)
	Train(m, data, TrainConfig{Epochs: 60, BatchSize: 32, LR: 0.02, Seed: 5, Loss: PaperFocal})
	tp, fn := 0, 0
	for _, s := range data {
		if s.Y == 1 {
			if m.Predict(s.X) > 0.5 {
				tp++
			} else {
				fn++
			}
		}
	}
	if tp < 90 {
		t.Fatalf("positive recall too low under imbalance: tp=%d fn=%d", tp, fn)
	}
}

func TestTrainDeterministicGivenSeed(t *testing.T) {
	data := []Sample{{X: []float64{1, 0}, Y: 1}, {X: []float64{0, 1}, Y: 0}}
	m1 := NewMLP(2, 4, 9)
	m2 := NewMLP(2, 4, 9)
	Train(m1, data, TrainConfig{Epochs: 10, LR: 0.01, Seed: 1})
	Train(m2, data, TrainConfig{Epochs: 10, LR: 0.01, Seed: 1})
	if !sameBits(m1, m2) {
		t.Fatal("training must be deterministic for a fixed seed")
	}
}

// sameBits reports whether two models have bit-identical parameters.
func sameBits(a, b *MLP) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.In != b.In || a.Hidden != b.Hidden || len(a.W1) != len(b.W1) ||
		!eq(a.B1, b.B1) || !eq(a.W2, b.W2) || !eq([]float64{a.B2}, []float64{b.B2}) {
		return false
	}
	for h := range a.W1 {
		if !eq(a.W1[h], b.W1[h]) {
			return false
		}
	}
	return true
}

func TestMarshalRoundTrip(t *testing.T) {
	m := NewMLP(3, 2, 5)
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := UnmarshalMLP(data)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	if math.Abs(m.Logit(x)-m2.Logit(x)) > 1e-12 {
		t.Fatal("round-tripped model diverges")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	if _, err := UnmarshalMLP([]byte(`{"in":3,"hidden":2,"w1":[[1,2,3]],"b1":[0,0],"w2":[1,1],"b2":0}`)); err == nil {
		t.Fatal("shape mismatch must be rejected")
	}
	if _, err := UnmarshalMLP([]byte(`not json`)); err == nil {
		t.Fatal("bad json must be rejected")
	}
}

func TestSigmoidStability(t *testing.T) {
	if s := Sigmoid(1000); s != 1 {
		t.Fatalf("sigmoid(1000) = %g", s)
	}
	if s := Sigmoid(-1000); s != 0 {
		t.Fatalf("sigmoid(-1000) = %g", s)
	}
	if s := Sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Fatalf("sigmoid(0) = %g", s)
	}
}

// sparseInput returns an input of width n that is about 8% non-zero, as
// the featurizer's are.
func sparseInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for j := range x {
		if rng.Float64() < 0.083 {
			x[j] = rng.Float64()
		}
	}
	return x
}

// BenchmarkTrainSparse trains the verifier's shape (212 inputs, 48 hidden
// units, batch 32) for one epoch over 3,478 samples. One epoch is 109
// steps, all before c1 reaches 1; BenchmarkAdamStep times the later steps.
func BenchmarkTrainSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]Sample, 3478)
	for i := range data {
		data[i] = Sample{X: sparseInput(rng, 212), Y: rng.Intn(2)}
	}
	for b.Loop() {
		Train(NewMLP(212, 48, 3), data, TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.008, Seed: 2})
	}
}

// BenchmarkAdamStep times one Adam step at the verifier's shape (212
// inputs, 48 hidden units), refilling the gradient before each step as a
// batch's backward pass would. early keeps t below 356, where c1 =
// 1-β1^t is still below 1; late runs past t = 400, the regime of 95% of
// the steps of the verifier's training run.
func BenchmarkAdamStep(b *testing.B) {
	for _, bc := range []struct {
		name      string
		from, end int
	}{{"early", 0, 300}, {"late", 400, 0}} {
		b.Run(bc.name, func(b *testing.B) {
			m := NewMLP(212, 48, 3)
			a := NewAdam(m, 0.008)
			rng := rand.New(rand.NewSource(4))
			src, g := newGrads(m), newGrads(m)
			for h := range src.w1 {
				for i := range src.w1[h] {
					src.w1[h][i] = rng.NormFloat64() * 1e-3
				}
				src.b1[h] = rng.NormFloat64() * 1e-3
				src.w2[h] = rng.NormFloat64() * 1e-3
			}
			src.b2 = 1e-3
			a.t = bc.from
			for b.Loop() {
				if a.t == bc.end {
					a.t = bc.from
				}
				for h := range g.w1 {
					copy(g.w1[h], src.w1[h])
				}
				copy(g.b1, src.b1)
				copy(g.w2, src.w2)
				g.b2 = src.b2
				a.Step(m, g)
			}
		})
	}
}

// BenchmarkLogit times a warm forward pass at the verifier's shape (212
// inputs, 48 hidden units) through one Workspace, over inputs about 8%
// non-zero.
func BenchmarkLogit(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(212, 48, 3)
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = sparseInput(rng, 212)
	}
	var w Workspace
	i := 0
	for b.Loop() {
		w.Logit(m, xs[i%len(xs)])
		i++
	}
}
