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
	for trial := 0; trial < 20; trial++ {
		in, hid := 1+rng.Intn(80), 1+rng.Intn(12)
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

// BenchmarkTrainSparse trains the verifier's shape (212 inputs, 48 hidden
// units, batch 32) for one epoch over 3,478 samples whose inputs are
// about 8% non-zero, as the featurizer's are.
func BenchmarkTrainSparse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]Sample, 3478)
	for i := range data {
		x := make([]float64, 212)
		for j := range x {
			if rng.Float64() < 0.083 {
				x[j] = rng.Float64()
			}
		}
		data[i] = Sample{X: x, Y: rng.Intn(2)}
	}
	for b.Loop() {
		Train(NewMLP(212, 48, 3), data, TrainConfig{Epochs: 1, BatchSize: 32, LR: 0.008, Seed: 2})
	}
}
