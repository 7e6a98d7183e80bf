// Package nn is a dependency-free neural-network micro-stack sized for the
// NLI verifier: a one-hidden-layer MLP binary classifier trained with the
// Adam optimizer and the focal loss of Lin et al. that the paper adopts
// for its imbalanced entailment data (§IV-D, Eq. 1), including the class
// re-weighting the paper layers on top. Backpropagation is exact and
// covered by finite-difference gradient checks in the tests.
//
// Training is bit-for-bit reproducible, and the kernels are fast only in
// ways that keep every bit: each floating-point expression keeps its
// operand order (m = β1·m + (1-β1)·g, v = β2·v + ((1-β2)·g)·g,
// p -= (LR·m̂)/(√(v/c2)+ε)); the forward pass interleaves work only
// across hidden units, never reordering the sum of one unit (its bias,
// then its weighted inputs in ascending index order); and a division is
// dropped only where its divisor is exactly 1, since x/1 == x. There are
// no goroutines: a parallel reduction would reorder the sums.
package nn

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
)

// MLP is a binary classifier: input -> ReLU hidden layer -> single logit.
type MLP struct {
	In     int         `json:"in"`
	Hidden int         `json:"hidden"`
	W1     [][]float64 `json:"w1"` // Hidden x In
	B1     []float64   `json:"b1"`
	W2     []float64   `json:"w2"` // 1 x Hidden
	B2     float64     `json:"b2"`
}

// NewMLP initializes a network with Xavier-style scaling from a seeded
// generator, so training runs are reproducible.
func NewMLP(in, hidden int, seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{In: in, Hidden: hidden}
	scale1 := math.Sqrt(2.0 / float64(in))
	m.W1 = make([][]float64, hidden)
	m.B1 = make([]float64, hidden)
	for h := range m.W1 {
		m.W1[h] = make([]float64, in)
		for i := range m.W1[h] {
			m.W1[h][i] = rng.NormFloat64() * scale1
		}
	}
	scale2 := math.Sqrt(2.0 / float64(hidden))
	m.W2 = make([]float64, hidden)
	for h := range m.W2 {
		m.W2[h] = rng.NormFloat64() * scale2
	}
	return m
}

// Logit runs the forward pass.
func (m *MLP) Logit(x []float64) float64 {
	var w Workspace
	return w.Logit(m, x)
}

// Workspace holds the buffers of a forward pass, so that repeated
// inference through one Workspace does not allocate. The zero value is
// ready to use. A Workspace must not be used by two goroutines at once.
type Workspace struct {
	nz     []int
	hidden []float64
}

// Logit runs m's forward pass on x in w's buffers.
func (w *Workspace) Logit(m *MLP, x []float64) float64 {
	w.nz = nonZero(w.nz[:0], x)
	if cap(w.hidden) < m.Hidden {
		w.hidden = make([]float64, m.Hidden)
	}
	w.hidden = w.hidden[:m.Hidden]
	return m.forward(x, w.nz, w.hidden)
}

// Predict returns P(label = positive) through w's buffers.
func (w *Workspace) Predict(m *MLP, x []float64) float64 { return Sigmoid(w.Logit(m, x)) }

// nonZero appends the ascending indices of x's non-zero entries to dst.
func nonZero(dst []int, x []float64) []int {
	for i, xi := range x {
		if xi != 0 {
			dst = append(dst, i)
		}
	}
	return dst
}

// forward computes the logit of x, whose non-zero entries are exactly
// those at the ascending indices nz, and writes the ReLU activations into
// hidden. Visiting only the non-zero inputs adds the same non-zero terms
// in the same order as a dense pass: a skipped row[i]*0 term is a signed
// zero, which can change only the sign of a zero pre-activation, and the
// ReLU maps both signs to +0. (That holds for finite weights; a NaN or
// infinite weight times 0 is NaN in a dense pass.)
//
// Hidden units are summed four at a time in independent accumulators, so
// the four dependent add chains overlap; each unit's own sum is unchanged.
func (m *MLP) forward(x []float64, nz []int, hidden []float64) float64 {
	n, h := len(x), 0
	for ; h+4 <= m.Hidden; h += 4 {
		// Rows cut to len(x): one bounds check on i then covers all four.
		r0, r1, r2, r3 := m.W1[h][:n], m.W1[h+1][:n], m.W1[h+2][:n], m.W1[h+3][:n]
		s0, s1, s2, s3 := m.B1[h], m.B1[h+1], m.B1[h+2], m.B1[h+3]
		for _, i := range nz {
			xi := x[i]
			s0 += r0[i] * xi
			s1 += r1[i] * xi
			s2 += r2[i] * xi
			s3 += r3[i] * xi
		}
		hidden[h], hidden[h+1], hidden[h+2], hidden[h+3] = relu(s0), relu(s1), relu(s2), relu(s3)
	}
	for ; h < m.Hidden; h++ {
		s := m.B1[h]
		row := m.W1[h]
		for _, i := range nz {
			s += row[i] * x[i]
		}
		hidden[h] = relu(s)
	}
	logit := m.B2
	for h, a := range hidden {
		logit += m.W2[h] * a
	}
	return logit
}

// relu is max(s, 0), with a NaN and either signed zero mapped to +0.
func relu(s float64) float64 {
	if s > 0 {
		return s
	}
	return 0
}

// Predict returns P(label = positive).
func (m *MLP) Predict(x []float64) float64 { return Sigmoid(m.Logit(x)) }

// Sigmoid is the logistic function, numerically stabilized.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// FocalLoss is the paper's classification loss: FL(pt) = -αt (1-pt)^γ log(pt),
// with class weights (wPos, wNeg) re-scaling the two classes. It returns
// the loss and its exact derivative with respect to the logit.
type FocalLoss struct {
	Gamma float64 // focusing parameter (paper: 2.0)
	Alpha float64 // positive-class weight in [0,1] (paper: 0.75)
	WPos  float64 // class re-scaling (paper: 2.7 for entailment)
	WNeg  float64 // class re-scaling (paper: 1.0 for contradiction)
}

// PaperFocal is the configuration used by the paper's training settings.
var PaperFocal = FocalLoss{Gamma: 2.0, Alpha: 0.75, WPos: 2.7, WNeg: 1.0}

const epsProb = 1e-12

// Eval computes the loss and dLoss/dLogit for a binary label y in {0, 1}.
func (fl FocalLoss) Eval(logit float64, y int) (loss, dLdZ float64) {
	p := Sigmoid(logit)
	var pt, a float64
	if y == 1 {
		pt = p
		a = fl.Alpha * fl.WPos
	} else {
		pt = 1 - p
		a = (1 - fl.Alpha) * fl.WNeg
	}
	if pt < epsProb {
		pt = epsProb
	}
	oneMinus := 1 - pt
	loss = -a * math.Pow(oneMinus, fl.Gamma) * math.Log(pt)
	// dL/dpt, then chain through pt -> p -> logit.
	dLdPt := a * (fl.Gamma*math.Pow(oneMinus, fl.Gamma-1)*math.Log(pt) - math.Pow(oneMinus, fl.Gamma)/pt)
	dPtdP := 1.0
	if y == 0 {
		dPtdP = -1.0
	}
	dLdZ = dLdPt * dPtdP * p * (1 - p)
	return loss, dLdZ
}

// CrossEntropy is the plain weighted BCE loss used by the focal-loss
// ablation bench.
type CrossEntropy struct {
	WPos, WNeg float64
}

// Eval computes the loss and dLoss/dLogit.
func (ce CrossEntropy) Eval(logit float64, y int) (loss, dLdZ float64) {
	p := Sigmoid(logit)
	if y == 1 {
		pt := math.Max(p, epsProb)
		return -ce.WPos * math.Log(pt), ce.WPos * (p - 1)
	}
	pt := math.Max(1-p, epsProb)
	return -ce.WNeg * math.Log(pt), ce.WNeg * p
}

// Loss is the training-objective contract shared by FocalLoss and
// CrossEntropy.
type Loss interface {
	Eval(logit float64, y int) (loss, dLdZ float64)
}

// grads mirrors the MLP parameter shapes.
type grads struct {
	w1 [][]float64
	b1 []float64
	w2 []float64
	b2 float64
}

func newGrads(m *MLP) *grads {
	g := &grads{b1: make([]float64, m.Hidden), w2: make([]float64, m.Hidden)}
	g.w1 = make([][]float64, m.Hidden)
	for h := range g.w1 {
		g.w1[h] = make([]float64, m.In)
	}
	return g
}

// backward accumulates gradients for one example into g; nz and hidden
// are the example's forward-pass indices and activations.
func (m *MLP) backward(x []float64, nz []int, dLdZ float64, hidden []float64, g *grads) {
	g.b2 += dLdZ
	for h, a := range hidden {
		g.w2[h] += dLdZ * a
		if a > 0 { // ReLU gate
			dh := dLdZ * m.W2[h]
			g.b1[h] += dh
			row := g.w1[h]
			for _, i := range nz {
				row[i] += dh * x[i]
			}
		}
	}
}

// Adam is the Adam optimizer over an MLP's parameters.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	t        int
	mW1, vW1 [][]float64
	mB1, vB1 []float64
	mW2, vW2 []float64
	mB2, vB2 float64
}

// NewAdam returns an Adam optimizer with the usual defaults and the given
// learning rate (the paper trains its verifier with Adam at 5e-6; our much
// smaller model uses a correspondingly larger rate set by the caller).
func NewAdam(m *MLP, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
	a.mW1 = zeros2(m.Hidden, m.In)
	a.vW1 = zeros2(m.Hidden, m.In)
	a.mB1 = make([]float64, m.Hidden)
	a.vB1 = make([]float64, m.Hidden)
	a.mW2 = make([]float64, m.Hidden)
	a.vW2 = make([]float64, m.Hidden)
	return a
}

func zeros2(r, c int) [][]float64 {
	out := make([][]float64, r)
	for i := range out {
		out[i] = make([]float64, c)
	}
	return out
}

// Step applies one Adam update with gradients g (already averaged over the
// batch by the caller), and zeroes g as it reads it, ready for the next
// batch. Every parameter is updated on every step.
func (a *Adam) Step(m *MLP, g *grads) {
	a.t++
	k := adamStep{
		beta1: a.Beta1, beta2: a.Beta2, oneMinusBeta1: 1 - a.Beta1, oneMinusBeta2: 1 - a.Beta2,
		lr: a.LR, eps: a.Eps,
		c1: 1 - math.Pow(a.Beta1, float64(a.t)),
		c2: 1 - math.Pow(a.Beta2, float64(a.t)),
	}
	for h := range m.W1 {
		k.update(m.W1[h], g.w1[h], a.mW1[h], a.vW1[h])
	}
	k.update(m.B1, g.b1, a.mB1, a.vB1)
	k.update(m.W2, g.w2, a.mW2, a.vW2)
	p, gb, mb, vb := []float64{m.B2}, []float64{g.b2}, []float64{a.mB2}, []float64{a.vB2}
	k.update(p, gb, mb, vb)
	m.B2, g.b2, a.mB2, a.vB2 = p[0], gb[0], mb[0], vb[0]
}

// adamStep holds one step's constants: the hyperparameters and the bias
// corrections c1 = 1-β1^t and c2 = 1-β2^t.
type adamStep struct {
	beta1, beta2, oneMinusBeta1, oneMinusBeta2, lr, eps, c1, c2 float64
}

// update applies the step to one row of parameters p with gradients g and
// moment estimates m and v, all of one length, and zeroes g. Once c1 has
// rounded to exactly 1 (from t = 356 at β1 = 0.9) the m/c1 division is
// skipped, since x/1 == x. The two cases are separate loops: a test on c1
// inside one loop costs a third of the step.
func (k adamStep) update(p, g, m, v []float64) {
	beta1, beta2, ob1, ob2 := k.beta1, k.beta2, k.oneMinusBeta1, k.oneMinusBeta2
	lr, eps, c1, c2 := k.lr, k.eps, k.c1, k.c2
	g, m, v = g[:len(p)], m[:len(p)], v[:len(p)]
	if c1 == 1 {
		for i, gi := range g {
			mi := beta1*m[i] + ob1*gi
			vi := beta2*v[i] + ob2*gi*gi
			m[i], v[i], g[i] = mi, vi, 0
			p[i] -= lr * mi / (math.Sqrt(vi/c2) + eps)
		}
		return
	}
	for i, gi := range g {
		mi := beta1*m[i] + ob1*gi
		vi := beta2*v[i] + ob2*gi*gi
		m[i], v[i], g[i] = mi, vi, 0
		p[i] -= lr * (mi / c1) / (math.Sqrt(vi/c2) + eps)
	}
}

// Sample is one training example.
type Sample struct {
	X []float64
	Y int // 1 = entailment, 0 = contradiction
}

// TrainConfig bundles the training hyperparameters.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
	Loss      Loss
}

// Train fits the model with mini-batch Adam and returns the mean loss per
// epoch (useful for convergence assertions in tests and benchmarks).
func Train(m *MLP, data []Sample, cfg TrainConfig) []float64 {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 5
	}
	loss := cfg.Loss
	if loss == nil {
		loss = PaperFocal
	}
	opt := NewAdam(m, cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := make([]int, len(data))
	for i := range order {
		order[i] = i
	}
	// Inputs are sparse: find each sample's non-zero entries once, and
	// reuse one gradient buffer and one activation buffer throughout.
	nz := make([][]int, len(data))
	for i, s := range data {
		nz[i] = nonZero(nil, s.X)
	}
	g := newGrads(m)
	hidden := make([]float64, m.Hidden)
	var epochLosses []float64
	for e := 0; e < cfg.Epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			for _, idx := range order[start:end] {
				s := data[idx]
				logit := m.forward(s.X, nz[idx], hidden)
				l, dLdZ := loss.Eval(logit, s.Y)
				total += l
				m.backward(s.X, nz[idx], dLdZ/float64(end-start), hidden, g)
			}
			opt.Step(m, g)
		}
		epochLosses = append(epochLosses, total/float64(maxi(1, len(data))))
	}
	return epochLosses
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Marshal serializes the model to JSON.
func (m *MLP) Marshal() ([]byte, error) { return json.Marshal(m) }

// UnmarshalMLP deserializes a model, validating shapes.
func UnmarshalMLP(data []byte) (*MLP, error) {
	var m MLP
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, err
	}
	if len(m.W1) != m.Hidden || len(m.W2) != m.Hidden || len(m.B1) != m.Hidden {
		return nil, fmt.Errorf("nn: corrupt model: hidden=%d w1=%d w2=%d", m.Hidden, len(m.W1), len(m.W2))
	}
	for _, row := range m.W1 {
		if len(row) != m.In {
			return nil, fmt.Errorf("nn: corrupt model: input width %d != %d", len(row), m.In)
		}
	}
	return &m, nil
}
