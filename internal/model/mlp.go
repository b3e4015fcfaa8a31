package model

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/tensor"
)

// MLP is a fully-connected multi-layer perceptron with sigmoid hidden units
// and a softmax + cross-entropy output layer, matching the paper's
// architectures (e.g. 54-10-5-2 for covtype; Table I). Labels y in {-1, +1}
// map to output classes 0 and 1.
//
// Parameters are flattened as [W_0, b_0, W_1, b_1, ...] where weight layer l
// maps activation a_l (width Widths[l]) to pre-activation z_{l+1}
// (width Widths[l+1]); W_l is stored row-major (out x in).
type MLP struct {
	Widths []int // layer widths, len >= 2, e.g. [54 10 5 2]
	// Chunk overrides the batch-pipeline chunk size (0 = MLPChunk). It
	// changes kernel granularity only, never the computed gradient.
	Chunk int

	offW, offB []int // per-layer offsets into the flat parameter vector
	total      int
}

// NewMLP builds an MLP from layer widths.
func NewMLP(widths []int) *MLP {
	if len(widths) < 2 {
		panic(fmt.Sprintf("model: MLP needs >=2 layers, got %v", widths))
	}
	m := &MLP{Widths: append([]int(nil), widths...)}
	layers := len(widths) - 1
	m.offW = make([]int, layers)
	m.offB = make([]int, layers)
	off := 0
	for l := 0; l < layers; l++ {
		in, out := widths[l], widths[l+1]
		m.offW[l] = off
		off += in * out
		m.offB[l] = off
		off += out
	}
	m.total = off
	return m
}

// NewMLPFor builds the paper's MLP for a dataset spec (Table I column
// "MLP architecture").
func NewMLPFor(spec data.Spec) *MLP { return NewMLP(spec.MLPLayers()) }

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.Widths) - 1 }

// Name implements Model.
func (m *MLP) Name() string { return "mlp" }

// NumParams implements Model.
func (m *MLP) NumParams() int { return m.total }

// Weight returns a matrix view (out x in) of weight layer l inside w.
func (m *MLP) Weight(w []float64, l int) *tensor.Matrix {
	in, out := m.Widths[l], m.Widths[l+1]
	return &tensor.Matrix{Rows: out, Cols: in, Data: w[m.offW[l] : m.offW[l]+in*out]}
}

// Bias returns the bias slice of weight layer l inside w.
func (m *MLP) Bias(w []float64, l int) []float64 {
	return w[m.offB[l] : m.offB[l]+m.Widths[l+1]]
}

// InitParams implements Model: Xavier-style deterministic initialisation.
func (m *MLP) InitParams(seed int64) []float64 {
	rng := initRNG(seed)
	w := make([]float64, m.total)
	for l := 0; l < m.Layers(); l++ {
		in, out := m.Widths[l], m.Widths[l+1]
		scale := 1.0 / float64(in+out)
		wl := w[m.offW[l] : m.offW[l]+in*out]
		for i := range wl {
			wl[i] = rng.NormFloat64() * scale * 2
		}
		// biases stay zero
	}
	return w
}

// mlpScratch holds per-worker forward/backward buffers.
type mlpScratch struct {
	act   [][]float64 // act[l], l = 1..Layers: activations (act[Layers] = softmax probs)
	delta [][]float64 // delta[l], l = 1..Layers: back-propagated errors at z_l
	prod  []float64   // one weight row's gradient products, len = widest layer input
}

// NewScratch implements Model.
func (m *MLP) NewScratch() Scratch {
	s := &mlpScratch{
		act:   make([][]float64, len(m.Widths)),
		delta: make([][]float64, len(m.Widths)),
		prod:  make([]float64, slices.Max(m.Widths[:m.Layers()])),
	}
	for l := 1; l < len(m.Widths); l++ {
		s.act[l] = make([]float64, m.Widths[l])
		s.delta[l] = make([]float64, m.Widths[l])
	}
	return s
}

// classOf maps a ±1 label to the output class index.
func classOf(y float64) int {
	if y > 0 {
		return 1
	}
	return 0
}

// forward runs the network on example i, leaving layer activations in scr
// (scr.act[Layers] holds the softmax probabilities). Returns those probs.
func (m *MLP) forward(w []float64, ds *data.Dataset, i int, scr *mlpScratch) []float64 {
	L := m.Layers()
	// Input layer: z_1 = W_0 * x + b_0 over the sparse support of x.
	{
		in, out := m.Widths[0], m.Widths[1]
		w0 := w[m.offW[0]:]
		z := scr.act[1]
		copy(z, m.Bias(w, 0))
		cols, vals := ds.X.Row(i)
		for k, c := range cols {
			v := vals[k]
			for u := 0; u < out; u++ {
				z[u] += w0[u*in+int(c)] * v
			}
		}
		if L > 1 {
			tensor.SigmoidTo(z, z)
		}
	}
	for l := 1; l < L; l++ {
		in, out := m.Widths[l], m.Widths[l+1]
		wl := w[m.offW[l]:]
		a := scr.act[l]
		z := scr.act[l+1]
		copy(z, m.Bias(w, l))
		for u := 0; u < out; u++ {
			row := wl[u*in : (u+1)*in]
			var s float64
			for k, av := range a {
				s += row[k] * av
			}
			z[u] += s
		}
		if l != L-1 {
			tensor.SigmoidTo(z, z)
		}
	}
	probs := scr.act[L]
	tensor.Softmax(probs, probs)
	return probs
}

// ExampleLoss implements Model: cross-entropy -log p[class].
func (m *MLP) ExampleLoss(w []float64, ds *data.Dataset, i int, scr Scratch) float64 {
	s := scr.(*mlpScratch)
	probs := m.forward(w, ds, i, s)
	p := probs[classOf(ds.Y[i])]
	if p < 1e-300 {
		p = 1e-300
	}
	return -math.Log(p)
}

// backward computes all layer deltas for example i, assuming forward has
// just populated scr.act.
func (m *MLP) backward(w []float64, ds *data.Dataset, i int, scr *mlpScratch) {
	L := m.Layers()
	probs := scr.act[L]
	dOut := scr.delta[L]
	copy(dOut, probs)
	dOut[classOf(ds.Y[i])] -= 1
	for l := L - 1; l >= 1; l-- {
		in, out := m.Widths[l], m.Widths[l+1]
		wl := w[m.offW[l]:]
		dNext := scr.delta[l+1]
		d := scr.delta[l]
		a := scr.act[l]
		for k := 0; k < in; k++ {
			var s float64
			for u := 0; u < out; u++ {
				s += wl[u*in+k] * dNext[u]
			}
			d[k] = s * a[k] * (1 - a[k]) // sigmoid'
		}
	}
}

// AccumGrad implements Model.
func (m *MLP) AccumGrad(w []float64, ds *data.Dataset, i int, scale float64, g []float64, scr Scratch) {
	s := scr.(*mlpScratch)
	m.forward(w, ds, i, s)
	m.backward(w, ds, i, s)
	m.applyGrads(g, ds, i, s, RawUpdater{}, scale)
}

// SGDStep implements Model.
func (m *MLP) SGDStep(w []float64, ds *data.Dataset, i int, step float64, upd Updater, scr Scratch) {
	s := scr.(*mlpScratch)
	m.forward(w, ds, i, s)
	m.backward(w, ds, i, s)
	m.applyGrads(w, ds, i, s, upd, -step)
}

// applyGrads lands a*grad of example i (given populated scratch) in dst
// through upd: per output unit, one call for its weight row (sparse on the
// input layer) and one for its bias. The products du*x go to scr.prod first
// and a multiplies them inside the updater: every component receives
// a*(du*x), never (a*du)*x, which rounds differently.
func (m *MLP) applyGrads(dst []float64, ds *data.Dataset, i int, scr *mlpScratch, upd Updater, a float64) {
	L := m.Layers()
	// Input weight layer: gradW_0[u, c] = delta_1[u] * x[c], sparse in c.
	{
		in := m.Widths[0]
		d := scr.delta[1]
		cols, vals := ds.X.Row(i)
		prod := scr.prod[:len(cols)]
		for u, du := range d {
			if du == 0 {
				continue
			}
			for k, v := range vals {
				prod[k] = du * v
			}
			upd.AddScaled(dst, m.offW[0]+u*in, cols, prod, a)
			upd.AddDense(dst, m.offB[0]+u, d[u:u+1], a)
		}
	}
	for l := 1; l < L; l++ {
		in := m.Widths[l]
		d := scr.delta[l+1]
		act := scr.act[l]
		prod := scr.prod[:in]
		for u, du := range d {
			for k, av := range act {
				prod[k] = du * av
			}
			upd.AddDense(dst, m.offW[l]+u*in, prod, a)
			upd.AddDense(dst, m.offB[l]+u, d[u:u+1], a)
		}
	}
}

// Score implements Scorer: the log-odds log(p₊/p₋) of the softmax output,
// so sign(score) is the predicted label and sigmoid(score) recovers the
// class-+1 probability (softmax over two classes is exactly a sigmoid of the
// logit difference). Probabilities are floored to keep the ratio finite on
// saturated outputs.
func (m *MLP) Score(w []float64, ds *data.Dataset, i int, scr Scratch) float64 {
	s := scr.(*mlpScratch)
	probs := m.forward(w, ds, i, s)
	p0, p1 := probs[0], probs[1]
	if p0 < 1e-300 {
		p0 = 1e-300
	}
	if p1 < 1e-300 {
		p1 = 1e-300
	}
	return math.Log(p1 / p0)
}

// GradSupport implements Model: the input layer touches nnz(x) * h1
// components, all other layers are dense.
func (m *MLP) GradSupport(ds *data.Dataset, i int) int {
	h1 := m.Widths[1]
	n := ds.X.RowNNZ(i)*h1 + h1 // W_0 support + b_0
	for l := 1; l < m.Layers(); l++ {
		n += m.Widths[l]*m.Widths[l+1] + m.Widths[l+1]
	}
	return n
}

var (
	_ Model      = (*MLP)(nil)
	_ BatchModel = (*MLP)(nil)
	_ Scorer     = (*MLP)(nil)
)
