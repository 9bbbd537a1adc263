package nn

import (
	"math"

	"github.com/ddnn/ddnn-go/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2014) with the paper's
// hyper-parameters as defaults: α=0.001, β₁=0.9, β₂=0.999, ε=1e-8 (§IV-A).
type Adam struct {
	LR, Beta1, Beta2, Eps float32

	t     int
	state map[*Param]*adamState
}

type adamState struct {
	m, v *tensor.Tensor
}

// NewAdam constructs an Adam optimizer with the paper's hyper-parameters.
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, state: make(map[*Param]*adamState)}
}

// Step applies one Adam update to every parameter and then runs its
// PostStep hook.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		st, ok := a.state[p]
		if !ok {
			st = &adamState{m: tensor.New(p.Value.Shape()...), v: tensor.New(p.Value.Shape()...)}
			a.state[p] = st
		}
		vd, gd := p.Value.Data(), p.Grad.Data()
		md, sd := st.m.Data(), st.v.Data()
		for i := range vd {
			g := gd[i]
			md[i] = a.Beta1*md[i] + (1-a.Beta1)*g
			sd[i] = a.Beta2*sd[i] + (1-a.Beta2)*g*g
			mHat := md[i] / bc1
			vHat := sd[i] / bc2
			vd[i] -= a.LR * mHat / (float32(math.Sqrt(float64(vHat))) + a.Eps)
		}
		if p.PostStep != nil {
			p.PostStep(p)
		}
	}
}
