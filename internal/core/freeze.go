package core

import (
	"github.com/ddnn/ddnn-go/internal/bnn"
	"github.com/ddnn/ddnn-go/internal/nn"
)

// Freeze syncs every derived weight (the sign-binarized effective weights
// of the binary layers) from the latent parameters, after which all
// inference-mode forwards — DeviceForward, LocalAggregate, CloudForwardPooled,
// EdgeForward, Infer, Evaluate — are read-only and safe for concurrent use
// from any number of goroutines. It also releases what training keeps
// and serving never reads: the last batch's cached activations and the
// layers' training scratch (nn.Layer.ReleaseTraining). A TrainStep after
// Freeze caches afresh.
//
// Freeze is idempotent and is called automatically by NewModel, at the end
// of Train, and by LoadStateDict. Call it manually only after mutating
// parameters by hand (e.g. driving TrainStep + an optimizer directly).
func (m *Model) Freeze() {
	for _, d := range m.devices {
		d.convp.SyncWeights()
		d.exit.lin.SyncWeights()
	}
	if m.edge != nil {
		m.edge.convp.SyncWeights()
		m.edge.exit.lin.SyncWeights()
	}
	syncLayer(m.cloud.b1)
	syncLayer(m.cloud.b2)
	m.cloud.exit.syncWeights()
	m.releaseTraining()
}

// releaseTraining drops every section's and aggregator's training
// caches (see Freeze).
func (m *Model) releaseTraining() {
	for _, d := range m.devices {
		d.convp.ReleaseTraining()
		d.exit.releaseTraining()
	}
	m.localAgg.ReleaseTraining()
	if m.edge != nil {
		m.edgeAgg.ReleaseTraining()
		m.edge.convp.ReleaseTraining()
		m.edge.exit.releaseTraining()
	}
	if m.cloudAgg != nil {
		m.cloudAgg.ReleaseTraining()
	}
	m.cloud.b1.ReleaseTraining()
	m.cloud.b2.ReleaseTraining()
	m.cloud.exit.releaseTraining()
}

// syncLayer syncs a layer's derived weights when it has any; float layers
// (the mixed-precision cloud of §VI) have none.
func syncLayer(l nn.Layer) {
	if s, ok := l.(bnn.WeightSyncer); ok {
		s.SyncWeights()
	}
}

// Freeze syncs the binarized weights from the latent parameters so that
// inference forwards are read-only, and releases the training caches;
// see Model.Freeze.
func (im *IndividualModel) Freeze() {
	im.convp.SyncWeights()
	im.exit.lin.SyncWeights()
	im.convp.ReleaseTraining()
	im.exit.releaseTraining()
}
