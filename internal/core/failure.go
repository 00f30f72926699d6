package core

import (
	"hamband/internal/heartbeat"
	"hamband/internal/rdma"
)

// FailureDomain is the per-node failure-handling infrastructure — one
// heartbeat thread and one detector per node — shared by every cluster on
// the fabric. A node hosting many replicated objects is still one process:
// it beats once, is suspected once, and every shard on it fails together.
// Every replica subscribes to a domain — a standalone cluster to the
// one-shard domain it owns — so N shards cost the same background heartbeat
// traffic as one.
//
// A nil *FailureDomain is failure handling disabled: it suspects nobody and
// its membership calls do nothing.
type FailureDomain struct {
	beaters   []*heartbeat.Beater
	detectors []*heartbeat.Detector
	subs      [][]fdomSub // per observing node
}

// fdomSub is one shard replica's suspicion callbacks on a node.
type fdomSub struct {
	onSuspect, onRestore func(rdma.NodeID)
}

// NewFailureDomain registers the heartbeat region on every node and starts
// one beater and one detector per node. Suspicion events fan out to every
// subscriber on the observing node.
func NewFailureDomain(fab *rdma.Fabric, cfg heartbeat.Config) *FailureDomain {
	n := fab.Size()
	fd := &FailureDomain{subs: make([][]fdomSub, n)}
	for i := 0; i < n; i++ {
		heartbeat.Register(fab.Node(rdma.NodeID(i)))
	}
	for i := 0; i < n; i++ {
		i := i
		node := fab.Node(rdma.NodeID(i))
		fd.beaters = append(fd.beaters, heartbeat.NewBeater(fab.Engine(), node, cfg.BeatPeriod))
		det := heartbeat.NewDetector(fab, node, cfg)
		det.OnSuspect = func(peer rdma.NodeID) {
			for _, s := range fd.subs[i] {
				s.onSuspect(peer)
			}
		}
		det.OnRestore = func(peer rdma.NodeID) {
			for _, s := range fd.subs[i] {
				s.onRestore(peer)
			}
		}
		fd.detectors = append(fd.detectors, det)
	}
	return fd
}

// Subscribe adds suspicion callbacks for a replica observing from node.
func (fd *FailureDomain) Subscribe(node int, onSuspect, onRestore func(rdma.NodeID)) {
	fd.subs[node] = append(fd.subs[node], fdomSub{onSuspect: onSuspect, onRestore: onRestore})
}

// Beater returns the node's shared heartbeat thread; suspending it injects
// the paper's failure mode for the whole node (every shard at once).
func (fd *FailureDomain) Beater(node int) *heartbeat.Beater { return fd.beaters[node] }

// Suspected reports whether node currently suspects peer.
func (fd *FailureDomain) Suspected(node int, peer rdma.NodeID) bool {
	return fd != nil && fd.detectors[node].Suspected(peer)
}

// Suspects returns the peers node currently suspects, ascending; nil with
// an empty suspicion set.
func (fd *FailureDomain) Suspects(node int) []int {
	if fd == nil {
		return nil
	}
	return fd.detectors[node].Suspects()
}

// Forget drops peer from every node's failure-detection view: a node that
// cleanly left the configuration is not failed, so suspicion of it clears
// immediately and no new suspicion is raised until Watch re-admits it.
func (fd *FailureDomain) Forget(peer rdma.NodeID) {
	if fd == nil {
		return
	}
	for _, d := range fd.detectors {
		d.Forget(peer)
	}
}

// Watch re-admits a forgotten peer on every node's detector (a join).
func (fd *FailureDomain) Watch(peer rdma.NodeID) {
	if fd == nil {
		return
	}
	for _, d := range fd.detectors {
		d.Watch(peer)
	}
}

// Stop cancels every beater and detector. The domain's owner calls it after
// stopping the clusters subscribed to it.
func (fd *FailureDomain) Stop() {
	for _, b := range fd.beaters {
		b.Stop()
	}
	for _, d := range fd.detectors {
		d.Stop()
	}
}
