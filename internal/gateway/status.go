package gateway

import (
	"encoding/json"
	"errors"
	"net/http"

	"dissenter/internal/httpguard"
)

// BackendStatus is the gateway's view of one fleet member.
type BackendStatus struct {
	Name        string `json:"name"`
	Role        string `json:"role"`
	URL         string `json:"url"`
	Ejected     bool   `json:"ejected"`
	ConsecFails int    `json:"consec_fails"`
	Probed      bool   `json:"probed"`
	Ready       bool   `json:"ready"`
	Applied     uint64 `json:"applied"`
	Lag         uint64 `json:"lag"`
	PersistOK   bool   `json:"persist_ok"`
	Served      uint64 `json:"served"`
	Failures    uint64 `json:"failures"`
	LastErr     string `json:"last_err,omitempty"`
}

// Stats snapshots the gateway's routing state: the retry-budget
// counters and every backend's standing.
type Stats struct {
	// Requests is reads admitted; Retries is failover attempts spent;
	// RetriesDenied is failovers the global budget refused.
	Requests      uint64          `json:"requests"`
	Retries       uint64          `json:"retries"`
	RetriesDenied uint64          `json:"retries_denied"`
	Backends      []BackendStatus `json:"backends"`
}

// Stats snapshots the gateway for tests and the /gateway/status page.
func (g *Gateway) Stats() Stats {
	var s Stats
	s.Requests, s.Retries, s.RetriesDenied = g.budget.snapshot()
	for _, b := range g.all {
		b.mu.Lock()
		s.Backends = append(s.Backends, BackendStatus{
			Name:        b.name,
			Role:        b.role.String(),
			URL:         b.base.String(),
			Ejected:     b.ejected,
			ConsecFails: b.consecFails,
			Probed:      b.probed,
			Ready:       b.ready,
			Applied:     b.applied,
			Lag:         b.lag,
			PersistOK:   b.persistOK,
			Served:      b.served,
			Failures:    b.failures,
			LastErr:     b.lastErr,
		})
		b.mu.Unlock()
	}
	return s
}

// ServeStatus answers /gateway/status as JSON.
func (g *Gateway) ServeStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(g.Stats())
}

// ReadyCheck is the gateway's own httpguard readiness probe: ready
// while at least one backend is admitted — with every backend
// ejected the gateway can route nothing, and a fronting balancer (or
// DNS) should stop sending it traffic.
func (g *Gateway) ReadyCheck() error {
	for _, b := range g.all {
		if b.admitted() {
			return nil
		}
	}
	return errors.New("every backend is ejected")
}

// Root is the gateway as a server: the proxy behind admission control,
// /gateway/status outside it, readiness = ReadyCheck. It has no state
// to flush, so no Close, and it starts no prober: the binary calls
// ProbeNow and Run, a fault schedule scripts ProbeNow alone.
func (g *Gateway) Root() httpguard.Root {
	return httpguard.Root{
		Health: httpguard.NewHealth(httpguard.Check{Name: "backends", Probe: g.ReadyCheck}),
		Exempt: map[string]http.Handler{"/gateway/status": http.HandlerFunc(g.ServeStatus)},
		App:    g,
	}
}
