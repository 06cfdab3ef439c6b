package fleet

import (
	"fmt"
	"sort"
	"sync"
)

// Replica is one registered server pair: a name (the consistent-hash
// identity — stable across restarts if the operator keeps it stable)
// and the client-facing addresses of its two parties.
type Replica struct {
	Name string
	Addr [2]string // Addr[party]
}

// member is a registry entry: the replica record, the registration
// token of its current incarnation, and whether it is draining (still a
// member, excluded from the ring).
type member struct {
	rep      Replica
	token    uint64
	draining bool
}

// Registry is the router's live membership view: replicas join through
// the health listener, leave when their health link dies (or a proxy
// observes them dead first), and every change rebuilds the ring. Reads
// (Pick) are lock-cheap and deterministic, so the two faces of one
// session converge on the same replica from the same membership.
//
// Every Join hands out a fresh registration token identifying that
// incarnation of the name. Evictions triggered by observed failures go
// through LeaveIf with the token of the incarnation that failed, so a
// replica that crashed, restarted, and re-registered under the same
// name cannot be knocked out of the ring by a stale eviction racing its
// re-JOIN.
type Registry struct {
	vnodes int

	mu      sync.RWMutex
	members map[string]*member
	ring    *Ring
	tokens  uint64 // registration token counter
}

// NewRegistry constructs an empty registry. vnodes <= 0 selects
// DefaultVnodes.
func NewRegistry(vnodes int) *Registry {
	return &Registry{vnodes: vnodes, members: make(map[string]*member), ring: BuildRing(nil, vnodes)}
}

// rebuildLocked rebuilds the ring over the non-draining members and
// refreshes the membership gauges.
func (r *Registry) rebuildLocked() {
	names := make([]string, 0, len(r.members))
	draining := 0
	for n, m := range r.members {
		if m.draining {
			draining++
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	r.ring = BuildRing(names, r.vnodes)
	routerReplicas.Set(int64(len(names)))
	routerDraining.Set(int64(draining))
}

// Join adds or refreshes a replica under a fresh registration token
// (returned by JoinToken). A draining member that re-joins is back in
// the ring — a restarted process starts clean. Errors only on a
// malformed record.
func (r *Registry) Join(rep Replica) error {
	_, err := r.JoinToken(rep)
	return err
}

// JoinToken is Join returning the new incarnation's registration token,
// for callers that may later need to evict exactly this incarnation
// (LeaveIf) without racing a re-registration.
func (r *Registry) JoinToken(rep Replica) (uint64, error) {
	if rep.Name == "" || rep.Addr[0] == "" || rep.Addr[1] == "" {
		return 0, fmt.Errorf("fleet: replica record incomplete: %+v", rep)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tokens++
	token := r.tokens
	old, existed := r.members[rep.Name]
	r.members[rep.Name] = &member{rep: rep, token: token}
	if !existed || old.draining {
		r.rebuildLocked()
		routerJoins.Inc()
	}
	return token, nil
}

// LeaveIf removes name only while its current registration token is
// still token — the eviction a failure observer may apply. If the name
// re-registered since the observer picked it up, the eviction is stale
// and dropped. Reports whether name is gone: false only when a newer
// incarnation holds it.
func (r *Registry) LeaveIf(name string, token uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok || m.token != token {
		return !ok
	}
	delete(r.members, name)
	r.rebuildLocked()
	routerLeaves.Inc()
	return true
}

// Drain marks name draining: it stays a member (its health link stays
// up, its in-flight sessions keep their sticky backend) but leaves the
// ring, so no new session hashes to it. Reports whether the member
// existed and was not already draining.
func (r *Registry) Drain(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	if !ok || m.draining {
		return false
	}
	m.draining = true
	r.rebuildLocked()
	routerDrains.Inc()
	return true
}

// Pick returns the replica owning key under current membership.
func (r *Registry) Pick(key uint64) (Replica, bool) {
	rep, _, ok := r.PickToken(key)
	return rep, ok
}

// PickToken is Pick returning the owning incarnation's registration
// token alongside, so an observed failure can be reported with LeaveIf
// instead of an unconditional eviction.
func (r *Registry) PickToken(key uint64) (Replica, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	name, ok := r.ring.Pick(key)
	if !ok {
		return Replica{}, 0, false
	}
	m, ok := r.members[name]
	if !ok {
		return Replica{}, 0, false
	}
	return m.rep, m.token, true
}

// Size returns the current member count, draining members included.
func (r *Registry) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}
