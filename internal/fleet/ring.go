// Package fleet shards the serving tier: a session router
// (cmd/psml-router) spreads client sessions across N registered
// server-pair replicas by consistent-hashing their request ids, with a
// replica registry fed by health links and sticky re-routing when a
// replica dies. It is the composition layer over the existing
// transport: replicas are plain psml-server pairs, the router speaks
// the same framed request/response protocol clients already do, and a
// health link is JOIN, DRAIN and ticks on one plain comm.Conn.
package fleet

import "sort"

// DefaultVnodes is how many ring points each replica contributes.
// Enough that removing one replica moves close to the theoretical 1/N
// of the key space and the rest stays put.
const DefaultVnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned by
// a replica.
type ringPoint struct {
	hash uint64
	name string
}

// Ring is an immutable consistent-hash ring over replica names. Lookups
// walk clockwise from the key's position to the first virtual node; a
// membership change therefore only re-owns the arcs adjacent to the
// joined or departed replica's points (~1/N of keys for one change),
// which is what keeps sessions sticky across unrelated churn.
type Ring struct {
	points []ringPoint
}

// splitmix64 is the avalanche finalizer used for both vnode placement
// and key lookup — cheap, seedless, and uniform enough for a ring.
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashName positions vnode i of a named replica: FNV-1a over the name,
// mixed with the vnode index through splitmix64.
func hashName(name string, i int) uint64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for j := 0; j < len(name); j++ {
		h ^= uint64(name[j])
		h *= fnvPrime
	}
	return splitmix64(h ^ uint64(i)<<1)
}

// BuildRing constructs a ring over the given replica names with vnodes
// points each (<= 0 selects DefaultVnodes). An empty member list yields
// an empty ring (Pick reports no owner).
func BuildRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes)}
	for _, n := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashName(n, i), name: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.name < b.name // deterministic under (vanishingly rare) collisions
	})
	return r
}

// Pick returns the replica owning key, walking clockwise from the key's
// ring position. ok is false on an empty ring.
func (r *Ring) Pick(key uint64) (name string, ok bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	h := splitmix64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].name, true
}
