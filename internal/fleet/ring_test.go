package fleet

import (
	"fmt"
	"testing"
)

// TestRingPickStability is the satellite consistency contract: removing
// one replica moves only the keys it owned (everyone else's sessions
// stay put), the moved fraction stays near the theoretical 1/N, and
// re-adding the replica restores the original assignment exactly.
func TestRingPickStability(t *testing.T) {
	names := []string{"r0", "r1", "r2", "r3", "r4"}
	const keys = 20000
	full := BuildRing(names, 0)
	owner := make([]string, keys)
	counts := map[string]int{}
	for k := 0; k < keys; k++ {
		n, ok := full.Pick(uint64(k))
		if !ok {
			t.Fatal("Pick failed on a populated ring")
		}
		owner[k] = n
		counts[n]++
	}
	// Rough balance: every replica owns a nontrivial share.
	for _, n := range names {
		if counts[n] < keys/(5*4) {
			t.Fatalf("replica %s owns only %d/%d keys: ring badly unbalanced", n, counts[n], keys)
		}
	}

	// Leave: keys not owned by r2 must keep their owner.
	without := BuildRing([]string{"r0", "r1", "r3", "r4"}, 0)
	moved := 0
	for k := 0; k < keys; k++ {
		n, _ := without.Pick(uint64(k))
		if owner[k] == "r2" {
			if n == "r2" {
				t.Fatal("departed replica still owns keys")
			}
			moved++
			continue
		}
		if n != owner[k] {
			t.Fatalf("key %d moved %s -> %s though neither was the departed replica", k, owner[k], n)
		}
	}
	if moved == 0 || moved > 2*keys/len(names) {
		t.Fatalf("single leave moved %d/%d keys, want (0, %d]", moved, keys, 2*keys/len(names))
	}

	// Rejoin: bit-for-bit the original assignment (BuildRing is a pure
	// function of the member set).
	again := BuildRing(names, 0)
	for k := 0; k < keys; k++ {
		if n, _ := again.Pick(uint64(k)); n != owner[k] {
			t.Fatalf("key %d owner changed across leave+rejoin: %s -> %s", k, owner[k], n)
		}
	}

	// Join: a sixth replica only steals keys — nothing migrates between
	// the incumbents.
	grown := BuildRing(append(names, "r5"), 0)
	stolen := 0
	for k := 0; k < keys; k++ {
		n, _ := grown.Pick(uint64(k))
		if n == "r5" {
			stolen++
		} else if n != owner[k] {
			t.Fatalf("key %d moved %s -> %s on an unrelated join", k, owner[k], n)
		}
	}
	if stolen == 0 || stolen > 2*keys/6 {
		t.Fatalf("single join moved %d/%d keys, want (0, %d]", stolen, keys, 2*keys/6)
	}
}

// TestRingEmpty checks the no-member edge.
func TestRingEmpty(t *testing.T) {
	if _, ok := BuildRing(nil, 0).Pick(7); ok {
		t.Fatal("empty ring claims an owner")
	}
	var nilRing *Ring
	if _, ok := nilRing.Pick(7); ok {
		t.Fatal("nil ring claims an owner")
	}
}

// TestRegistryConvergence checks two registries built through different
// join orders pick identically — the property that lets the router's
// two faces route one session's legs with no coordination.
func TestRegistryConvergence(t *testing.T) {
	ra := NewRegistry(0)
	rb := NewRegistry(0)
	reps := make([]Replica, 6)
	for i := range reps {
		reps[i] = Replica{Name: fmt.Sprintf("rep-%d", i), Addr: [2]string{"a", "b"}}
	}
	for _, r := range reps {
		if err := ra.Join(r); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(reps) - 1; i >= 0; i-- {
		if err := rb.Join(reps[i]); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(0); k < 5000; k++ {
		a, okA := ra.Pick(k)
		b, okB := rb.Pick(k)
		if !okA || !okB || a.Name != b.Name {
			t.Fatalf("key %d: picks diverge across join orders (%q vs %q)", k, a.Name, b.Name)
		}
	}
}

// TestRegistryLifecycle covers validation, a refresh that keeps the ring,
// and leave.
func TestRegistryLifecycle(t *testing.T) {
	r := NewRegistry(0)
	if err := r.Join(Replica{Name: "x"}); err == nil {
		t.Fatal("incomplete replica record accepted")
	}
	if _, ok := r.Pick(1); ok {
		t.Fatal("empty registry claims an owner")
	}
	rep := Replica{Name: "x", Addr: [2]string{"h:1", "h:2"}}
	if err := r.Join(rep); err != nil {
		t.Fatal(err)
	}
	ring := ringOf(r)
	// A refresh (same name, new addresses) must not churn the ring.
	rep.Addr[0] = "h:9"
	tok, err := r.JoinToken(rep)
	if err != nil {
		t.Fatal(err)
	}
	if ringOf(r) != ring {
		t.Fatal("address refresh rebuilt the ring")
	}
	if got, _ := r.Pick(1); got.Addr[0] != "h:9" {
		t.Fatalf("Pick returns stale address %q", got.Addr[0])
	}
	if !r.LeaveIf("x", tok) || !r.LeaveIf("x", tok) { // idempotent
		t.Fatal("LeaveIf with the current token kept the replica")
	}
	if r.Size() != 0 {
		t.Fatalf("size %d after leave", r.Size())
	}
	if _, ok := r.Pick(1); ok {
		t.Fatal("registry claims an owner after leave")
	}
}

// ringOf is r's current ring, which every membership change replaces.
func ringOf(r *Registry) *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// isMember reports whether name is registered, draining or not.
func isMember(r *Registry, name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.members[name] != nil
}
