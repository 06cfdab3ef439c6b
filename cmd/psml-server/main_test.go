package main

import (
	"testing"
	"time"
)

// -peer-heartbeat is documented for both supervised links, and its 0 means
// off on both: comm.SupervisorConfig disables heartbeats on a negative
// interval and reads 0 as "500ms", so the raw flag must reach neither.
func TestSupervisionHeartbeat(t *testing.T) {
	for _, tc := range []struct {
		flag     time.Duration
		disabled bool
	}{
		{0, true},
		{-time.Second, true},
		{100 * time.Millisecond, false},
	} {
		peer, health := supervision(tc.flag)
		for name, got := range map[string]time.Duration{"peer": peer.HeartbeatInterval, "health": health.HeartbeatInterval} {
			if tc.disabled && got >= 0 {
				t.Errorf("-peer-heartbeat %v: %s link interval %v, want heartbeats disabled (< 0)", tc.flag, name, got)
			}
			if !tc.disabled && got != tc.flag {
				t.Errorf("-peer-heartbeat %v: %s link interval %v", tc.flag, name, got)
			}
		}
	}
}
