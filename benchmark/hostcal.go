package main

import (
	"fmt"
	"io"
	"net"
	"time"
)

// Host calibration. This sandbox shares its two cores with neighbours:
// the same fleet reads 15–20 % slower or faster from one minute to the
// next (latency, CPU time per request and throughput alike), which no
// bound the driver allows survives. What a PR cannot move must not decide
// whether it is accepted, so every timing the benchmark bounds is
// expressed at a reference host speed: between the slices of a measured
// phase, while the fleet sits idle, the load generator runs a fixed
// reference task and the phase's readings are scaled by how slow the
// reference ran.
//
// The reference is a back-to-back 64-byte ping-pong over raw loopback TCP
// between two goroutines: thread wake-ups, system calls and loopback
// copies, which is what a request through this fleet is made of. It uses
// the standard library only — no code a PR to this repository can change
// — and it runs only while the fleet is idle, so the fleet's own load
// cannot leak into it. Across ten runs on a drifting host its mean tracked
// small_routed's p50 with r = 0.99 and cpu_ms_per_req with r = 0.98.

// refRTTus is the reference task's round trip on this sandbox on a quiet
// day: the unit in which host speed is expressed. A host factor of 1.2
// means the reference ran 20 % slower than this.
const refRTTus = 10.0

// calGap is how long one calibration reading runs.
const calGap = 120 * time.Millisecond

// hostCal is the reference task's two ends.
type hostCal struct {
	near net.Conn
	far  net.Conn
}

func newHostCal() (*hostCal, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	go func() { // echo until closed
		buf := make([]byte, 64)
		for {
			if _, err := io.ReadFull(far, buf); err != nil {
				return
			}
			if _, err := far.Write(buf); err != nil {
				return
			}
		}
	}()
	return &hostCal{near: near, far: far}, nil
}

func (h *hostCal) close() {
	h.near.Close()
	h.far.Close()
}

// read runs the reference task for calGap and returns its mean round
// trip in microseconds.
func (h *hostCal) read() (float64, error) {
	buf := make([]byte, 64)
	start := time.Now()
	n := 0
	for time.Since(start) < calGap {
		if _, err := h.near.Write(buf); err != nil {
			return 0, fmt.Errorf("host calibration: %w", err)
		}
		if _, err := io.ReadFull(h.near, buf); err != nil {
			return 0, fmt.Errorf("host calibration: %w", err)
		}
		n++
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(n), nil
}
