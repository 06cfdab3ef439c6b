package mpc

import (
	"fmt"

	"parsecureml/internal/comm"
)

// SupervisePeer wraps the inter-server link in a comm.SupervisedLink:
// connect is the raw dial or accept (it runs again after every
// connection loss), and each fresh connection re-runs the role handshake
// (WriteHello/ReadHello) before the supervisor's resync, so a reconnect
// can never silently attach to a process claiming the wrong party.
// Heartbeat RTT samples land on psml_link_heartbeat_rtt_seconds unless
// cfg.ObserveRTT is already set.
//
// The returned link slots directly into ServeClients' peer parameter. The
// supervised frame protocol is symmetric: a supervised end paired with a
// bare one fails its first resync handshake, at link-up.
func SupervisePeer(party int, connect func() (*comm.Conn, error), cfg comm.SupervisorConfig) (*comm.SupervisedLink, error) {
	if cfg.ObserveRTT == nil {
		cfg.ObserveRTT = metrics.linkRTT.Observe
	}
	return comm.NewSupervisedLink(func() (comm.Framer, error) {
		c, err := connect()
		if err != nil {
			return nil, err
		}
		if err := WriteHello(c, party); err != nil {
			c.Close()
			return nil, err
		}
		peerParty, err := ReadHello(c)
		if err != nil {
			c.Close()
			return nil, err
		}
		if peerParty == party {
			c.Close()
			return nil, fmt.Errorf("mpc: both ends of the peer link claim party %d", party)
		}
		return c, nil
	}, cfg)
}
