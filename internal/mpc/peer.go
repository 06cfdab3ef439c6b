package mpc

import (
	"fmt"

	"parsecureml/internal/comm"
)

// SupervisePeer puts the inter-server link under a comm.SupervisedLink:
// connect is the raw dial or accept (it runs again after every connection
// ends), and each fresh connection runs the role handshake
// (WriteHello/ReadHello) first, so a redial can never silently attach to a
// process claiming the wrong party. A restarted peer process is simply the
// next connection.
//
// The returned link slots directly into ServeClients' peer parameter, which
// runs one mux and one capability exchange per connection. Both ends must
// run one: ticks are empty frames, which a bare end would hand its mux.
func SupervisePeer(party int, connect func() (*comm.Conn, error), cfg comm.SupervisorConfig) (*comm.SupervisedLink, error) {
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
