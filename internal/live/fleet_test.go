package live

import (
	"net"
	"testing"
	"time"

	"radar/internal/topology"
)

// TestWaitReadyBoundsSilentNode: a node that accepts the connection but
// never answers cannot hold the readiness wait past its timeout.
func TestWaitReadyBoundsSilentNode(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close() // never served: connections sit in the accept queue
	const timeout = 200 * time.Millisecond
	start := time.Now()
	err = waitReady([]string{"http://" + ln.Addr().String()}, func(topology.NodeID) bool { return false }, timeout)
	if err == nil {
		t.Fatal("readiness wait on a silent node succeeded")
	}
	if took := time.Since(start); took > timeout+time.Second {
		t.Fatalf("readiness wait took %v, timeout %v", took, timeout)
	}
}
