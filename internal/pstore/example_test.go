package pstore_test

import (
	"fmt"

	"ace/internal/daemon"
	"ace/internal/pstore"
)

// Example shows the Fig 17 store in one flow: boot the 3-replica
// cluster, write a workspace state blob through a quorum, and read it
// back after one server has crashed.
func Example() {
	cluster, err := pstore.StartCluster(3, "", 0)
	if err != nil {
		panic(err)
	}
	defer cluster.StopAll()

	pool := daemon.NewPool(nil)
	defer pool.Close()
	client := pstore.NewClient(pool, cluster.Addrs())

	written, err := client.Put("/wss/workspaces/john_doe/default", []byte("workspace state"))
	if err != nil {
		panic(err)
	}

	cluster.Nodes[0].Stop() // one redundant server fails

	value, version, ok, err := client.Get("/wss/workspaces/john_doe/default")
	if err != nil {
		panic(err)
	}
	fmt.Println(ok, version == written, string(value))
	// Output:
	// true true workspace state
}
