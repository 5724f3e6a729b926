// Robustapp demonstrates the ACE application lifecycle (§5) on top of
// the persistent store (§6): a robust counter service checkpoints
// every state change into the 3-way replicated store, gets crashed
// repeatedly, and is brought back by the watcher with its exact state
// — even while one store replica is down.
package main

import (
	"fmt"
	"log"
	"time"

	"ace/internal/apps"
	"ace/internal/asd"
	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore"
)

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func main() {
	// Fig 17: three completely redundant storage servers.
	cluster, err := pstore.StartCluster(3, "", 50*time.Millisecond)
	must(err)
	defer cluster.StopAll()
	pool := daemon.NewPool(nil)
	defer pool.Close()
	store := pstore.NewClient(pool, cluster.Addrs())
	fmt.Println("persistent store: 3 replicas at", cluster.Addrs())

	// Service directory + watcher (the §5.2 "watcher service").
	dir := asd.New(asd.Config{ReapInterval: 20 * time.Millisecond})
	must(dir.Start())
	defer dir.Stop()

	ckpt := &apps.Checkpointer{Client: store, Path: "/apps/demo_counter/state"}
	makeCounter := func() *apps.RobustCounter {
		return apps.NewRobustCounter(daemon.Config{
			Name:     "demo_counter",
			ASDAddr:  dir.Addr(),
			LeaseTTL: 100 * time.Millisecond,
		}, ckpt)
	}

	counter := makeCounter()
	must(counter.Start())

	watcher := apps.NewWatcher(apps.WatcherConfig{ASDAddr: dir.Addr(), Interval: 25 * time.Millisecond})
	watcher.Watch(apps.Spec{
		Name:  "demo_counter",
		Class: apps.Robust,
		Factory: func() (apps.Startable, error) {
			fmt.Println("  watcher: relaunching demo_counter from its last checkpoint")
			return makeCounter(), nil
		},
	}, counter)
	must(watcher.Start())
	defer watcher.Stop()

	callCounter := func(cmd string) *cmdlang.CmdLine {
		addr, err := asd.Resolve(pool, dir.Addr(), asd.Query{Name: "demo_counter"})
		must(err)
		reply, err := pool.Call(addr, cmdlang.New(cmd))
		must(err)
		return reply
	}

	fmt.Println("\nincrementing the robust counter 5 times…")
	for i := 0; i < 5; i++ {
		callCounter("increment")
	}
	fmt.Println("counter value:", callCounter("value").Int("value", -1))

	fmt.Println("\nCRASH: killing the counter service.")
	counter.Stop()
	start := time.Now()
	for {
		if _, err := asd.Resolve(pool, dir.Addr(), asd.Query{Name: "demo_counter"}); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("watcher recovered it in %s.\n", time.Since(start).Round(time.Millisecond))
	fmt.Println("counter value after recovery:", callCounter("value").Int("value", -1))

	fmt.Println("\nCRASH: killing store replica 1 as well.")
	cluster.Nodes[0].Stop()
	for i := 0; i < 3; i++ {
		callCounter("increment")
	}
	fmt.Println("counter still serving and checkpointing; value:", callCounter("value").Int("value", -1))
	fmt.Println("\nrobust applications survive service crashes AND store replica failures.")
}
