package pstore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"time"

	"ace/internal/cmdlang"
	"ace/internal/daemon"
	"ace/internal/pstore/placement"
	"ace/internal/telemetry"
)

// Coordinator drives placement changes: bootstrapping the first map,
// publishing maps to nodes and the ASD, and live rebalancing. All of
// its state lives in the published map, so a crashed coordinator is
// resumed by simply calling Rebalance again — it picks up pending
// moves from wherever the last publish left them.
type Coordinator struct {
	pool *daemon.Pool
	asd  string

	mMoves *telemetry.Counter
}

// NewCoordinator builds a coordinator publishing through the ASD at
// asdAddr.
func NewCoordinator(pool *daemon.Pool, asdAddr string) *Coordinator {
	return &Coordinator{
		pool:   pool,
		asd:    asdAddr,
		mMoves: pool.Telemetry().Counter(placement.MetricMoves),
	}
}

// Current fetches the published placement map from the ASD; (nil,
// nil) when none has been published yet.
func (co *Coordinator) Current(ctx context.Context) (*placement.Map, error) {
	reply, err := co.pool.CallContext(ctx, co.asd, cmdlang.New(placement.CmdPlaceGet))
	if err != nil {
		if cmdlang.IsRemoteCode(err, cmdlang.CodeNotFound) {
			return nil, nil
		}
		return nil, err
	}
	return placement.DecodeString(reply.Str("map", ""))
}

// Bootstrap publishes the first placement map (epoch 1). It refuses
// to run when a map is already published — growing or shrinking a
// live deployment is Rebalance's job.
func (co *Coordinator) Bootstrap(ctx context.Context, seed int64, partitions, vnodes int, groups []placement.Group) (*placement.Map, error) {
	cur, err := co.Current(ctx)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("pstore: placement already bootstrapped at epoch %d", cur.Epoch)
	}
	m := placement.NewMap(seed, partitions, vnodes, groups)
	if err := co.Publish(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// Publish installs m on every store node (psmap) and then publishes
// it to the ASD (placeset, which notifies subscribed caches). Nodes
// first: no client can fetch a map newer than what the serving nodes
// enforce. Every group must ack from a majority of its replicas —
// that is what makes the stale-epoch rejection effective, because a
// write routed with an older map can then never assemble a quorum of
// replicas that would still accept it. A node answering conflict is
// already on a newer epoch and counts as an ack.
func (co *Coordinator) Publish(ctx context.Context, m *placement.Map) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("pstore: publish: %w", err)
	}
	enc := m.EncodeString()
	for _, g := range m.Groups {
		acks := 0
		var lastErr error
		for _, addr := range g.Replicas {
			_, err := co.pool.CallContext(ctx, addr, cmdlang.New("psmap").SetString("map", enc))
			if err != nil && !cmdlang.IsRemoteCode(err, cmdlang.CodeConflict) {
				lastErr = err
				continue
			}
			acks++
		}
		if acks < len(g.Replicas)/2+1 {
			return fmt.Errorf("pstore: publish epoch %d: group %s acked %d/%d: %w", m.Epoch, g.Name, acks, len(g.Replicas), lastErr)
		}
	}
	_, err := co.pool.CallContext(ctx, co.asd, cmdlang.New(placement.CmdPlaceSet).SetString("map", enc))
	if err != nil && !cmdlang.IsRemoteCode(err, cmdlang.CodeConflict) {
		return fmt.Errorf("pstore: publish epoch %d to ASD: %w", m.Epoch, err)
	}
	return nil
}

// Rebalance moves the namespace to the target group set without
// blocking reads. It publishes a transition map whose Moves open the
// dual-apply window (and whose bumped stamps force stale clients to
// refetch before writing a moving partition), transfers each moving
// partition over the anti-entropy pull path, verifies convergence by
// digest quorum-coverage, and cuts each partition over with its own
// epoch bump. When every move has landed it publishes a final map
// holding exactly the target groups.
//
// Rebalance is resumable: all progress lives in the published map, so
// calling it again after a crash (its own, or a whole replica
// group's) continues from the last published epoch.
func (co *Coordinator) Rebalance(ctx context.Context, target []placement.Group) (*placement.Map, error) {
	for iter := 0; ; iter++ {
		cur, err := co.Current(ctx)
		if err != nil {
			return nil, err
		}
		if cur == nil {
			return nil, errors.New("pstore: rebalance: no placement map published (Bootstrap first)")
		}
		if iter > 2*cur.Partitions+8 {
			return nil, fmt.Errorf("pstore: rebalance did not converge after %d steps (epoch %d, %d moves pending)", iter, cur.Epoch, len(cur.Moves))
		}
		if len(cur.Moves) > 0 {
			// Make sure every node enforces the map driving this move
			// (a resumed coordinator may find nodes that restarted with
			// no map at all), then transfer and cut over the first
			// pending partition.
			if err := co.Publish(ctx, cur); err != nil {
				return nil, err
			}
			mv := cur.Moves[0]
			if err := co.transfer(ctx, cur, mv); err != nil {
				return nil, err
			}
			cut := cur.Clone()
			cut.Epoch++
			cut.Assignment[mv.Partition] = mv.To
			cut.Stamp[mv.Partition] = cut.Epoch
			cut.Moves = cut.Moves[1:]
			if err := co.Publish(ctx, cut); err != nil {
				return nil, err
			}
			co.mMoves.Inc()
			continue
		}
		next, changed := planTransition(cur, target)
		if changed {
			if err := co.Publish(ctx, next); err != nil {
				return nil, err
			}
			continue
		}
		final, fchanged, ferr := finalizeGroups(cur, target)
		if ferr != nil {
			return nil, ferr
		}
		if !fchanged {
			return cur, nil
		}
		if err := co.Publish(ctx, final); err != nil {
			return nil, err
		}
		return final, nil
	}
}

// planTransition computes the transition map from cur toward target:
// the union of current and target groups, one Move per partition
// whose consistent-hash owner under target differs from its current
// owner, and a bumped stamp on each moving partition so clients
// routing with the previous map are pushed to refetch (and so start
// dual-applying) instead of single-applying writes the move could
// miss. Returns changed=false when no partition needs to move.
func planTransition(cur *placement.Map, target []placement.Group) (*placement.Map, bool) {
	merged := append([]placement.Group(nil), cur.Groups...)
	idxByName := make(map[string]int, len(merged)+len(target))
	for i, g := range merged {
		idxByName[g.Name] = i
	}
	for _, g := range target {
		if _, ok := idxByName[g.Name]; !ok {
			idxByName[g.Name] = len(merged)
			merged = append(merged, g)
		}
	}
	desired := placement.Assign(cur.Seed, cur.Partitions, cur.VNodes, target)
	var moves []placement.Move
	for p, ti := range desired {
		want := idxByName[target[ti].Name]
		if cur.Assignment[p] != want {
			moves = append(moves, placement.Move{Partition: p, From: cur.Assignment[p], To: want})
		}
	}
	if len(moves) == 0 {
		return nil, false
	}
	next := cur.Clone()
	next.Epoch++
	next.Groups = merged
	next.Moves = moves
	for _, mv := range moves {
		next.Stamp[mv.Partition] = next.Epoch
	}
	return next, true
}

// finalizeGroups rewrites the map to hold exactly the target groups
// once no partition is assigned outside them, remapping assignment
// indices by group name.
func finalizeGroups(cur *placement.Map, target []placement.Group) (*placement.Map, bool, error) {
	if reflect.DeepEqual(cur.Groups, target) {
		return nil, false, nil
	}
	idx := make(map[string]int, len(target))
	for i, g := range target {
		idx[g.Name] = i
	}
	final := cur.Clone()
	final.Epoch++
	final.Groups = append([]placement.Group(nil), target...)
	for p, gi := range cur.Assignment {
		ni, ok := idx[cur.Groups[gi].Name]
		if !ok {
			return nil, false, fmt.Errorf("pstore: finalize: partition %d still owned by dropped group %s", p, cur.Groups[gi].Name)
		}
		final.Assignment[p] = ni
	}
	final.Moves = nil
	return final, true, nil
}

// Transfer tuning: how many pull-then-verify rounds to attempt per
// partition, and the pause between rounds (writes keep landing during
// a round, so a busy partition may need a few).
const (
	transferAttempts = 40
	transferPause    = 25 * time.Millisecond
)

// transfer drives every destination replica to pull the moving
// partition, then verifies convergence: the version union over a
// majority of source replicas must be covered by a majority of
// destination replicas. Any majority union contains every acked write
// (quorum intersection), and dual-apply covers writes landing during
// the window, so a verified partition can cut over without loss.
func (co *Coordinator) transfer(ctx context.Context, m *placement.Map, mv placement.Move) error {
	dst := m.Groups[mv.To].Replicas
	var lastErr error
	for attempt := 0; attempt < transferAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(transferPause):
			}
		}
		pulledOK := 0
		for _, d := range dst {
			if _, err := co.pool.CallContext(ctx, d, cmdlang.New("pspull").SetInt("partition", int64(mv.Partition))); err != nil {
				lastErr = fmt.Errorf("pspull %s: %w", d, err)
				continue
			}
			pulledOK++
		}
		if pulledOK < len(dst)/2+1 {
			continue
		}
		ok, err := co.converged(ctx, m, mv)
		if err != nil {
			lastErr = err
			continue
		}
		if ok {
			return nil
		}
	}
	return fmt.Errorf("pstore: transfer partition %d %s→%s did not converge: %w",
		mv.Partition, m.Groups[mv.From].Name, m.Groups[mv.To].Name, lastErr)
}

// digest fetches addr's partition-scoped digest as path→version.
func (co *Coordinator) digest(ctx context.Context, addr string, partition, partitions int) (map[string]uint64, error) {
	paths, versions, err := fetchDigest(ctx, co.pool, addr, partition, partitions)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(paths))
	for i, p := range paths {
		out[p] = versions[i]
	}
	return out, nil
}

// converged checks the transfer invariant for one move: ≥ majority of
// source replicas reachable, and their per-path version union covered
// (version ≥) by ≥ majority of destination replicas.
func (co *Coordinator) converged(ctx context.Context, m *placement.Map, mv placement.Move) (bool, error) {
	src := m.Groups[mv.From].Replicas
	dst := m.Groups[mv.To].Replicas
	union := map[string]uint64{}
	srcOK := 0
	for _, a := range src {
		d, err := co.digest(ctx, a, mv.Partition, m.Partitions)
		if err != nil {
			continue
		}
		srcOK++
		for p, v := range d {
			if v > union[p] {
				union[p] = v
			}
		}
	}
	if srcOK < len(src)/2+1 {
		return false, fmt.Errorf("partition %d: only %d/%d source replicas reachable", mv.Partition, srcOK, len(src))
	}
	covered := 0
	for _, a := range dst {
		d, err := co.digest(ctx, a, mv.Partition, m.Partitions)
		if err != nil {
			continue
		}
		all := true
		for p, v := range union {
			if d[p] < v {
				all = false
				break
			}
		}
		if all {
			covered++
		}
	}
	return covered >= len(dst)/2+1, nil
}
