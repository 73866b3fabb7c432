package network

import (
	"fmt"
	"runtime"

	"clustercolor/internal/graph"
)

// MultiEngine executes synchronous rounds over a partitioned communication
// graph: one pooled sub-engine per shard slice, each stepping only the
// machines its slice owns over the slice's local CSR, with an explicit
// boundary-exchange phase between the compute and deliver halves of every
// round that re-routes halo-addressed messages to the sub-engine owning the
// recipient. Wrapper machines translate ids at the boundary — inboxes arrive
// with local sender ids and are re-sorted by global sender before the inner
// machine runs, so a Machine implementation observes exactly the rounds,
// inboxes, and ordering the single-address-space Engine would deliver, and
// produces byte-identical outboxes.
//
// Accounting: every message is validated against the local CSR (the slice
// carries every edge incident to an owned vertex, so topology checks match
// the global graph) and accounted once, in its sender's sub-engine, under
// local link keys. Sub-engines run uncapped; MultiEngine merges the per-round
// link totals under global keys — cross-shard traffic from both endpoints
// lands on the same undirected key — and enforces the bandwidth cap on the
// merged map, so per-link budgets of a partitioned run sum to exactly the
// single-engine totals and violations trip identically. Cross-shard re-routed
// traffic is additionally surfaced via Exchanged.
type MultiEngine struct {
	sg        *graph.ShardedGraph
	subs      []*Engine
	bandwidth int
	round     int
	stats     LinkStats
	linkBits  map[[2]int32]int
	observer  RoundObserver
	// exRows/exBits count the messages (and their declared bits) that
	// crossed a shard boundary and were re-routed by the exchange phase.
	exRows, exBits int64
}

// haloStub stands in for a remote machine at a halo index. It never receives
// messages (halo-addressed traffic is re-routed before delivery) and never
// sends.
type haloStub struct{}

func (haloStub) Step(int, []Message) ([]Message, error) { return nil, nil }

// shardMachine adapts a globally-addressed Machine to a shard slice: inbox
// sender ids translate local→global and re-sort stably by global sender
// (halo local ids are not in global order, and the unsharded engine's inbox
// order is part of the Machine contract); outbox addresses translate
// global→local, validating that every recipient is owned or halo — any edge
// of an owned vertex is, so a failure here is a message the global topology
// check would also have rejected.
type shardMachine struct {
	inner  Machine
	sl     *graph.ShardSlice
	global int
	local  int
	in     []Message
	out    []Message
}

func (m *shardMachine) Step(round int, inbox []Message) ([]Message, error) {
	m.in = m.in[:0]
	for _, msg := range inbox {
		msg.From = m.sl.ToGlobal(msg.From)
		msg.To = m.global
		m.in = append(m.in, msg)
	}
	sortInbox(m.in)
	out, err := m.inner.Step(round, m.in)
	if err != nil {
		return nil, err
	}
	m.out = m.out[:0]
	for _, msg := range out {
		if msg.From != m.global {
			return nil, fmt.Errorf("network: machine %d forged sender %d", m.global, msg.From)
		}
		lt, ok := m.sl.LocalOf(msg.To)
		if !ok {
			return nil, fmt.Errorf("network: message %d->%d without link", msg.From, msg.To)
		}
		msg.From = m.local
		msg.To = lt
		m.out = append(m.out, msg)
	}
	return m.out, nil
}

// NewMultiEngine returns a partitioned engine over sg. machines are indexed
// by global vertex id and must have length sg.N(); bandwidthBits caps the
// bits a link may carry per round, enforced on the globally merged per-link
// totals (0 disables the check). Only the slices are consulted, so sharded
// graphs streamed from an edge list work unchanged.
func NewMultiEngine(sg *graph.ShardedGraph, machines []Machine, bandwidthBits int) (*MultiEngine, error) {
	if len(machines) != sg.N() {
		return nil, fmt.Errorf("network: %d machines for %d vertices", len(machines), sg.N())
	}
	me := &MultiEngine{
		sg:        sg,
		bandwidth: bandwidthBits,
		linkBits:  make(map[[2]int32]int),
		subs:      make([]*Engine, 0, sg.NumShards()),
	}
	for _, sl := range sg.Slices {
		locals := make([]Machine, sl.CSR.N())
		for lv := 0; lv < sl.Own(); lv++ {
			locals[lv] = &shardMachine{
				inner:  machines[sl.Lo+lv],
				sl:     sl,
				global: sl.Lo + lv,
				local:  lv,
			}
		}
		for i := range sl.Halo {
			locals[sl.Own()+i] = haloStub{}
		}
		sub, err := NewEngineWithScheduler(sl.CSR, locals, 0, SchedulerPooled)
		if err != nil {
			return nil, err
		}
		sub.egressAt = sl.Own()
		me.subs = append(me.subs, sub)
	}
	return me, nil
}

// Round returns the number of completed rounds.
func (me *MultiEngine) Round() int { return me.round }

// Stats returns the merged bandwidth statistics for the run so far. On
// successful rounds they are identical to the single-engine stats of the
// same machine set.
func (me *MultiEngine) Stats() LinkStats { return me.stats }

// Exchanged returns the cross-shard traffic so far: messages re-routed by
// the boundary-exchange phase and their total declared bits. Both are a
// subset of Stats' totals, not an addition to them.
func (me *MultiEngine) Exchanged() (rows, bits int64) { return me.exRows, me.exBits }

// SetRoundObserver installs obs on the coordinator (nil removes it); the
// delta reported per round is the merged cross-shard view.
func (me *MultiEngine) SetRoundObserver(obs RoundObserver) { me.observer = obs }

// Close releases every sub-engine's worker pool. Idempotent.
func (me *MultiEngine) Close() {
	for _, sub := range me.subs {
		sub.Close()
	}
}

// Step executes one synchronous round across all shards: compute everywhere,
// merge and cap-check link totals globally, re-route boundary traffic, then
// deliver everywhere. A message emitted in round r is delivered in round r+1
// whether or not it crosses a shard boundary, matching Engine.Step latency
// exactly.
func (me *MultiEngine) Step() error {
	defer runtime.KeepAlive(me)
	before := me.stats
	befores := make([]LinkStats, len(me.subs))
	for i, sub := range me.subs {
		befores[i] = sub.stats
	}
	for s, sub := range me.subs {
		if sub.closed.Load() {
			return fmt.Errorf("network: Step on closed engine")
		}
		if err := sub.computePooled(); err != nil {
			return fmt.Errorf("network: shard %d: %w", s, err)
		}
	}
	// Merge per-round link totals under global keys. Each message was
	// accounted once, in its sender's shard; both directions of a cross-shard
	// link merge onto one undirected global key, exactly as in Engine.
	clear(me.linkBits)
	for s, sub := range me.subs {
		sl := me.sg.Slices[s]
		for key, bits := range sub.linkBits {
			gk := linkKey(sl.ToGlobal(int(key[0])), sl.ToGlobal(int(key[1])))
			me.linkBits[gk] += bits
		}
		me.stats.TotalBits += sub.stats.TotalBits - befores[s].TotalBits
		me.stats.Messages += sub.stats.Messages - befores[s].Messages
	}
	roundMax, err := checkLinkCap(me.linkBits, me.bandwidth, me.round)
	if err != nil {
		return err
	}
	if roundMax > me.stats.MaxLinkBits {
		me.stats.MaxLinkBits = roundMax
	}
	// Boundary exchange: drain every shard's egress lists (halo-addressed
	// messages held back from local delivery) and inject each message into
	// the owner shard's next-round inboxes, re-addressed in the owner's
	// local id space. The sender is in the owner's halo by construction —
	// the edge exists and its far endpoint is owned there.
	for s, sub := range me.subs {
		sl := me.sg.Slices[s]
		for _, w := range sub.workers {
			for _, msg := range w.egress {
				gFrom := sl.Lo + msg.From
				gTo := sl.ToGlobal(msg.To)
				o := me.sg.Owner(gTo)
				tsl := me.sg.Slices[o]
				lf, ok := tsl.LocalOf(gFrom)
				if !ok {
					return fmt.Errorf("network: shard %d has no halo entry for sender %d", o, gFrom)
				}
				msg.From = lf
				msg.To = gTo - tsl.Lo
				me.subs[o].next[msg.To] = append(me.subs[o].next[msg.To], msg)
				me.exRows++
				me.exBits += int64(msg.Bits)
			}
		}
	}
	for i, sub := range me.subs {
		sub.finishPooled(befores[i], 0)
	}
	me.round++
	me.stats.Rounds = me.round
	if me.observer != nil {
		me.observer(me.round-1, LinkStats{
			Rounds:      1,
			TotalBits:   me.stats.TotalBits - before.TotalBits,
			MaxLinkBits: roundMax,
			Messages:    me.stats.Messages - before.Messages,
		})
	}
	return nil
}

// Run executes rounds until done returns true or maxRounds is reached,
// mirroring Engine.Run.
func (me *MultiEngine) Run(maxRounds int, done func() bool) (int, error) {
	start := me.round
	for me.round-start < maxRounds {
		if done() {
			return me.round - start, nil
		}
		if err := me.Step(); err != nil {
			return me.round - start, err
		}
	}
	if done() {
		return me.round - start, nil
	}
	return me.round - start, fmt.Errorf("network: budget of %d rounds exhausted", maxRounds)
}
